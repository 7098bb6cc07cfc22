//! Deterministic hashed flow table.
//!
//! The data path is "find this packet's state, then act": the mux's flow
//! table, the instance's `flows`/`rflows`, the TCP stack's connection
//! tables, the store's key space. Each is consulted on every packet or
//! store op, so an ordered map's O(log n) pointer chase (55K live flows on
//! the open-loop workload) is the single largest per-packet cost that is
//! not bytes. [`FlowTable`] is the one table all of them use: `std`'s
//! `HashMap` behind two restrictions that keep a run a pure function of
//! its seed.
//!
//! * **A fixed hash.** [`FlowHasher`] is a stateless integer mix — no
//!   `RandomState`, no per-process key — so a table's layout is the same
//!   in every run and on every host.
//! * **No iteration order.** There is no `iter`/`keys`/`values`/`drain`.
//!   The walks the callers need are [`FlowTable::retain`] and
//!   [`FlowTable::any`], whose closures must not care in which order they
//!   see entries, and [`FlowTable::sorted_keys`], which returns the keys
//!   it selects in ascending order — what a `BTreeMap` walk gave. A walk
//!   that emits packets or store ops goes through `sorted_keys`, so no
//!   wire order depends on the table's layout.
//!
//! This is the only file in the simulation crates that may name
//! `HashMap` (yoda-tidy's `HASH_TABLE_FILES`).

use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// The fixed hash function of every [`FlowTable`].
///
/// A multiplicative polynomial over 64-bit words: each integer a key's
/// `Hash` impl feeds is one `(h + word) * K` step, so an `(Endpoint,
/// Endpoint)` 4-tuple costs two multiplies ([`crate::Endpoint`] feeds
/// itself as one word). The product's high bits mix every input bit and
/// its low bits almost none, and the table indexes buckets with the low
/// bits, so [`Hasher::finish`] rotates the high half down — enough to
/// spread production addresses that differ in one octet or one port.
/// Byte strings (store keys, request paths) go in eight bytes at a time.
///
/// Not collision-resistant against crafted keys, which is fine: every key
/// comes from the simulation itself.
#[derive(Debug, Default, Clone, Copy)]
pub struct FlowHasher(u64);

/// Odd multiplier with no short bit patterns (from the PCG family).
const K: u64 = 0xf135_7aea_2e62_a9c5;

impl FlowHasher {
    #[inline]
    fn word(&mut self, w: u64) {
        self.0 = self.0.wrapping_add(w).wrapping_mul(K);
    }
}

impl Hasher for FlowHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        while let Some((head, tail)) = rest.split_first_chunk::<8>() {
            self.word(u64::from_le_bytes(*head));
            rest = tail;
        }
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            for (d, s) in last.iter_mut().zip(rest) {
                *d = *s;
            }
            self.word(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.word(i as u64);
    }
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.word(i as u64);
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.word(i as u64);
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }
}

/// A hash table with a fixed hash and no observable order; see the
/// module docs.
///
/// # Examples
///
/// ```
/// use yoda_netsim::{Addr, Endpoint, FlowTable};
///
/// let client = Endpoint::new(Addr::new(172, 16, 0, 1), 40_000);
/// let vip = Endpoint::new(Addr::new(100, 0, 0, 1), 80);
/// let mut flows: FlowTable<(Endpoint, Endpoint), u32> = FlowTable::new();
/// *flows.get_or_insert_with((client, vip), || 0) += 1;
/// assert_eq!(flows.get(&(client, vip)), Some(&1));
/// assert_eq!(flows.sorted_keys(|_, hits| *hits > 0), vec![(client, vip)]);
/// assert_eq!(flows.remove(&(client, vip)), Some(1));
/// assert!(flows.is_empty());
/// ```
#[derive(Clone)]
pub struct FlowTable<K, V> {
    map: HashMap<K, V, BuildHasherDefault<FlowHasher>>,
}

impl<K, V> Default for FlowTable<K, V> {
    fn default() -> Self {
        FlowTable {
            map: HashMap::default(),
        }
    }
}

/// Prints the size only: printing entries would print table order.
impl<K, V> fmt::Debug for FlowTable<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlowTable")
            .field("len", &self.map.len())
            .finish_non_exhaustive()
    }
}

impl<K: Hash + Eq, V> FlowTable<K, V> {
    /// Creates an empty table (allocates nothing until the first insert).
    pub fn new() -> Self {
        FlowTable::default()
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the table holds nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Entries the table can hold before it next grows.
    pub fn capacity(&self) -> usize {
        self.map.capacity()
    }

    /// The value stored under `key`.
    #[inline]
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.get(key)
    }

    /// Mutable access to the value stored under `key`.
    #[inline]
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.get_mut(key)
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.contains_key(key)
    }

    /// Stores `value` under `key`, returning what it replaced.
    #[inline]
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.map.insert(key, value)
    }

    /// Removes `key`, returning its value.
    #[inline]
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.remove(key)
    }

    /// The value under `key`, inserting `make()` first when absent: one
    /// probe whether the key is new or not.
    #[inline]
    pub fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        self.map.entry(key).or_insert_with(make)
    }

    /// Keeps the entries `keep` returns true for. Entries are visited in
    /// table order, which means nothing: `keep` must decide each entry on
    /// its own, and anything it records must not depend on visit order (a
    /// count, a set — not a list, not a send).
    pub fn retain(&mut self, keep: impl FnMut(&K, &mut V) -> bool) {
        self.map.retain(keep);
    }

    /// Whether any entry satisfies `pred` (which, as with
    /// [`FlowTable::retain`], must judge each entry on its own).
    pub fn any(&self, mut pred: impl FnMut(&K, &V) -> bool) -> bool {
        self.map.iter().any(|(k, v)| pred(k, v))
    }
}

impl<K: Hash + Eq + Ord + Clone, V> FlowTable<K, V> {
    /// The keys of the entries `want` accepts, ascending: the order a
    /// `BTreeMap` would have walked them in. The one way to enumerate the
    /// table, for walks whose effects (packets, store ops) must not
    /// depend on its layout. `want` must judge each entry on its own.
    pub fn sorted_keys(&self, mut want: impl FnMut(&K, &V) -> bool) -> Vec<K> {
        let mut keys: Vec<K> = self
            .map
            .iter()
            .filter(|(k, v)| want(k, v))
            .map(|(k, _)| k.clone())
            .collect();
        keys.sort_unstable();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Addr, Endpoint};
    use std::hash::BuildHasher;

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        BuildHasherDefault::<FlowHasher>::default().hash_one(v)
    }

    #[test]
    fn hash_is_a_fixed_function_of_the_key() {
        let key = (
            Endpoint::new(Addr::new(172, 16, 0, 1), 40_000),
            Endpoint::new(Addr::new(100, 0, 0, 1), 80),
        );
        // Pinned: a different value here means every table's layout moved.
        assert_eq!(hash_of(&key), hash_of(&key));
        assert_eq!(hash_of(&7u64), 7u64.wrapping_mul(K).rotate_left(26));
        assert_ne!(hash_of(&key), hash_of(&(key.1, key.0)));
    }

    #[test]
    fn neighbouring_flows_spread_over_the_low_bits() {
        // One client address, consecutive ports, one VIP: the low 10 bits
        // (a 1024-bucket table's index) should land close to uniform.
        let vip = Endpoint::new(Addr::new(100, 0, 0, 1), 80);
        let mut buckets = [0u32; 1024];
        for port in 0..8192u16 {
            let client = Endpoint::new(Addr::new(172, 16, 0, 1), 33_000 + port);
            buckets[(hash_of(&(client, vip)) & 1023) as usize] += 1;
        }
        let (min, max) = (buckets.iter().min().unwrap(), buckets.iter().max().unwrap());
        assert!(
            *min >= 1 && *max <= 24,
            "expected ~8 per bucket, got {min}..{max}"
        );
    }

    #[test]
    fn byte_keys_hash_by_content_including_the_tail() {
        assert_ne!(
            hash_of(&b"flow:0123456789a"[..]),
            hash_of(&b"flow:0123456789b"[..])
        );
        assert_ne!(hash_of(&b"abc"[..]), hash_of(&b"abc\0"[..]));
        let mut t: FlowTable<String, u32> = FlowTable::new();
        t.insert("/index.html".to_string(), 1);
        assert_eq!(t.get("/index.html"), Some(&1));
        assert_eq!(t.get("/index.htm"), None);
    }

    #[test]
    fn basic_operations() {
        let mut t: FlowTable<u64, &str> = FlowTable::new();
        assert!(t.is_empty() && t.capacity() == 0);
        assert_eq!(t.insert(3, "c"), None);
        assert_eq!(t.insert(1, "a"), None);
        assert_eq!(t.insert(3, "C"), Some("c"));
        assert_eq!(t.len(), 2);
        assert!(t.contains_key(&1) && !t.contains_key(&2));
        *t.get_or_insert_with(2, || "b") = "B";
        assert_eq!(*t.get_or_insert_with(2, || "never"), "B");
        if let Some(v) = t.get_mut(&1) {
            *v = "A";
        }
        assert_eq!(t.sorted_keys(|_, _| true), vec![1, 2, 3]);
        assert_eq!(t.sorted_keys(|_, v| v.starts_with('B')), vec![2]);
        assert!(t.any(|_, v| *v == "A") && !t.any(|k, _| *k > 3));
        t.retain(|k, _| k % 2 == 1);
        assert_eq!(t.sorted_keys(|_, _| true), vec![1, 3]);
        assert_eq!(t.remove(&1), Some("A"));
        assert_eq!(t.remove(&1), None);
    }
}
