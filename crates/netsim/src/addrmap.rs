//! Deterministic open-addressing address table.
//!
//! Packet routing looks up `Addr → NodeId` once per delivered packet and
//! once per send, which made the engine's former `BTreeMap` the hottest
//! data structure in the simulator. This table replaces it with a
//! fixed-layout, linear-probing hash table:
//!
//! * **Deterministic by construction** — the hash is a fixed integer mix
//!   (splitmix64-style) of the address bits, never the ASLR-seeded
//!   `RandomState` of `std`'s `HashMap`, and the public API is
//!   lookup-only: there is no iteration order to leak into event
//!   scheduling, which is what the root `clippy.toml`'s `HashMap` ban
//!   guards against.
//! * **Panic-free** — every slot access is masked to the power-of-two
//!   capacity (`slots[idx & mask]`), so indexing cannot go out of bounds;
//!   the module's one `#![expect(clippy::indexing_slicing)]` rests on
//!   that.
//! * **No deletion** — the engine never unbinds an address (failed nodes
//!   keep their addresses and drop packets at delivery), so tombstones
//!   are unnecessary and probes terminate at the first empty slot.
//!
//! Each occupied slot packs `(addr, node + 1)` into one `u64`; `0` means
//! empty, which is unambiguous because the node half of an occupied slot
//! is always non-zero.

#![expect(
    clippy::indexing_slicing,
    reason = "every slot index is masked to the power-of-two capacity"
)]

use crate::addr::Addr;

/// Lookup-only `Addr → node index` table.
#[derive(Debug, Default)]
pub struct AddrMap {
    /// `(addr << 32) | (node + 1)`, or `0` for an empty slot.
    slots: Vec<u64>,
    mask: usize,
    len: usize,
}

/// Fixed integer mix (Fibonacci hashing): one multiply, then the high
/// half of the product, whose bits mix contributions from every key bit
/// — enough to spread clustered production addresses (10.x.y.z) across
/// the table, and a third of the latency of a full splitmix64 finalizer
/// on a lookup that runs twice per simulated packet.
#[inline]
fn mix(addr: u32) -> u64 {
    (addr as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32
}

#[inline]
fn pack(addr: u32, node: usize) -> u64 {
    ((addr as u64) << 32) | (node as u64 + 1)
}

impl AddrMap {
    /// Creates an empty table.
    pub(crate) fn new() -> Self {
        AddrMap::default()
    }

    /// Returns the node index bound to `addr`, if any.
    #[inline]
    pub(crate) fn get(&self, addr: Addr) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let key = addr.as_u32();
        let mut idx = mix(key) as usize;
        loop {
            let slot = self.slots[idx & self.mask];
            if slot == 0 {
                return None;
            }
            if (slot >> 32) as u32 == key {
                return Some((slot as u32 - 1) as usize);
            }
            idx = idx.wrapping_add(1);
        }
    }

    /// Binds `addr` to `node`. Returns the previously bound node if the
    /// address was already taken (leaving the binding unchanged, like
    /// `BTreeMap::insert` the engine used to rely on for its duplicate-
    /// address assert — except the old binding wins, since callers treat
    /// a duplicate as fatal anyway).
    pub(crate) fn insert(&mut self, addr: Addr, node: usize) -> Option<usize> {
        debug_assert!(node < u32::MAX as usize, "node index exceeds packed width");
        if self.slots.len() < 2 * (self.len + 1) {
            self.grow();
        }
        let key = addr.as_u32();
        let mut idx = mix(key) as usize;
        loop {
            let slot = self.slots[idx & self.mask];
            if slot == 0 {
                self.slots[idx & self.mask] = pack(key, node);
                self.len += 1;
                return None;
            }
            if (slot >> 32) as u32 == key {
                return Some((slot as u32 - 1) as usize);
            }
            idx = idx.wrapping_add(1);
        }
    }

    /// Doubles capacity (min 16) and re-places every occupied slot.
    /// Probe order after a rehash depends only on the stored keys, never
    /// on insertion history, so growth cannot perturb determinism.
    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![0; cap]);
        self.mask = cap - 1;
        for slot in old {
            if slot == 0 {
                continue;
            }
            let mut idx = mix((slot >> 32) as u32) as usize;
            while self.slots[idx & self.mask] != 0 {
                idx = idx.wrapping_add(1);
            }
            self.slots[idx & self.mask] = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(raw: u32) -> Addr {
        Addr::from_u32(raw)
    }

    #[test]
    fn empty_lookup_misses() {
        let m = AddrMap::new();
        assert_eq!(m.get(a(0)), None);
        assert_eq!(m.get(a(0x0A00_0001)), None);
        assert!(m.len == 0);
    }

    #[test]
    fn insert_then_get() {
        let mut m = AddrMap::new();
        assert_eq!(m.insert(a(0x0A00_0001), 0), None);
        assert_eq!(m.insert(a(0x0A00_0002), 7), None);
        assert_eq!(m.get(a(0x0A00_0001)), Some(0));
        assert_eq!(m.get(a(0x0A00_0002)), Some(7));
        assert_eq!(m.get(a(0x0A00_0003)), None);
        assert_eq!(m.len, 2);
    }

    #[test]
    fn duplicate_insert_reports_existing_binding() {
        let mut m = AddrMap::new();
        assert_eq!(m.insert(a(42), 3), None);
        assert_eq!(m.insert(a(42), 9), Some(3));
        // The original binding wins; callers assert on Some and abort.
        assert_eq!(m.get(a(42)), Some(3));
        assert_eq!(m.len, 1);
    }

    #[test]
    fn address_zero_and_node_zero_are_representable() {
        let mut m = AddrMap::new();
        assert_eq!(m.insert(a(0), 0), None);
        assert_eq!(m.get(a(0)), Some(0));
    }

    #[test]
    fn survives_growth_with_clustered_addresses() {
        // Production address plans are dense runs (10.0.0.x, 10.0.1.x):
        // the worst case for a weak hash. Everything must survive
        // multiple rehashes.
        let mut m = AddrMap::new();
        for i in 0..4096u32 {
            assert_eq!(m.insert(a(0x0A00_0000 + i), i as usize), None);
        }
        assert_eq!(m.len, 4096);
        for i in 0..4096u32 {
            assert_eq!(m.get(a(0x0A00_0000 + i)), Some(i as usize));
        }
        assert_eq!(m.get(a(0x0A00_0000 + 4096)), None);
    }

    #[test]
    fn load_factor_stays_at_most_half() {
        let mut m = AddrMap::new();
        for i in 0..1000u32 {
            m.insert(a(i), i as usize);
        }
        assert!(
            m.slots.len() >= 2 * m.len,
            "table over-full: {} slots for {} entries",
            m.slots.len(),
            m.len
        );
    }
}
