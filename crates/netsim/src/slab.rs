//! Dense slab of values behind checked handles.
//!
//! Per-connection state that its owner names by handle (a TCP stack's
//! sockets, named by `ConnId`) needs no hash table: a [`Slab`] stores the
//! values in fixed pages and hands out a [`SlabKey`] that indexes them
//! directly — no probe, and no bucket array sized to the peak that holds
//! a whole value per bucket.
//!
//! * **Pages, not one vector.** Values live in pages of [`PAGE_LEN`]
//!   entries. Only the first page grows by reallocation (up to a page);
//!   later pages are allocated at full size, so the slab never moves a
//!   large block and never leaves one behind for the allocator to hold.
//! * **Slots are reused, newest first.** A removed slot goes on an
//!   intrusive free list and the next insert takes it.
//! * **Stale handles miss.** A key carries its slot and the insert's
//!   serial — 1 for the first value the slab ever held, 2 for the next —
//!   and a lookup answers only while that slot still holds that insert.
//!   Serials are 32 bits and wrap: a handle kept across 2^32 inserts
//!   could alias. Keys order by serial, so a table keyed by them walks
//!   in insert order.

/// Entries per page.
pub const PAGE_LEN: usize = 256;
const PAGE_SHIFT: u32 = PAGE_LEN.trailing_zeros();

/// Marks the end of the free list.
const NO_SLOT: u32 = u32::MAX;

/// A handle to one value in a [`Slab`]: the insert's serial in the high
/// half, its slot in the low half.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlabKey(u64);

impl SlabKey {
    fn new(slot: u32, serial: u32) -> Self {
        SlabKey(u64::from(serial) << 32 | u64::from(slot))
    }

    /// Which insert made this key: 1 for the slab's first, and so on.
    pub fn serial(self) -> u32 {
        (self.0 >> 32) as u32
    }

    fn slot(self) -> u32 {
        self.0 as u32
    }

    /// The key as one word (to ride in a timer token).
    pub fn to_bits(self) -> u64 {
        self.0
    }

    /// A key from [`SlabKey::to_bits`]. Any word is accepted: one that no
    /// insert handed out simply finds nothing.
    pub fn from_bits(bits: u64) -> Self {
        SlabKey(bits)
    }
}

enum Entry<T> {
    Vacant { next_free: u32 },
    Occupied { serial: u32, value: T },
}

/// Values in fixed pages, addressed by [`SlabKey`]; see the module docs.
///
/// # Examples
///
/// ```
/// use yoda_netsim::Slab;
///
/// let mut slab = Slab::new();
/// let a = slab.insert("a");
/// assert_eq!((slab.get(a), a.serial()), (Some(&"a"), 1));
/// assert_eq!(slab.remove(a), Some("a"));
/// let b = slab.insert("b");
/// assert_eq!(slab.get(a), None, "a's slot now holds b");
/// assert_eq!((slab.get(b), b.serial()), (Some(&"b"), 2));
/// ```
pub struct Slab<T> {
    pages: Vec<Vec<Entry<T>>>,
    free_head: u32,
    len: usize,
    inserts: u32,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            pages: Vec::new(),
            free_head: NO_SLOT,
            len: 0,
            inserts: 0,
        }
    }
}

impl<T> Slab<T> {
    /// Creates an empty slab (allocates nothing until the first insert).
    pub fn new() -> Self {
        Slab::default()
    }

    /// Number of values held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the slab holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn entry(&self, slot: u32) -> Option<&Entry<T>> {
        let page = self.pages.get((slot >> PAGE_SHIFT) as usize)?;
        page.get(slot as usize % PAGE_LEN)
    }

    fn entry_mut(&mut self, slot: u32) -> Option<&mut Entry<T>> {
        let page = self.pages.get_mut((slot >> PAGE_SHIFT) as usize)?;
        page.get_mut(slot as usize % PAGE_LEN)
    }

    /// Stores `value` in the most recently freed slot, or a new one.
    pub fn insert(&mut self, value: T) -> SlabKey {
        self.inserts = self.inserts.wrapping_add(1);
        self.len += 1;
        let serial = self.inserts;
        let slot = self.free_head;
        if let Some(entry) = self.entry_mut(slot) {
            if let Entry::Vacant { next_free } = *entry {
                *entry = Entry::Occupied { serial, value };
                self.free_head = next_free;
                return SlabKey::new(slot, serial);
            }
        }
        if self.pages.last().is_none_or(|p| p.len() == PAGE_LEN) {
            // The first page grows as a vector does; later ones are born
            // at their final size.
            let cap = if self.pages.is_empty() { 0 } else { PAGE_LEN };
            self.pages.push(Vec::with_capacity(cap));
        }
        let mut slot = (self.pages.len() - 1) * PAGE_LEN;
        if let Some(page) = self.pages.last_mut() {
            slot += page.len();
            page.push(Entry::Occupied { serial, value });
        }
        SlabKey::new(slot as u32, serial)
    }

    /// The value `key` was handed out for, while it is still there.
    #[inline]
    pub fn get(&self, key: SlabKey) -> Option<&T> {
        match self.entry(key.slot())? {
            Entry::Occupied { serial, value } if *serial == key.serial() => Some(value),
            _ => None,
        }
    }

    /// Mutable access to the value `key` was handed out for.
    #[inline]
    pub fn get_mut(&mut self, key: SlabKey) -> Option<&mut T> {
        match self.entry_mut(key.slot())? {
            Entry::Occupied { serial, value } if *serial == key.serial() => Some(value),
            _ => None,
        }
    }

    /// Takes the value out and frees its slot; `None` for a stale key.
    pub fn remove(&mut self, key: SlabKey) -> Option<T> {
        self.get(key)?;
        let next_free = self.free_head;
        let entry = self.entry_mut(key.slot())?;
        let Entry::Occupied { value, .. } = std::mem::replace(entry, Entry::Vacant { next_free })
        else {
            return None;
        };
        self.free_head = key.slot();
        self.len -= 1;
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_reused_newest_first_and_stale_keys_miss() {
        let mut s = Slab::new();
        let keys: Vec<SlabKey> = (0..4).map(|i| s.insert(i)).collect();
        assert_eq!(
            keys.iter().map(|k| k.slot()).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
        assert_eq!(s.remove(keys[1]), Some(1));
        assert_eq!(s.remove(keys[2]), Some(2));
        assert_eq!(s.remove(keys[2]), None, "removed twice");
        let (x, y) = (s.insert(10), s.insert(11));
        assert_eq!((x.slot(), y.slot()), (2, 1));
        assert_eq!((x.serial(), y.serial()), (5, 6));
        assert_eq!((s.get(keys[2]), s.get(x)), (None, Some(&10)));
        assert_eq!(s.len(), 4);
        assert!(x < y && keys[3] < x, "keys order by serial");
    }

    #[test]
    fn pages_after_the_first_are_born_full_size() {
        let mut s = Slab::new();
        let keys: Vec<SlabKey> = (0..PAGE_LEN * 3 + 1).map(|i| s.insert(i)).collect();
        assert_eq!(s.pages.len(), 4);
        assert!(s.pages.iter().all(|p| p.capacity() == PAGE_LEN));
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(s.get(*k), Some(&i));
        }
        assert_eq!(s.get(SlabKey::from_bits(u64::MAX)), None);
        assert_eq!(s.get(SlabKey::from_bits(keys[9].to_bits())), Some(&9));
    }
}
