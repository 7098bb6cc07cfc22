//! The byte buffer every packet body rides in, and the panic-free
//! readers and writers for the headers around it.
//!
//! A [`Bytes`] is an immutable view of a reference-counted buffer: clones
//! and [`Bytes::slice`] share the block, so a segment's data is a view of
//! its sender's buffer from socket to socket and no hop copies it.
//!
//! A [`Bytes`] is never written after construction: the headers a hop
//! rewrites ride by value in the packet, outside any buffer (DESIGN.md
//! "Byte path"). [`array_at`], [`put_be`] and [`add_be32`] are the
//! panic-free readers and writers for such headers.
//!
//! Every buffer is one allocation: the reference counts and the bytes
//! share a single `Arc<[u8]>` block. [`Bytes::concat`] and
//! [`Bytes::copy_from_slice`] write that block directly; `From<Vec<u8>>`
//! copies the vector into one, so it belongs on cold paths (set-up,
//! tests, control messages).

// Per-packet vocabulary, inlined across crates (DESIGN.md "Cross-crate inlining").
#![deny(clippy::missing_inline_in_public_items)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable, contiguous slice of memory.
///
/// Clones and [`Bytes::slice`] share one reference-counted backing
/// allocation; no byte is copied after construction.
#[derive(Clone, Default)]
pub struct Bytes {
    /// `None` for the empty buffer, so empty packets (pings, ACKs,
    /// probes — the bulk of simulated control traffic) never allocate a
    /// backing block and their clones and drops touch no atomics.
    /// Otherwise one block holding the counts and the bytes: a fresh
    /// buffer costs one `malloc`, and reading it one pointer hop.
    data: Option<Arc<[u8]>>,
    /// View bounds into `data`. `u32` keeps the struct at 24 bytes —
    /// `Bytes` is embedded in every simulated packet and moved through
    /// the engine's event slab, so its footprint is hot. Simulated
    /// buffers are bounded far below 4 GiB (the whole simulation would
    /// not fit in memory otherwise).
    start: u32,
    end: u32,
}

impl Bytes {
    /// An empty buffer (no allocation).
    #[inline]
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Copies a static slice into one fresh block: a copy, so that every
    /// `Bytes` has the one representation.
    #[inline]
    pub fn from_static(slice: &'static [u8]) -> Self {
        Bytes::copy_from_slice(slice)
    }

    /// Copies `slice` into one fresh block (none when empty).
    #[inline]
    pub fn copy_from_slice(slice: &[u8]) -> Self {
        if slice.is_empty() {
            return Bytes::new();
        }
        Bytes {
            start: 0,
            end: slice.len() as u32,
            data: Some(Arc::from(slice)),
        }
    }

    /// Number of bytes in the view.
    #[inline]
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a new `Bytes` viewing the given sub-range of `self`,
    /// sharing the same backing allocation.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    #[inline]
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(begin <= end && end <= len, "slice out of bounds");
        Bytes {
            data: self.data.clone(),
            start: self.start + begin as u32,
            end: self.start + end as u32,
        }
    }

    /// The bytes as a plain slice.
    #[inline]
    fn as_slice(&self) -> &[u8] {
        self.data
            .as_deref()
            .and_then(|block| block.get(self.start as usize..self.end as usize))
            .unwrap_or(&[])
    }

    /// Copies `parts` back to back into one exact-size block — how a
    /// fixed-layout encoder writes a header array and its parts at once.
    /// The parts are walked twice (to size the block, then to fill it),
    /// hence the `Clone` bound; an array or a slice iterator costs nothing
    /// to clone.
    #[inline]
    pub fn concat<'a, P>(parts: P) -> Bytes
    where
        P: IntoIterator<Item = &'a [u8]>,
        P::IntoIter: Clone,
    {
        let parts = parts.into_iter();
        let len: usize = parts.clone().map(<[u8]>::len).sum();
        if len == 0 {
            return Bytes::new();
        }
        // A `TrustedLen` iterator: the block is allocated once, at its
        // final size, and zeroed in place.
        let mut block: Arc<[u8]> = std::iter::repeat_n(0, len).collect();
        let mut rest = Arc::get_mut(&mut block).unwrap_or_default();
        for part in parts {
            let Some((dst, tail)) = std::mem::take(&mut rest).split_at_mut_checked(part.len())
            else {
                break;
            };
            dst.copy_from_slice(part);
            rest = tail;
        }
        Bytes {
            data: Some(block),
            start: 0,
            end: len as u32,
        }
    }
}

/// Copies `N` bytes starting at `at` out of `b`, or `None` if `b` is too
/// short. The panic-free building block every wire-format decoder in the
/// workspace uses instead of `buf[at..at + N].try_into().unwrap()`.
#[inline]
pub fn array_at<const N: usize>(b: &[u8], at: usize) -> Option<[u8; N]> {
    b.get(at..at.checked_add(N)?)?.try_into().ok()
}

/// Writes `v` over the bytes at `at`; no-op if out of bounds. Header
/// writers size their buffers first (a fixed array, or a frame a decoder
/// already validated), so the guard never fires in practice — it keeps
/// the per-packet paths free of panicking slices.
#[inline]
pub fn put_be(h: &mut [u8], at: usize, v: &[u8]) {
    if let Some(dst) = at.checked_add(v.len()).and_then(|end| h.get_mut(at..end)) {
        dst.copy_from_slice(v);
    }
}

/// Adds `add` (mod 2³²) to the big-endian `u32` at `at`, in place.
#[inline]
pub fn add_be32(h: &mut [u8], at: usize, add: u32) {
    if let Some(cur) = array_at::<4>(h, at) {
        let sum = u32::from_be_bytes(cur).wrapping_add(add);
        put_be(h, at, &sum.to_be_bytes());
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    #[inline]
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Hash for Bytes {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<&str> for Bytes {
    #[inline]
    fn eq(&self, other: &&str) -> bool {
        self.as_slice() == other.as_bytes()
    }
}

/// Copies the vector into one block (cold paths only: see the module docs).
impl From<Vec<u8>> for Bytes {
    #[inline]
    fn from(v: Vec<u8>) -> Self {
        Bytes::copy_from_slice(&v)
    }
}

impl From<String> for Bytes {
    #[inline]
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

/// Collects into one block: allocated once at its final size when the
/// iterator's length is exact (a chain of ranges, repeats and byte
/// slices), else gathered in a vector first and copied.
impl FromIterator<u8> for Bytes {
    #[inline]
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        let block: Arc<[u8]> = iter.into_iter().collect();
        if block.is_empty() {
            return Bytes::new();
        }
        Bytes {
            start: 0,
            end: block.len() as u32,
            data: Some(block),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_share_backing() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let mid = b.slice(1..4);
        assert_eq!(*mid, [2, 3, 4]);
        assert_eq!(*mid.slice(2..), [4]);
        assert!(matches!((&b.data, &mid.data), (Some(x), Some(y)) if Arc::ptr_eq(x, y)));
    }

    #[test]
    fn array_at_bounds() {
        let b = [1u8, 2, 3, 4, 5];
        assert_eq!(array_at::<2>(&b, 0), Some([1, 2]));
        assert_eq!(array_at::<3>(&b, 2), Some([3, 4, 5]));
        assert_eq!(array_at::<3>(&b, 3), None);
        assert_eq!(array_at::<6>(&b, 0), None);
        assert_eq!(array_at::<1>(&b, usize::MAX), None);
    }

    #[test]
    fn header_writers_never_panic() {
        let mut h = [0u8; 6];
        put_be(&mut h, 1, &[0xAA, 0xBB]);
        put_be(&mut h, 5, &[1, 2]); // would overrun: no-op
        put_be(&mut h, usize::MAX, &[1]);
        assert_eq!(h, [0, 0xAA, 0xBB, 0, 0, 0]);
        put_be(&mut h, 2, &0xFFFF_FFFFu32.to_be_bytes());
        add_be32(&mut h, 2, 3); // wraps mod 2^32
        add_be32(&mut h, 3, 1); // would overrun: no-op
        assert_eq!(h, [0, 0xAA, 0, 0, 0, 2]);
    }

    #[test]
    fn concat_fills_one_exact_block() {
        // Two words of block pointer and length, two `u32` view bounds.
        assert_eq!(std::mem::size_of::<Bytes>(), 24);
        let b = Bytes::concat([&b"head"[..], b"", b"body"]);
        assert_eq!(*b, *b"headbody");
        assert_eq!(b.data.as_deref().map(<[u8]>::len), Some(8));
        // No bytes: no block at all.
        assert!(Bytes::concat([&b""[..]]).data.is_none());
        assert!(Bytes::concat([]).data.is_none());
    }

    #[test]
    fn from_vec_copies_by_value() {
        let v = vec![5u8; 1000];
        let from_vec = Bytes::from(v.clone());
        assert_eq!(*from_vec, *v);
        assert_eq!(from_vec, Bytes::copy_from_slice(&v));
        assert_eq!(Bytes::from(Vec::new()), Bytes::new());
    }

    #[test]
    fn eq_against_str() {
        let b = Bytes::from_static(b"hello");
        assert_eq!(b, "hello");
        assert_ne!(b, "hell");
    }
}
