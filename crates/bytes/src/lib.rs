//! Hermetic, in-tree replacement for the `bytes` crate.
//!
//! Yoda's build must succeed with no network access (DESIGN.md,
//! "Determinism invariants"), so the workspace cannot pull `bytes` from a
//! registry. This crate re-implements exactly the subset of the `bytes`
//! 1.x API the workspace uses — [`Bytes`], [`BytesMut`], and the
//! [`BufMut`] write trait — with the same semantics (cheap clones and
//! zero-copy slicing via a shared, immutable backing buffer).
//!
//! It is intentionally *not* a drop-in for all of `bytes`: no `Buf` read
//! trait, no vectored IO, no `split`-and-unsplit tricks. If a new call
//! site needs more surface, add it here rather than reaching for the
//! registry crate.
//!
//! One thing it has that `bytes` does not: headroom. A [`Bytes`] view may
//! start past the front of its allocation ([`Bytes::with_headroom`],
//! [`Bytes::advance`]), and a sole owner may grow the view back over that
//! room to write a header in place ([`Bytes::try_prepend`]) — how a packet
//! crosses router, mux and instance in the buffer its sender wrote
//! (DESIGN.md "Byte path"). [`put_be`] and [`add_be32`] are the
//! panic-free writers for such headers.

#![deny(warnings)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
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
    /// The block is the written `Vec` itself: `freeze` moves it, no copy.
    data: Option<Arc<Vec<u8>>>,
    /// View bounds into `data`. `u32` keeps the struct at 16 bytes —
    /// `Bytes` is embedded in every simulated packet and moved through
    /// the engine's event slab, so its footprint is hot. Simulated
    /// buffers are bounded far below 4 GiB (the whole simulation would
    /// not fit in memory otherwise).
    start: u32,
    end: u32,
}

impl Bytes {
    /// An empty buffer (no allocation).
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Wraps a static slice. (The name mirrors `bytes::Bytes::from_static`;
    /// this implementation copies once into a shared allocation, trading
    /// the copy for a much simpler representation.)
    pub fn from_static(slice: &'static [u8]) -> Self {
        Bytes::copy_from_slice(slice)
    }

    /// Copies `slice` into a fresh shared allocation (none when empty).
    pub fn copy_from_slice(slice: &[u8]) -> Self {
        Bytes::from(slice.to_vec())
    }

    /// Number of bytes in the view.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a new `Bytes` viewing the given sub-range of `self`,
    /// sharing the same backing allocation.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
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

    /// Splits off and returns the first `at` bytes; `self` keeps the rest.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        let head = self.slice(..at);
        self.start += at as u32;
        head
    }

    /// Splits off and returns everything from `at` on; `self` keeps the
    /// first `at` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_off(&mut self, at: usize) -> Bytes {
        let tail = self.slice(at..);
        self.end = self.start + at as u32;
        tail
    }

    /// The bytes as a plain slice.
    pub fn as_slice(&self) -> &[u8] {
        match &self.data {
            Some(data) => data
                .get(self.start as usize..self.end as usize)
                .unwrap_or(&[]),
            None => &[],
        }
    }

    /// Drops the first `n` bytes from the view without touching the
    /// reference count (`split_to` minus the returned head). Decoders pop a
    /// header this way; the bytes stay in the allocation, in front of the
    /// view, where [`Bytes::try_prepend`] can write the next header.
    ///
    /// # Panics
    ///
    /// Panics if `n > len`.
    #[inline]
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance out of bounds");
        self.start += n as u32;
    }

    /// Copies `parts` back to back into a fresh allocation with `room`
    /// spare bytes in front of the view — the copy a sender (or any hop
    /// holding a shared or room-less buffer) pays once so that every later
    /// hop can [`Bytes::try_prepend`] its header in place.
    pub fn with_headroom(room: usize, parts: &[&[u8]]) -> Bytes {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        let mut v = Vec::with_capacity(room + len);
        v.resize(room, 0);
        for part in parts {
            v.extend_from_slice(part);
        }
        let mut b = Bytes::from(v);
        b.start = room as u32;
        b
    }

    /// Grows the view backwards over the `header.len()` bytes just in
    /// front of it and writes `header` there — the skb/mbuf "push". Works
    /// only when this handle is the *only* reference to the allocation
    /// (nobody else can be looking at those bytes) and the room exists;
    /// otherwise returns `false` and leaves `self` untouched, and the
    /// caller takes its copy branch ([`Bytes::with_headroom`]).
    #[must_use]
    #[inline]
    pub fn try_prepend(&mut self, header: &[u8]) -> bool {
        let old = self.start as usize;
        let Some(new) = old.checked_sub(header.len()) else {
            return false;
        };
        let Some(room) = self
            .data
            .as_mut()
            .and_then(Arc::get_mut)
            .and_then(|buf| buf.get_mut(new..old))
        else {
            return false;
        };
        room.copy_from_slice(header);
        self.start = new as u32;
        true
    }

    /// Mutable access to the viewed bytes when this handle is the *only*
    /// reference to the backing allocation; `None` when the buffer is
    /// shared (or empty). Lets hot paths patch a few header bytes of a
    /// packet they own without copying the payload — the caller falls
    /// back to a copy when sharing makes in-place mutation unsound.
    pub fn try_mut(&mut self) -> Option<&mut [u8]> {
        let (start, end) = (self.start as usize, self.end as usize);
        Arc::get_mut(self.data.as_mut()?)?.get_mut(start..end)
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
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for Bytes {
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
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}
impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}
impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}
impl<const N: usize> PartialEq<&[u8; N]> for Bytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}
impl PartialEq<str> for Bytes {
    fn eq(&self, other: &str) -> bool {
        self.as_slice() == other.as_bytes()
    }
}
impl PartialEq<&str> for Bytes {
    fn eq(&self, other: &&str) -> bool {
        self.as_slice() == other.as_bytes()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        if v.is_empty() {
            return Bytes::new();
        }
        Bytes {
            start: 0,
            end: v.len() as u32,
            data: Some(Arc::new(v)),
        }
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

impl From<BytesMut> for Bytes {
    fn from(m: BytesMut) -> Self {
        m.freeze()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A growable byte buffer, frozen into a [`Bytes`] when complete.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty buffer with `cap` bytes pre-allocated.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Ensures space for `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, slice: &[u8]) {
        self.data.extend_from_slice(slice);
    }

    /// Removes all bytes.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Splits off and returns the first `at` bytes; `self` keeps the rest.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        let rest = self.data.split_off(at);
        let head = std::mem::replace(&mut self.data, rest);
        BytesMut { data: head }
    }

    /// Takes the entire buffer, leaving `self` empty.
    pub fn split(&mut self) -> BytesMut {
        BytesMut {
            data: std::mem::take(&mut self.data),
        }
    }

    /// Splits off and returns everything from `at` on.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_off(&mut self, at: usize) -> BytesMut {
        BytesMut {
            data: self.data.split_off(at),
        }
    }

    /// Converts the accumulated bytes into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }

    /// The bytes as a plain slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesMut({:?})", Bytes::copy_from_slice(&self.data))
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(v: Vec<u8>) -> Self {
        BytesMut { data: v }
    }
}

impl From<&[u8]> for BytesMut {
    fn from(s: &[u8]) -> Self {
        BytesMut { data: s.to_vec() }
    }
}

impl Extend<u8> for BytesMut {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        self.data.extend(iter);
    }
}

/// Big-endian append-style writes, mirroring `bytes::BufMut`.
pub trait BufMut {
    /// Appends a raw slice.
    fn put_slice(&mut self, slice: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a big-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, slice: &[u8]) {
        self.data.extend_from_slice(slice);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, slice: &[u8]) {
        self.extend_from_slice(slice);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_and_split_share_backing() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let mid = b.slice(1..4);
        assert_eq!(mid, [2, 3, 4]);
        let mut c = b.clone();
        let head = c.split_to(2);
        assert_eq!(head, [1, 2]);
        assert_eq!(c, [3, 4, 5]);
        let tail = c.split_off(1);
        assert_eq!(c, [3]);
        assert_eq!(tail, [4, 5]);
    }

    #[test]
    fn bytes_mut_round_trip() {
        let mut m = BytesMut::with_capacity(16);
        m.put_u8(0xAB);
        m.put_u16(0x0102);
        m.put_u32(0x03040506);
        m.put_u64(0x0708090A0B0C0D0E);
        m.extend_from_slice(b"xy");
        let frozen = m.freeze();
        assert_eq!(
            frozen,
            [
                0xAB, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0A, 0x0B, 0x0C,
                0x0D, 0x0E, b'x', b'y'
            ]
        );
    }

    #[test]
    fn split_to_on_mut() {
        let mut m = BytesMut::from(&b"abcdef"[..]);
        let head = m.split_to(2);
        assert_eq!(head.as_slice(), b"ab");
        assert_eq!(m.as_slice(), b"cdef");
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
    fn try_mut_only_when_unique() {
        let mut b = Bytes::from(vec![1u8, 2, 3, 4]);
        b.try_mut().unwrap()[0] = 9;
        assert_eq!(b, [9, 2, 3, 4]);
        // A live clone shares the allocation: no mutable access.
        let c = b.clone();
        assert!(b.try_mut().is_none());
        drop(c);
        // Unique again; a sub-slice patches within its own view.
        let mut tail = b.slice(2..);
        drop(b);
        tail.try_mut().unwrap()[0] = 7;
        assert_eq!(tail, [7, 4]);
        assert!(Bytes::new().try_mut().is_none());
    }

    #[test]
    fn prepend_in_place_only_when_unique_with_room() {
        let mut b = Bytes::with_headroom(4, &[b"ab", b"cd"]);
        assert_eq!(b, b"abcd");
        let body = b.as_slice().as_ptr();
        // More than the room: refused, untouched.
        assert!(!b.try_prepend(b"12345"));
        assert_eq!(b, b"abcd");
        // A live clone shares the allocation: refused, neither side moves.
        let c = b.clone();
        assert!(!b.try_prepend(b"hh"));
        assert_eq!(b, b"abcd");
        assert_eq!(c, b"abcd");
        drop(c);
        // Unique with room: the header lands just in front, the body stays put.
        assert!(b.try_prepend(b"hh"));
        assert_eq!(b, b"hhabcd");
        assert_eq!(b.as_slice()[2..].as_ptr(), body);
        // `advance` pops it again and frees exactly that room.
        b.advance(2);
        assert_eq!(b, b"abcd");
        assert!(b.try_prepend(b"HHHH"));
        assert_eq!(b, b"HHHHabcd");
        assert!(!b.try_prepend(b"x"), "room exhausted");
        // No allocation, no room; an empty view keeps its allocation.
        assert!(!Bytes::new().try_prepend(b"x"));
        b.advance(8);
        assert!(b.is_empty());
        assert!(b.try_prepend(b"abcd"));
        assert_eq!(b, b"abcd");
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
    fn freeze_shares_the_written_allocation() {
        assert_eq!(std::mem::size_of::<Bytes>(), 16);
        let mut m = BytesMut::with_capacity(64);
        m.extend_from_slice(b"header+payload");
        let written = m.as_slice().as_ptr();
        let mut frozen = m.freeze();
        assert_eq!(frozen.as_slice().as_ptr(), written, "freeze must not copy");
        let v = vec![5u8; 1000];
        let p = v.as_ptr();
        assert_eq!(
            Bytes::from(v).as_slice().as_ptr(),
            p,
            "From<Vec> must not copy"
        );
        // Sole owner after freeze: patchable in place; not while a slice lives.
        frozen.try_mut().expect("unique after freeze")[0] = b'H';
        let tail = frozen.slice(7..);
        assert!(frozen.try_mut().is_none());
        drop(tail);
        assert_eq!(frozen.try_mut().map(|b| b[0]), Some(b'H'));
    }

    #[test]
    fn eq_against_str_and_slices() {
        let b = Bytes::from_static(b"hello");
        assert_eq!(b, "hello");
        assert_eq!(b, b"hello");
        assert_eq!(b, &b"hello"[..]);
    }
}
