//! RFC 793 sequence-number arithmetic.
//!
//! TCP sequence numbers live on a modulo-2³² circle; comparisons are only
//! meaningful between numbers less than 2³¹ apart. Yoda's tunneling phase
//! is built on exactly this arithmetic: a fixed offset `C − S` between the
//! client-side and server-side sequence spaces is added/subtracted on every
//! forwarded segment (paper Figure 4), and it must compose correctly across
//! the wrap point. The `u32` inside is private and nothing returns it, so
//! no code outside this module can do non-modular arithmetic on a
//! sequence number: it goes through the operators below, or not at all.

// Per-packet vocabulary, inlined across crates (DESIGN.md "Cross-crate inlining").
#![deny(clippy::missing_inline_in_public_items)]

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// A TCP sequence number with wrapping arithmetic.
///
/// # Examples
///
/// ```
/// use yoda_tcp::SeqNum;
///
/// let near_wrap = SeqNum::new(u32::MAX - 1);
/// let after = near_wrap + 3;
/// assert_eq!(after, SeqNum::new(1));
/// assert!(near_wrap.lt(after));
/// assert_eq!(after - near_wrap, 3);
/// assert_eq!(after - 3, near_wrap);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SeqNum(u32);

impl SeqNum {
    /// Wraps a raw `u32` as a sequence number.
    #[inline]
    pub const fn new(v: u32) -> Self {
        SeqNum(v)
    }

    /// The wire form: big-endian, as in a TCP header.
    #[inline]
    pub const fn to_be_bytes(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// Modular "less than": true when `self` is before `other` on the
    /// sequence circle (forward distance in (0, 2³¹)). Numbers exactly
    /// 2³¹ apart are unordered (RFC 1982's undefined case): comparing
    /// them is false in *both* directions, keeping `lt` asymmetric
    /// instead of claiming each precedes the other.
    #[inline]
    pub fn lt(self, other: SeqNum) -> bool {
        let forward = other.0.wrapping_sub(self.0);
        forward != 0 && forward < 1 << 31
    }

    /// Modular "less than or equal".
    #[inline]
    pub fn le(self, other: SeqNum) -> bool {
        self == other || self.lt(other)
    }

    /// Modular "greater than".
    #[inline]
    pub fn gt(self, other: SeqNum) -> bool {
        other.lt(self)
    }

    /// Modular "greater than or equal".
    #[inline]
    pub fn ge(self, other: SeqNum) -> bool {
        other.le(self)
    }

    /// True when `self ∈ [lo, hi)` on the circle.
    #[inline]
    pub fn in_range(self, lo: SeqNum, hi: SeqNum) -> bool {
        lo.le(self) && self.lt(hi)
    }

    /// Returns the signed translation offset that maps `from`-space numbers
    /// into `self`-space: `translate = x + self.offset_from(from)`.
    ///
    /// This is Yoda's `C − S` (client ISN minus server ISN).
    #[inline]
    pub fn offset_from(self, from: SeqNum) -> u32 {
        self.0.wrapping_sub(from.0)
    }

    /// Applies a translation offset produced by [`SeqNum::offset_from`].
    #[inline]
    pub fn translate(self, offset: u32) -> SeqNum {
        SeqNum(self.0.wrapping_add(offset))
    }
}

impl Add<u32> for SeqNum {
    type Output = SeqNum;

    #[inline]
    fn add(self, rhs: u32) -> SeqNum {
        SeqNum(self.0.wrapping_add(rhs))
    }
}

impl AddAssign<u32> for SeqNum {
    #[inline]
    fn add_assign(&mut self, rhs: u32) {
        self.0 = self.0.wrapping_add(rhs);
    }
}

impl Sub<u32> for SeqNum {
    type Output = SeqNum;

    /// Steps back `rhs` on the circle.
    #[inline]
    fn sub(self, rhs: u32) -> SeqNum {
        SeqNum(self.0.wrapping_sub(rhs))
    }
}

impl Sub for SeqNum {
    type Output = u32;

    /// Distance from `rhs` forward to `self` on the circle.
    #[inline]
    fn sub(self, rhs: SeqNum) -> u32 {
        self.0.wrapping_sub(rhs.0)
    }
}

impl fmt::Display for SeqNum {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for SeqNum {
    #[inline]
    fn from(v: u32) -> Self {
        SeqNum(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparisons_across_wrap() {
        let a = SeqNum::new(u32::MAX - 10);
        let b = SeqNum::new(5);
        assert!(a.lt(b));
        assert!(b.gt(a));
        assert!(a.le(a));
        assert!(a.ge(a));
        assert!(!b.lt(a));
    }

    #[test]
    fn in_range_wrapping_window() {
        let lo = SeqNum::new(u32::MAX - 2);
        let hi = SeqNum::new(3);
        assert!(SeqNum::new(u32::MAX).in_range(lo, hi));
        assert!(SeqNum::new(0).in_range(lo, hi));
        assert!(SeqNum::new(2).in_range(lo, hi));
        assert!(!SeqNum::new(3).in_range(lo, hi));
        assert!(!SeqNum::new(100).in_range(lo, hi));
    }

    #[test]
    fn translation_is_bijective() {
        // Yoda rewrites server seq S-space -> client C-space with offset
        // C - S, and client acks C-space -> S-space with the negated offset.
        let c = SeqNum::new(0xDEAD_BEEF);
        let s = SeqNum::new(0x0000_1234);
        let c_from_s = c.offset_from(s);
        let s_from_c = s.offset_from(c);
        let x = SeqNum::new(0x0000_2000); // some server-space seq
        assert_eq!(x.translate(c_from_s).translate(s_from_c), x);
    }

    #[test]
    fn distance_subtraction() {
        assert_eq!(SeqNum::new(10) - SeqNum::new(3), 7);
        assert_eq!(SeqNum::new(2) - SeqNum::new(u32::MAX), 3);
    }

    #[test]
    fn add_wraps() {
        let mut s = SeqNum::new(u32::MAX);
        s += 2;
        assert_eq!(s, SeqNum::new(1));
        assert_eq!(SeqNum::new(u32::MAX) + 1, SeqNum::new(0));
    }

    #[test]
    fn sub_wraps() {
        assert_eq!(SeqNum::new(1) - 2, SeqNum::new(u32::MAX));
        assert_eq!(SeqNum::new(0) - 1 + 1, SeqNum::new(0));
    }

    #[test]
    fn wire_form_is_big_endian() {
        assert_eq!(SeqNum::new(0x0102_0304).to_be_bytes(), [1, 2, 3, 4]);
    }
}
