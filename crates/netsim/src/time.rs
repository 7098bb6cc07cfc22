//! Simulated time.
//!
//! The simulator counts integer **microseconds** from the start of the run.
//! Integer time avoids floating-point drift and makes event ordering exact,
//! which is a prerequisite for deterministic replay.

// Per-packet vocabulary, inlined across crates (DESIGN.md "Cross-crate inlining").
#![deny(clippy::missing_inline_in_public_items)]

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// A point in (or duration of) simulated time, in microseconds.
///
/// `SimTime` is used both as an absolute timestamp (microseconds since the
/// start of the simulation) and as a duration; the arithmetic operators
/// treat it uniformly. All arithmetic is saturating-free and will panic on
/// overflow in debug builds, which in practice never happens: `u64`
/// microseconds cover ~580,000 years.
///
/// # Examples
///
/// ```
/// use yoda_netsim::SimTime;
///
/// let t = SimTime::from_millis(600);
/// assert_eq!(t.as_micros(), 600_000);
/// assert_eq!(t + SimTime::from_millis(400), SimTime::from_secs(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The zero timestamp (start of the simulation).
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable time; useful as an "infinite" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates a time from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates a time from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Creates a time from fractional seconds, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration: {s}");
        SimTime((s * 1e6).round() as u64)
    }

    /// Returns the value in microseconds.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the value in whole milliseconds (truncating).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the value in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction: returns `self - other` or zero.
    #[inline]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Returns the maximum of two times.
    #[inline]
    pub(crate) fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl core::ops::Mul<u64> for SimTime {
    type Output = SimTime;

    #[inline]
    fn mul(self, factor: u64) -> SimTime {
        SimTime(self.0 * factor)
    }
}

impl Add for SimTime {
    type Output = SimTime;

    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;

    /// A negative span is a caller bug: debug builds (every test) panic
    /// on it, and a release run, which no packet may crash, saturates
    /// at zero. Use [`SimTime::saturating_sub`] when the ordering is not
    /// guaranteed.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        debug_assert!(rhs <= self, "SimTime subtraction underflow");
        self.saturating_sub(rhs)
    }
}

impl fmt::Display for SimTime {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2_000));
        assert_eq!(SimTime::from_millis(3), SimTime::from_micros(3_000));
        assert_eq!(SimTime::from_secs_f64(0.0005), SimTime::from_micros(500));
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_millis(300);
        let b = SimTime::from_millis(600);
        assert_eq!(a + a, b);
        assert_eq!(b - a, a);
        assert_eq!(a.saturating_sub(b), SimTime::ZERO);
        assert_eq!(a * 4, SimTime::from_micros(1_200_000));
    }

    #[test]
    fn min_max() {
        let a = SimTime::from_millis(1);
        let b = SimTime::from_millis(2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::from_millis(1) - SimTime::from_millis(2);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", SimTime::from_micros(7)), "7us");
        assert_eq!(format!("{}", SimTime::from_micros(1500)), "1.500ms");
        assert_eq!(format!("{}", SimTime::from_millis(2500)), "2.500s");
    }

    #[test]
    fn seconds_roundtrip() {
        let t = SimTime::from_secs_f64(1.25);
        assert!((t.as_secs_f64() - 1.25).abs() < 1e-9);
    }
}
