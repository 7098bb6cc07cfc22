//! Measurement helpers: histograms, percentiles, CDFs, counters.
//!
//! Every experiment in the paper reports medians, P90s, or CDFs; this
//! module is the single implementation used across the workspace so all
//! figures are computed identically.

use crate::time::SimTime;

/// A simple exact histogram of `f64` samples.
///
/// Samples are kept (not bucketed) so any percentile is exact; experiment
/// scales here are ≤ a few million samples, for which this is fine.
///
/// # Examples
///
/// ```
/// use yoda_netsim::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     h.record(v);
/// }
/// assert_eq!(h.percentile(50.0), Some(2.0));
/// assert_eq!(h.max(), Some(4.0));
/// assert_eq!(Histogram::new().max(), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<f64>,
    sorted: bool,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Adds a sample.
    pub fn record(&mut self, v: f64) {
        self.samples.push(v);
        self.sorted = false;
    }

    /// Adds a [`SimTime`] sample in milliseconds.
    pub fn record_time_ms(&mut self, t: SimTime) {
        self.record(t.as_micros() as f64 / 1000.0);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Returns the `p`-th percentile (nearest-rank), `0.0 < p <= 100.0`,
    /// or `None` when the histogram is empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        assert!(p > 0.0 && p <= 100.0, "percentile out of range: {p}");
        if self.samples.is_empty() {
            return None;
        }
        self.sort();
        let rank = ((p / 100.0) * self.samples.len() as f64).ceil() as usize;
        self.samples
            .get(rank.clamp(1, self.samples.len()) - 1)
            .copied()
    }

    /// Median (P50), or `None` when empty.
    pub fn median(&mut self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(
            self.samples
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max),
        )
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().copied().fold(f64::INFINITY, f64::min))
    }

    /// Fraction of samples `<= x`, in `[0, 1]`.
    pub fn cdf_at(&mut self, x: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.sort();
        let idx = self.samples.partition_point(|&s| s <= x);
        idx as f64 / self.samples.len() as f64
    }

    /// Read-only access to the raw samples (unsorted order not guaranteed).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v as f64);
        }
        assert_eq!(h.percentile(50.0), Some(50.0));
        assert_eq!(h.percentile(90.0), Some(90.0));
        assert_eq!(h.percentile(100.0), Some(100.0));
        assert_eq!(h.percentile(1.0), Some(1.0));
    }

    #[test]
    fn single_sample() {
        let mut h = Histogram::new();
        h.record(7.5);
        assert_eq!(h.median(), Some(7.5));
        assert_eq!(h.percentile(99.0), Some(7.5));
        assert_eq!(h.min(), Some(7.5));
        assert_eq!(h.max(), Some(7.5));
    }

    #[test]
    fn cdf_at_boundaries() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.record(v);
        }
        assert_eq!(h.cdf_at(0.5), 0.0);
        assert_eq!(h.cdf_at(2.0), 0.5);
        assert_eq!(h.cdf_at(10.0), 1.0);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = Histogram::new();
        a.record(1.0);
        let mut b = Histogram::new();
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!((a.min(), a.max()), (Some(1.0), Some(3.0)));
    }

    #[test]
    fn record_time_ms_converts() {
        let mut h = Histogram::new();
        h.record_time_ms(SimTime::from_millis(151));
        assert_eq!(h.median(), Some(151.0));
    }

    #[test]
    fn empty_histogram_returns_none() {
        let mut h = Histogram::new();
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.median(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }
}
