//! Sample statistics: medians over repeats, latency percentiles over the
//! measured window, and the process's memory high-water mark.

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics when `values` is empty: every metric has at least one pass.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The samples a histogram gained since it held `len_at_start` of them.
/// Take this slice before asking the histogram for any percentile:
/// `Histogram::percentile` sorts in place, after which positions no
/// longer tell which samples the window added.
pub fn window_samples(samples: &[f64], len_at_start: usize) -> &[f64] {
    samples.get(len_at_start..).unwrap_or(&[])
}

/// Nearest-rank `p`-th percentile of already sorted samples, 0 when
/// there are none.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted
        .get(rank.clamp(1, sorted.len().max(1)) - 1)
        .copied()
        .unwrap_or(0.0)
}

/// The highest of the usual tail percentiles that still has at least ten
/// of `n` samples beyond it, `None` below 20 samples.
pub fn supported_tail(n: usize) -> Option<f64> {
    // (percentile, one sample in this many lies beyond it)
    [
        (99.99, 10_000),
        (99.9, 1_000),
        (99.0, 100),
        (95.0, 20),
        (90.0, 10),
        (75.0, 4),
        (50.0, 2),
    ]
    .into_iter()
    .find(|&(_, one_in)| n >= 10 * one_in)
    .map(|(p, _)| p)
}

/// `VmRSS` and `VmHWM` of this process in MiB, from `/proc/self/status`.
pub fn rss_and_peak_mb() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map_or(0.0, |kb| kb / 1024.0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn window_slice_then_percentile() {
        // 5 ramp samples, then the window's 1..=200 in shuffled order.
        let mut samples = vec![9_000.0; 5];
        samples.extend((1..=200).map(|i| ((i * 37) % 200 + 1) as f64));
        let mut window = window_samples(&samples, 5).to_vec();
        assert_eq!(window.len(), 200);
        window.sort_by(f64::total_cmp);
        assert_eq!(percentile(&window, 50.0), 100.0);
        assert_eq!(percentile(&window, 99.0), 198.0);
        assert_eq!(percentile(&window, 100.0), 200.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
        assert!(window_samples(&samples, 500).is_empty());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(100_000), Some(99.99));
    }

    #[test]
    fn reads_own_memory() {
        let (rss, peak) = rss_and_peak_mb();
        assert!(rss > 0.0 && peak >= rss, "rss {rss} peak {peak}");
    }
}
