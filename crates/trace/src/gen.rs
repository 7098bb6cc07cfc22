//! Trace synthesis.

use yoda_netsim::Rng;

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Number of VIPs (paper: 100+).
    pub(crate) num_vips: usize,
    /// Time bins (paper: 24 h at 10-minute granularity = 144).
    pub(crate) bins: usize,
    /// Seconds per bin.
    pub(crate) bin_secs: u64,
    /// Approximate total rule count across VIPs (paper: 50K+).
    pub(crate) total_rules: u64,
    /// Zipf exponent for per-VIP traffic volumes.
    pub(crate) zipf_alpha: f64,
    /// Peak aggregate traffic across all VIPs (req/s) at the diurnal peak.
    pub(crate) peak_total_traffic: f64,
    /// RNG seed.
    pub(crate) seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            num_vips: 110,
            bins: 144,
            bin_secs: 600,
            total_rules: 52_000,
            zipf_alpha: 1.1,
            peak_total_traffic: 600_000.0,
            seed: 20160418, // EuroSys'16 presentation day
        }
    }
}

/// One VIP's 24-hour series.
#[derive(Debug, Clone, PartialEq)]
pub struct VipTrace {
    /// L7 rule count for this VIP.
    pub(crate) rules: u64,
    /// Per-bin average traffic (req/s).
    pub traffic: Vec<f64>,
    /// Per-bin concurrent connection counts.
    pub(crate) connections: Vec<f64>,
}

impl VipTrace {
    /// max/average traffic ratio over the day (Figure 15's metric).
    pub(crate) fn max_avg_ratio(&self) -> f64 {
        let avg = self.traffic.iter().sum::<f64>() / self.traffic.len() as f64;
        if avg == 0.0 {
            return 1.0;
        }
        let max = self.traffic.iter().copied().fold(0.0f64, f64::max);
        max / avg
    }

    /// Mean traffic over the day.
    pub fn mean_traffic(&self) -> f64 {
        self.traffic.iter().sum::<f64>() / self.traffic.len() as f64
    }
}

/// A full synthetic trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Per-VIP series, sorted by decreasing mean traffic (Figure 15's
    /// x-axis order).
    pub vips: Vec<VipTrace>,
    /// Seconds per bin.
    pub(crate) bin_secs: u64,
}

impl Trace {
    /// Synthesizes a trace.
    ///
    /// # Panics
    ///
    /// Panics if `num_vips` or `bins` is zero.
    pub fn generate(cfg: &TraceConfig) -> Trace {
        assert!(cfg.num_vips > 0 && cfg.bins > 0, "empty trace config");
        let mut rng = Rng::seed_from_u64(cfg.seed);
        // Zipf volume shares.
        let weights: Vec<f64> = (1..=cfg.num_vips)
            .map(|k| 1.0 / (k as f64).powf(cfg.zipf_alpha))
            .collect();
        let wsum: f64 = weights.iter().sum();
        // Rules: heavy-tailed but independent of traffic rank (a tenant's
        // rule count tracks its URL/cookie space, not its volume — §9),
        // normalized to the target total.
        let mut rules_raw: Vec<f64> = (0..cfg.num_vips)
            .map(|_| rng.gen_range(0.3..3.0f64).powi(2))
            .collect();
        let rsum: f64 = rules_raw.iter().sum();
        for r in &mut rules_raw {
            // Clamped to [10, 1800]: a single VIP's rules must fit within
            // an instance's 2K-rule capacity or no assignment exists (the
            // paper's trace is feasible under R_y = 2K by construction).
            *r = (*r / rsum * cfg.total_rules as f64).clamp(10.0, 1800.0);
        }
        let mut vips = Vec::with_capacity(cfg.num_vips);
        for v in 0..cfg.num_vips {
            let base = cfg.peak_total_traffic * weights[v] / wsum / 2.0;
            // Diurnal profile: head VIPs move gently (ratios near 1.07–2);
            // tail VIPs are burstier and a third of them get flash crowds
            // (ratios up to ~50) — matching Figure 15's spread.
            let rank_frac = v as f64 / cfg.num_vips as f64;
            let amplitude = rng.gen_range(0.05..0.30) + rank_frac * rng.gen_range(0.1..0.6);
            let phase = rng.gen_range(0.0..std::f64::consts::TAU);
            let noise = 0.03 + rank_frac * 0.10;
            let flash = rank_frac > 0.30 && rng.gen_bool(0.35);
            let flash_bin = rng.gen_range(0..cfg.bins);
            let flash_width = rng.gen_range(1..=4);
            let flash_height = rng.gen_range(5.0..52.0);
            let mut traffic = Vec::with_capacity(cfg.bins);
            for b in 0..cfg.bins {
                let t = b as f64 / cfg.bins as f64 * std::f64::consts::TAU;
                let diurnal = 1.0 + amplitude * (t + phase).sin();
                let jitter = 1.0 + noise * (rng.gen_f64() * 2.0 - 1.0);
                let mut val = base * diurnal * jitter;
                if flash && (b as i64 - flash_bin as i64).unsigned_abs() < flash_width {
                    val += base * flash_height;
                }
                traffic.push(val.max(0.1));
            }
            // Connections ≈ traffic × mean flow duration (~1 s).
            let connections = traffic
                .iter()
                .map(|t| t * rng.gen_range(0.8..1.4))
                .collect();
            vips.push(VipTrace {
                rules: rules_raw[v].round() as u64,
                traffic,
                connections,
            });
        }
        vips.sort_by(|a, b| {
            b.mean_traffic()
                .partial_cmp(&a.mean_traffic())
                .expect("finite traffic")
        });
        Trace {
            vips,
            bin_secs: cfg.bin_secs,
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.vips.first().map(|v| v.traffic.len()).unwrap_or(0)
    }

    /// Total rules across VIPs.
    pub fn total_rules(&self) -> u64 {
        self.vips.iter().map(|v| v.rules).sum()
    }

    /// Per-VIP max/avg ratios in VIP order (Figure 15's series).
    pub fn max_avg_ratios(&self) -> Vec<f64> {
        self.vips.iter().map(|v| v.max_avg_ratio()).collect()
    }

    /// Mean of the per-VIP max/avg ratios (the paper's 3.7× headline).
    pub fn mean_max_avg_ratio(&self) -> f64 {
        let r = self.max_avg_ratios();
        r.iter().sum::<f64>() / r.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Trace {
        Trace::generate(&TraceConfig::default())
    }

    #[test]
    fn scale_matches_paper() {
        let t = small();
        assert!(t.vips.len() >= 100, "100+ VIPs");
        assert_eq!(t.bins(), 144, "24h of 10-min bins");
        assert!(
            t.total_rules() >= 50_000,
            "50K+ rules, got {}",
            t.total_rules()
        );
    }

    #[test]
    fn ratio_spread_matches_figure_15() {
        let t = small();
        let ratios = t.max_avg_ratios();
        let min = ratios.iter().copied().fold(f64::INFINITY, f64::min);
        let max = ratios.iter().copied().fold(0.0f64, f64::max);
        let mean = t.mean_max_avg_ratio();
        assert!(min > 1.0 && min < 1.6, "min ratio {min}");
        assert!(max > 15.0 && max < 60.0, "max ratio {max}");
        assert!(mean > 2.0 && mean < 6.0, "mean ratio {mean} (paper: 3.7)");
    }

    #[test]
    fn sorted_by_decreasing_traffic() {
        let t = small();
        for w in t.vips.windows(2) {
            assert!(w[0].mean_traffic() >= w[1].mean_traffic());
        }
        // Zipf: the head VIP dominates the tail VIP.
        let head = t.vips.first().unwrap().mean_traffic();
        let tail = t.vips.last().unwrap().mean_traffic();
        assert!(head > tail * 20.0);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = small();
        let b = small();
        assert_eq!(a, b);
        let c = Trace::generate(&TraceConfig {
            seed: 999,
            ..TraceConfig::default()
        });
        assert_ne!(a, c);
    }

    #[test]
    fn traffic_always_positive() {
        let t = small();
        for v in &t.vips {
            for &x in &v.traffic {
                assert!(x > 0.0);
            }
        }
    }
}
