//! Synthetic production traffic trace (paper §8 *Setup*).
//!
//! The paper's simulation is driven by "a traffic trace [from a]
//! production cloud \[that\] consists of all flows received by the
//! Internet-facing services in a 24-hour period (during a weekday). The
//! trace consists of 100+ VIPs and 50K+ L7 rules", with VIP assignment
//! recomputed every 10 minutes (144 bins).
//!
//! That trace is proprietary; [`Trace::generate`] synthesizes an
//! equivalent whose *statistics* match what Figures 15–16 depend on:
//!
//! * Zipf-distributed per-VIP traffic volumes (a few heavy hitters, a
//!   long tail),
//! * per-VIP diurnal sinusoids with randomized phase plus noise,
//! * flash-crowd spikes on a subset of tail VIPs,
//! * per-VIP max/average ratios spanning ≈1.07×–50× with a mean around
//!   3.7× (the paper's headline cost-reduction figure),
//! * rule counts summing past 50K, heavier for bigger tenants.
//!
//! The trace is a pure function of the constants below (seed included),
//! so every experiment runs on the identical trace; [`assign_input_for_bin`]
//! turns one bin into the [`AssignInput`] of the Figure 16 update study.

use yoda_netsim::Rng;

use crate::model::{AssignInput, Assignment, VipSpec};

/// Number of VIPs (paper: 100+).
const VIPS: usize = 110;
/// Time bins: 24 h at 10-minute granularity.
const BINS: usize = 144;
/// Approximate total rule count across VIPs (paper: 50K+).
const TOTAL_RULES: f64 = 52_000.0;
/// Zipf exponent for per-VIP traffic volumes.
const ZIPF_ALPHA: f64 = 1.1;
/// Peak aggregate traffic across all VIPs (req/s) at the diurnal peak.
const PEAK_TOTAL_TRAFFIC: f64 = 600_000.0;
/// RNG seed (the EuroSys'16 presentation day).
const SEED: u64 = 20160418;

/// `T_y`: per-instance traffic capacity; one Yoda instance serves about
/// 12K req/s (§7.1).
pub const TRAFFIC_CAPACITY: f64 = 12_000.0;
/// `R_y`: per-instance rule capacity ("the target latency due to YODA
/// \[is\] 5 msec, which translates into 2K rules", §8.2).
const RULE_CAPACITY: u64 = 2_000;
/// Replica multiplier: `n_v = ceil(4 · t_v / T_y)` ("each VIP gets 4x
/// more replicas by using YODA as a shared service", §8.2).
const REPLICAS_FACTOR: f64 = 4.0;
/// `o_v` for every VIP.
const OVERSUB: f64 = 0.25;
/// `|Y|`: the instance pool.
const MAX_INSTANCES: usize = 512;

/// One VIP's 24-hour series.
#[derive(Debug, Clone, PartialEq)]
pub struct VipTrace {
    /// L7 rule count for this VIP.
    rules: u64,
    /// Per-bin average traffic (req/s).
    pub traffic: Vec<f64>,
    /// Per-bin concurrent connection counts.
    connections: Vec<f64>,
}

impl VipTrace {
    /// max/average traffic ratio over the day (Figure 15's metric).
    fn max_avg_ratio(&self) -> f64 {
        let avg = self.mean_traffic();
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

/// The synthetic 24-hour trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Per-VIP series, sorted by decreasing mean traffic (Figure 15's
    /// x-axis order).
    pub vips: Vec<VipTrace>,
}

impl Trace {
    /// Synthesizes the trace.
    pub fn generate() -> Trace {
        let mut rng = Rng::seed_from_u64(SEED);
        // Zipf volume shares.
        let weights: Vec<f64> = (1..=VIPS)
            .map(|k| 1.0 / (k as f64).powf(ZIPF_ALPHA))
            .collect();
        let wsum: f64 = weights.iter().sum();
        // Rules: heavy-tailed but independent of traffic rank (a tenant's
        // rule count tracks its URL/cookie space, not its volume — §9),
        // normalized to the target total.
        let mut rules_raw: Vec<f64> = (0..VIPS)
            .map(|_| rng.gen_range(0.3..3.0f64).powi(2))
            .collect();
        let rsum: f64 = rules_raw.iter().sum();
        for r in &mut rules_raw {
            // Clamped to [10, 1800]: a single VIP's rules must fit within
            // an instance's 2K-rule capacity or no assignment exists (the
            // paper's trace is feasible under R_y = 2K by construction).
            *r = (*r / rsum * TOTAL_RULES).clamp(10.0, 1800.0);
        }
        let mut vips = Vec::with_capacity(VIPS);
        for v in 0..VIPS {
            let base = PEAK_TOTAL_TRAFFIC * weights[v] / wsum / 2.0;
            // Diurnal profile: head VIPs move gently (ratios near 1.07–2);
            // tail VIPs are burstier and a third of them get flash crowds
            // (ratios up to ~50) — matching Figure 15's spread.
            let rank_frac = v as f64 / VIPS as f64;
            let amplitude = rng.gen_range(0.05..0.30) + rank_frac * rng.gen_range(0.1..0.6);
            let phase = rng.gen_range(0.0..std::f64::consts::TAU);
            let noise = 0.03 + rank_frac * 0.10;
            let flash = rank_frac > 0.30 && rng.gen_bool(0.35);
            let flash_bin = rng.gen_range(0..BINS);
            let flash_width = rng.gen_range(1..=4);
            let flash_height = rng.gen_range(5.0..52.0);
            let mut traffic = Vec::with_capacity(BINS);
            for b in 0..BINS {
                let t = b as f64 / BINS as f64 * std::f64::consts::TAU;
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
        Trace { vips }
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

/// Builds the [`AssignInput`] for one 10-minute bin under §8.2's
/// settings: `R_y` = 2K rules, `n_v = ceil(4 · t_v / T_y)`, `o_v` = 0.25
/// and a pool of 512 instances.
///
/// `migration_limit` is δ (Eq. 6–7; §8.2 uses 10 %, `None` is
/// YODA-no-limit) and `previous` the prior round's assignment (Eq. 4–7
/// context).
pub fn assign_input_for_bin(
    trace: &Trace,
    bin: usize,
    migration_limit: Option<f64>,
    previous: Option<Assignment>,
) -> AssignInput {
    let vips = trace
        .vips
        .iter()
        .map(|v| {
            let t = v.traffic[bin];
            let min_replicas = (REPLICAS_FACTOR * t / TRAFFIC_CAPACITY).ceil();
            VipSpec {
                traffic: t,
                rules: v.rules,
                replicas: (min_replicas as usize).max(1),
                oversub: OVERSUB,
                connections: v.connections[bin],
            }
        })
        .collect();
    AssignInput {
        vips,
        max_instances: MAX_INSTANCES,
        traffic_capacity: TRAFFIC_CAPACITY,
        rule_capacity: RULE_CAPACITY,
        migration_limit,
        previous,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_matches_paper() {
        let t = Trace::generate();
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
        let t = Trace::generate();
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
        let t = Trace::generate();
        for w in t.vips.windows(2) {
            assert!(w[0].mean_traffic() >= w[1].mean_traffic());
        }
        // Zipf: the head VIP dominates the tail VIP.
        let head = t.vips.first().unwrap().mean_traffic();
        let tail = t.vips.last().unwrap().mean_traffic();
        assert!(head > tail * 20.0);
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(Trace::generate(), Trace::generate());
    }

    #[test]
    fn traffic_always_positive() {
        let t = Trace::generate();
        for v in &t.vips {
            for &x in &v.traffic {
                assert!(x > 0.0);
            }
        }
    }

    #[test]
    fn bin_conversion_matches_paper_settings() {
        let trace = Trace::generate();
        let input = assign_input_for_bin(&trace, 0, Some(0.10), None);
        assert_eq!(input.vips.len(), trace.vips.len());
        for (spec, vt) in input.vips.iter().zip(&trace.vips) {
            assert_eq!(spec.traffic, vt.traffic[0]);
            assert_eq!(spec.rules, vt.rules);
            assert!(spec.replicas >= 1);
            // n_v = ceil(4 t / T).
            let expect = ((4.0 * vt.traffic[0] / 12_000.0).ceil() as usize).max(1);
            assert_eq!(spec.replicas, expect);
        }
        assert_eq!(input.rule_capacity, 2_000);
        assert_eq!(input.migration_limit, Some(0.10));
    }
}
