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
//! The trace is a pure function of its [`TraceConfig`] (seed included),
//! so an experiment re-runs on the identical trace; it converts per-bin
//! into [`AssignInput`]s for the Figure 16 update study.

#![forbid(unsafe_code)]
#![expect(
    clippy::indexing_slicing,
    clippy::expect_used,
    reason = "an offline trace generator over per-bin arrays it sizes itself; no packet or timer handler calls it"
)]

mod gen;
mod scenario;

pub use gen::{Trace, TraceConfig, VipTrace};
pub use scenario::{AdaptiveScenario, BurstyLoad};

use yoda_assign::{AssignInput, Assignment, VipSpec};

/// Parameters for turning one trace bin into an assignment problem
/// (paper §8.2 settings in the field docs).
#[derive(Debug, Clone, Copy)]
pub struct AssignParams {
    /// `T_y`: per-instance traffic capacity.
    pub traffic_capacity: f64,
    /// `R_y`: per-instance rule capacity ("the target latency due to YODA
    /// \[is\] 5 msec, which translates into 2K rules", §8.2).
    pub rule_capacity: u64,
    /// Replica multiplier: `n_v = ceil(factor · t_v / T_y)` ("each VIP
    /// gets 4x more replicas by using YODA as a shared service", §8.2).
    pub replicas_factor: f64,
    /// `o_v` for every VIP.
    pub oversub: f64,
    /// δ migration budget ("we set the limit on the number of flows to be
    /// migrated to 10%"); `None` = YODA-no-limit.
    pub migration_limit: Option<f64>,
    /// Upper bound on the instance pool.
    pub max_instances: usize,
}

impl Default for AssignParams {
    fn default() -> Self {
        AssignParams {
            traffic_capacity: 12_000.0, // one Yoda instance ≈ 12K req/s (§7.1)
            rule_capacity: 2_000,
            replicas_factor: 4.0,
            oversub: 0.25,
            migration_limit: Some(0.10),
            max_instances: 512,
        }
    }
}

/// Builds the [`AssignInput`] for one 10-minute bin.
///
/// `previous` carries the prior round's assignment (Eq. 4–7 context).
pub fn assign_input_for_bin(
    trace: &Trace,
    bin: usize,
    params: &AssignParams,
    previous: Option<Assignment>,
) -> AssignInput {
    let vips = trace
        .vips
        .iter()
        .map(|v| {
            let t = v.traffic[bin];
            let min_replicas = (params.replicas_factor * t / params.traffic_capacity).ceil();
            VipSpec {
                traffic: t,
                rules: v.rules,
                replicas: (min_replicas as usize).max(1),
                oversub: params.oversub,
                connections: v.connections[bin],
            }
        })
        .collect();
    AssignInput {
        vips,
        max_instances: params.max_instances,
        traffic_capacity: params.traffic_capacity,
        rule_capacity: params.rule_capacity,
        migration_limit: params.migration_limit,
        previous,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_conversion_matches_paper_settings() {
        let trace = Trace::generate(&TraceConfig {
            num_vips: 20,
            ..TraceConfig::default()
        });
        let params = AssignParams::default();
        let input = assign_input_for_bin(&trace, 0, &params, None);
        assert_eq!(input.vips.len(), 20);
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
