//! The all-to-all baseline (paper §4.4, §8.2).
//!
//! Every VIP (and all of its rules) is assigned to every instance. This
//! gives maximal robustness and the minimum possible instance count — "the
//! total traffic divided by traffic capacity of each instance" — but every
//! instance must store *all* rules, which inflates per-lookup latency
//! (Figure 6). Figure 16(b,c) compares Yoda's many-to-many assignment
//! against this scheme.

use crate::model::{AssignInput, Assignment};

/// Result of the all-to-all computation.
#[derive(Debug, Clone, PartialEq)]
pub struct AllToAll {
    /// The assignment (every VIP on every used instance).
    pub(crate) assignment: Assignment,
    /// Instances used: `ceil(total_traffic / capacity)`.
    pub instances: usize,
    /// Rules per instance: the total rule count across all VIPs.
    pub rules_per_instance: u64,
}

/// Computes the all-to-all baseline.
///
/// Note: all-to-all ignores per-VIP replica requirements (`n_v`) — every
/// VIP is on every instance by construction — and provides no failure
/// headroom beyond the shared pool.
pub fn all_to_all(input: &AssignInput) -> AllToAll {
    let total_traffic: f64 = input.vips.iter().map(|v| v.traffic).sum();
    let instances = (total_traffic / input.traffic_capacity).ceil().max(1.0) as usize;
    let everyone: Vec<usize> = (0..instances).collect();
    let placement = vec![everyone; input.vips.len()];
    let rules_per_instance = input.vips.iter().map(|v| v.rules).sum();
    AllToAll {
        assignment: Assignment::new(placement),
        instances,
        rules_per_instance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::VipSpec;

    fn vip(traffic: f64, rules: u64) -> VipSpec {
        VipSpec {
            traffic,
            rules,
            replicas: 1,
            oversub: 0.0,
            connections: traffic,
        }
    }

    #[test]
    fn instance_count_is_traffic_over_capacity() {
        let input = AssignInput {
            vips: vec![vip(120.0, 500), vip(90.0, 700), vip(40.0, 300)],
            max_instances: 100,
            traffic_capacity: 100.0,
            rule_capacity: 2000,
            migration_limit: None,
            previous: None,
        };
        let out = all_to_all(&input);
        assert_eq!(out.instances, 3); // 250 / 100 → 3
        assert_eq!(out.rules_per_instance, 1500);
        assert_eq!(out.assignment.num_instances(), 3);
        for p in &out.assignment.placement {
            assert_eq!(p.len(), 3, "every VIP on every instance");
        }
    }

    #[test]
    fn at_least_one_instance() {
        let input = AssignInput {
            vips: vec![vip(0.5, 10)],
            max_instances: 10,
            traffic_capacity: 100.0,
            rule_capacity: 2000,
            migration_limit: None,
            previous: None,
        };
        assert_eq!(all_to_all(&input).instances, 1);
    }
}
