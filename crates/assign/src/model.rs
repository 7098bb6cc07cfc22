//! Problem definition and constraint validation (paper Table 2, Figure 7).

use std::fmt;

/// One VIP's requirements (Table 2 notation in field docs).
#[derive(Debug, Clone, PartialEq)]
pub struct VipSpec {
    /// `t_v`: total traffic for this VIP (requests/sec or any consistent
    /// load unit).
    pub traffic: f64,
    /// `r_v`: number of L7 rules for this VIP.
    pub rules: u64,
    /// `n_v`: number of instances (replicas) this VIP must be assigned to.
    pub replicas: usize,
    /// `o_v`: over-subscription ratio; `f_v = floor(n_v · o_v)` instance
    /// failures must be tolerable.
    pub oversub: f64,
    /// Current connection count for this VIP (drives the Eq. 6–7
    /// migration budget).
    pub connections: f64,
}

impl VipSpec {
    /// `f_v = floor(n_v · o_v)`, clamped so at least one replica remains.
    pub fn failures_tolerated(&self) -> usize {
        let f = (self.replicas as f64 * self.oversub).floor() as usize;
        f.min(self.replicas.saturating_sub(1))
    }

    /// Traffic carried by each replica after `f_v` failures:
    /// `t_v / (n_v − f_v)` (Eq. 1 numerator).
    pub(crate) fn load_per_replica(&self) -> f64 {
        self.traffic / (self.replicas - self.failures_tolerated()) as f64
    }

    /// Traffic each replica actually carries with all replicas healthy:
    /// `t_v / n_v`. Eq. 1 constrains the failure-adjusted load; what an
    /// instance *observes* (and what Figure 16(d) measures) is this.
    pub(crate) fn actual_load_per_replica(&self) -> f64 {
        self.traffic / self.replicas as f64
    }
}

/// The assignment problem input.
#[derive(Debug, Clone)]
pub struct AssignInput {
    /// The VIPs to place.
    pub vips: Vec<VipSpec>,
    /// `|Y|`: instances available (upper bound on the fleet).
    pub max_instances: usize,
    /// `T_y`: per-instance traffic capacity.
    pub traffic_capacity: f64,
    /// `R_y`: per-instance rule capacity (the 5 ms latency target of §8
    /// translates to 2K rules via Figure 6).
    pub rule_capacity: u64,
    /// δ: max fraction of total connections allowed to migrate in one
    /// update (Eq. 6–7); `None` disables the migration and transient
    /// constraints (the paper's YODA-no-limit variant).
    pub migration_limit: Option<f64>,
    /// The previous assignment (for Eq. 4–7); `None` for a cold start.
    pub previous: Option<Assignment>,
}

/// A VIP→instance assignment: `placement[v]` lists the instance indexes
/// serving VIP `v`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Assignment {
    /// Per-VIP instance lists, sorted ascending.
    pub(crate) placement: Vec<Vec<usize>>,
}

impl Assignment {
    /// Builds from raw lists, normalizing order.
    pub fn new(mut placement: Vec<Vec<usize>>) -> Self {
        for p in &mut placement {
            p.sort_unstable();
            p.dedup();
        }
        Assignment { placement }
    }

    /// Whether VIP `v` is on instance `y`.
    pub(crate) fn assigned(&self, v: usize, y: usize) -> bool {
        self.placement
            .get(v)
            .map(|p| p.binary_search(&y).is_ok())
            .unwrap_or(false)
    }

    /// The set of instances used by any VIP.
    pub(crate) fn instances_used(&self) -> Vec<usize> {
        let mut used: Vec<usize> = self.placement.iter().flatten().copied().collect();
        used.sort_unstable();
        used.dedup();
        used
    }

    /// The objective value: number of instances used.
    pub fn num_instances(&self) -> usize {
        self.instances_used().len()
    }

    /// Per-instance rule counts under this assignment.
    pub fn rules_per_instance(&self, vips: &[VipSpec]) -> Vec<u64> {
        let max = self
            .placement
            .iter()
            .flatten()
            .copied()
            .max()
            .map(|m| m + 1)
            .unwrap_or(0);
        let mut rules = vec![0u64; max];
        for (v, inst) in self.placement.iter().enumerate() {
            for &y in inst {
                rules[y] += vips[v].rules;
            }
        }
        rules
    }

    /// Per-instance failure-adjusted load (Eq. 1 left side).
    pub(crate) fn load_per_instance(&self, vips: &[VipSpec]) -> Vec<f64> {
        let max = self
            .placement
            .iter()
            .flatten()
            .copied()
            .max()
            .map(|m| m + 1)
            .unwrap_or(0);
        let mut load = vec![0.0; max];
        for (v, inst) in self.placement.iter().enumerate() {
            for &y in inst {
                load[y] += vips[v].load_per_replica();
            }
        }
        load
    }

    /// Fraction of connections migrated going from `self` to `next`
    /// (Eq. 6–7): a VIP's per-instance share of connections migrates when
    /// that instance is removed from the VIP.
    pub fn migrated_fraction(&self, next: &Assignment, vips: &[VipSpec]) -> f64 {
        let total: f64 = vips.iter().map(|v| v.connections).sum();
        if total == 0.0 {
            return 0.0;
        }
        let mut migrated = 0.0;
        for (v, spec) in vips.iter().enumerate() {
            let old = self.placement.get(v).cloned().unwrap_or_default();
            if old.is_empty() {
                continue;
            }
            let share = spec.connections / old.len() as f64;
            for y in old {
                if !next.assigned(v, y) {
                    migrated += share;
                }
            }
        }
        migrated / total
    }
}

/// Statistics about an old→new transition (Figure 16 d/e).
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionStats {
    /// Fraction of instances whose transient (max-of-old-and-new) load
    /// exceeds capacity.
    pub overloaded_fraction: f64,
    /// Number of instances transiently overloaded.
    pub(crate) overloaded_instances: usize,
    /// Fraction of connections that migrate.
    pub migrated_fraction: f64,
}

/// Computes transition statistics between two assignments.
pub fn transition_stats(
    old: &Assignment,
    new: &Assignment,
    vips: &[VipSpec],
    traffic_capacity: f64,
) -> TransitionStats {
    let old_load = old.load_per_instance(vips);
    let new_load = new.load_per_instance(vips);
    let n = old_load.len().max(new_load.len());
    let mut overloaded = 0usize;
    let mut active = 0usize;
    for y in 0..n {
        let o = old_load.get(y).copied().unwrap_or(0.0);
        let nw = new_load.get(y).copied().unwrap_or(0.0);
        // Transient load: a mux pool mid-update can send this instance its
        // old VIPs' traffic and its new VIPs' traffic. Measured with the
        // *actual* per-replica shares (t_v/n_v) — the failure-adjusted
        // t_v/(n_v−f_v) is a provisioning constraint, not carried load.
        let transient = transient_actual_load(old, new, vips, y);
        if o > 0.0 || nw > 0.0 {
            active += 1;
            if transient > traffic_capacity * (1.0 + 1e-9) {
                overloaded += 1;
            }
        }
    }
    TransitionStats {
        overloaded_fraction: if active == 0 {
            0.0
        } else {
            overloaded as f64 / active as f64
        },
        overloaded_instances: overloaded,
        migrated_fraction: old.migrated_fraction(new, vips),
    }
}

/// Transient load on instance `y` in Eq. 4–5's failure-adjusted units:
/// Σ_v max(old share, new share).
pub(crate) fn transient_load(
    old: &Assignment,
    new: &Assignment,
    vips: &[VipSpec],
    y: usize,
) -> f64 {
    let mut load = 0.0;
    for (v, spec) in vips.iter().enumerate() {
        let was = old.assigned(v, y);
        let is = new.assigned(v, y);
        if was || is {
            load += spec.load_per_replica();
        }
    }
    load
}

/// Transient load on instance `y` in *actually carried* traffic units
/// (t_v/n_v per replica) — what Figure 16(d)'s overload measurement uses.
pub(crate) fn transient_actual_load(
    old: &Assignment,
    new: &Assignment,
    vips: &[VipSpec],
    y: usize,
) -> f64 {
    let mut load = 0.0;
    for (v, spec) in vips.iter().enumerate() {
        if old.assigned(v, y) || new.assigned(v, y) {
            load += spec.actual_load_per_replica();
        }
    }
    load
}

/// Why an assignment is invalid.
#[derive(Debug, Clone, PartialEq)]
pub enum AssignError {
    /// A VIP has the wrong number of replicas (Eq. 3).
    ReplicaCount {
        /// Offending VIP index.
        vip: usize,
        /// Replicas found.
        got: usize,
        /// Replicas required.
        want: usize,
    },
    /// An instance exceeds traffic capacity (Eq. 1).
    TrafficCapacity {
        /// Offending instance.
        instance: usize,
        /// Failure-adjusted load.
        load: f64,
    },
    /// An instance exceeds rule capacity (Eq. 2).
    RuleCapacity {
        /// Offending instance.
        instance: usize,
        /// Rules placed.
        rules: u64,
    },
    /// An instance exceeds capacity during the transition (Eq. 4–5).
    TransientOverload {
        /// Offending instance.
        instance: usize,
        /// Transient load.
        load: f64,
    },
    /// Too many connections migrate (Eq. 6–7).
    MigrationBudget {
        /// Migrated fraction.
        fraction: f64,
        /// Allowed fraction δ.
        limit: f64,
    },
    /// The instance pool is exhausted.
    Infeasible,
}

impl fmt::Display for AssignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssignError::ReplicaCount { vip, got, want } => {
                write!(f, "vip {vip}: {got} replicas, want {want}")
            }
            AssignError::TrafficCapacity { instance, load } => {
                write!(f, "instance {instance}: load {load:.1} over capacity")
            }
            AssignError::RuleCapacity { instance, rules } => {
                write!(f, "instance {instance}: {rules} rules over capacity")
            }
            AssignError::TransientOverload { instance, load } => {
                write!(
                    f,
                    "instance {instance}: transient load {load:.1} over capacity"
                )
            }
            AssignError::MigrationBudget { fraction, limit } => {
                write!(f, "migrated {fraction:.3} of connections > δ={limit:.3}")
            }
            AssignError::Infeasible => write!(f, "no feasible assignment"),
        }
    }
}

impl std::error::Error for AssignError {}

impl AssignInput {
    /// Validates `assignment` against every constraint of Figure 7.
    pub fn validate(&self, assignment: &Assignment) -> Result<(), AssignError> {
        // Eq. 3: replica counts.
        for (v, spec) in self.vips.iter().enumerate() {
            let got = assignment.placement.get(v).map(|p| p.len()).unwrap_or(0);
            if got != spec.replicas {
                return Err(AssignError::ReplicaCount {
                    vip: v,
                    got,
                    want: spec.replicas,
                });
            }
        }
        // Eq. 1: traffic capacity with failure headroom.
        for (y, load) in assignment.load_per_instance(&self.vips).iter().enumerate() {
            if *load > self.traffic_capacity * (1.0 + 1e-9) {
                return Err(AssignError::TrafficCapacity {
                    instance: y,
                    load: *load,
                });
            }
        }
        // Eq. 2: rule capacity.
        for (y, rules) in assignment.rules_per_instance(&self.vips).iter().enumerate() {
            if *rules > self.rule_capacity {
                return Err(AssignError::RuleCapacity {
                    instance: y,
                    rules: *rules,
                });
            }
        }
        // Eq. 4–7 only bind when there is a previous assignment and a limit.
        if let (Some(prev), Some(delta)) = (&self.previous, self.migration_limit) {
            let n = self.max_instances;
            for y in 0..n {
                let t = transient_load(prev, assignment, &self.vips, y);
                if t > self.traffic_capacity * (1.0 + 1e-9) {
                    // Instances already overloaded before the round are
                    // tolerated (paper §8.2 observes exactly this case).
                    let old_only: f64 = self
                        .vips
                        .iter()
                        .enumerate()
                        .filter(|(v, _)| prev.assigned(*v, y))
                        .map(|(_, s)| s.load_per_replica())
                        .sum();
                    if old_only <= self.traffic_capacity * (1.0 + 1e-9) {
                        return Err(AssignError::TransientOverload {
                            instance: y,
                            load: t,
                        });
                    }
                }
            }
            let fraction = prev.migrated_fraction(assignment, &self.vips);
            if fraction > delta + 1e-9 {
                return Err(AssignError::MigrationBudget {
                    fraction,
                    limit: delta,
                });
            }
        }
        Ok(())
    }

    /// A combinatorial lower bound on the number of instances needed:
    /// max of the traffic bound, the rule bound, and the largest replica
    /// requirement; no feasible assignment uses fewer.
    pub fn lower_bound(&self) -> usize {
        let total_load: f64 = self
            .vips
            .iter()
            .map(|v| v.load_per_replica() * v.replicas as f64)
            .sum();
        let traffic_lb = (total_load / self.traffic_capacity).ceil() as usize;
        let total_rules: u64 = self.vips.iter().map(|v| v.rules * v.replicas as u64).sum();
        let rule_lb = total_rules.div_ceil(self.rule_capacity) as usize;
        let replica_lb = self.vips.iter().map(|v| v.replicas).max().unwrap_or(0);
        traffic_lb.max(rule_lb).max(replica_lb).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vip(traffic: f64, rules: u64, replicas: usize, oversub: f64) -> VipSpec {
        VipSpec {
            traffic,
            rules,
            replicas,
            oversub,
            connections: traffic, // 1 connection per unit traffic
        }
    }

    fn input(vips: Vec<VipSpec>) -> AssignInput {
        AssignInput {
            vips,
            max_instances: 10,
            traffic_capacity: 100.0,
            rule_capacity: 2000,
            migration_limit: None,
            previous: None,
        }
    }

    #[test]
    fn failure_tolerance_math() {
        let v = vip(90.0, 10, 4, 0.5);
        assert_eq!(v.failures_tolerated(), 2);
        assert_eq!(v.load_per_replica(), 45.0);
        // o_v = 0 means no failure headroom.
        let v0 = vip(90.0, 10, 3, 0.0);
        assert_eq!(v0.failures_tolerated(), 0);
        assert_eq!(v0.load_per_replica(), 30.0);
        // f_v can never absorb every replica.
        let v_all = vip(10.0, 1, 2, 1.0);
        assert_eq!(v_all.failures_tolerated(), 1);
    }

    #[test]
    fn validate_accepts_feasible() {
        let inp = input(vec![vip(100.0, 100, 2, 0.0), vip(50.0, 100, 1, 0.0)]);
        // VIP0: 50 load each on instances 0,1; VIP1: 50 on instance 0.
        let a = Assignment::new(vec![vec![0, 1], vec![0]]);
        assert_eq!(inp.validate(&a), Ok(()));
        assert_eq!(a.num_instances(), 2);
    }

    #[test]
    fn validate_rejects_replica_miscount() {
        let inp = input(vec![vip(10.0, 1, 2, 0.0)]);
        let a = Assignment::new(vec![vec![0]]);
        assert!(matches!(
            inp.validate(&a),
            Err(AssignError::ReplicaCount {
                vip: 0,
                got: 1,
                want: 2
            })
        ));
    }

    #[test]
    fn validate_rejects_traffic_overload() {
        let inp = input(vec![vip(300.0, 1, 2, 0.0)]);
        let a = Assignment::new(vec![vec![0, 1]]);
        assert!(matches!(
            inp.validate(&a),
            Err(AssignError::TrafficCapacity { .. })
        ));
    }

    #[test]
    fn validate_rejects_rule_overload() {
        let inp = input(vec![vip(1.0, 1500, 1, 0.0), vip(1.0, 1500, 1, 0.0)]);
        let a = Assignment::new(vec![vec![0], vec![0]]);
        assert!(matches!(
            inp.validate(&a),
            Err(AssignError::RuleCapacity { instance: 0, .. })
        ));
    }

    #[test]
    fn oversub_tightens_capacity() {
        // 2 replicas, tolerate 1 failure: each replica must absorb the
        // whole VIP: load 150 > 100 on one instance.
        let inp = input(vec![vip(150.0, 1, 2, 0.5)]);
        let a = Assignment::new(vec![vec![0, 1]]);
        assert!(matches!(
            inp.validate(&a),
            Err(AssignError::TrafficCapacity { .. })
        ));
    }

    #[test]
    fn migration_fraction_counts_removed_instances() {
        let vips = vec![vip(100.0, 1, 2, 0.0), vip(100.0, 1, 1, 0.0)];
        let old = Assignment::new(vec![vec![0, 1], vec![2]]);
        // VIP0 moves replica 1→3 (half its connections), VIP1 stays.
        let new = Assignment::new(vec![vec![0, 3], vec![2]]);
        let frac = old.migrated_fraction(&new, &vips);
        assert!((frac - 0.25).abs() < 1e-9, "{frac}");
    }

    #[test]
    fn migration_budget_enforced() {
        let vips = vec![vip(100.0, 10, 1, 0.0)];
        let old = Assignment::new(vec![vec![0]]);
        let new = Assignment::new(vec![vec![1]]);
        let inp = AssignInput {
            vips,
            max_instances: 4,
            traffic_capacity: 200.0,
            rule_capacity: 2000,
            migration_limit: Some(0.1),
            previous: Some(old),
        };
        assert!(matches!(
            inp.validate(&new),
            Err(AssignError::MigrationBudget { .. })
        ));
    }

    #[test]
    fn transient_overload_detected() {
        // The VIPs swap instances: steady-state load is fine (60 ≤ 100 on
        // each) but mid-update each instance can see old + new = 120.
        let vips = vec![vip(60.0, 10, 1, 0.0), vip(60.0, 10, 1, 0.0)];
        let old = Assignment::new(vec![vec![0], vec![1]]);
        let new = Assignment::new(vec![vec![1], vec![0]]);
        let inp = AssignInput {
            vips: vips.clone(),
            max_instances: 2,
            traffic_capacity: 100.0,
            rule_capacity: 2000,
            migration_limit: Some(1.0),
            previous: Some(old.clone()),
        };
        assert!(matches!(
            inp.validate(&new),
            Err(AssignError::TransientOverload { .. })
        ));
        let stats = transition_stats(&old, &new, &vips, 100.0);
        assert_eq!(stats.overloaded_instances, 2);
        assert!((stats.migrated_fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lower_bound_dimensions() {
        // Traffic-bound case: 5 VIPs of 60 load → 300 total → ≥3 instances.
        let inp = input(vec![
            vip(60.0, 1, 1, 0.0),
            vip(60.0, 1, 1, 0.0),
            vip(60.0, 1, 1, 0.0),
            vip(60.0, 1, 1, 0.0),
            vip(60.0, 1, 1, 0.0),
        ]);
        assert_eq!(inp.lower_bound(), 3);
        // Rule-bound case.
        let inp2 = input(vec![vip(1.0, 1900, 1, 0.0), vip(1.0, 1900, 1, 0.0)]);
        assert_eq!(inp2.lower_bound(), 2);
        // Replica-bound case.
        let inp3 = input(vec![vip(1.0, 1, 4, 0.0)]);
        assert_eq!(inp3.lower_bound(), 4);
    }
}
