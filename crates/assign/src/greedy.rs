//! Migration-aware greedy assignment with local search.
//!
//! The workhorse solver for trace-scale inputs (100+ VIPs, 144 rounds a
//! day). Strategy:
//!
//! 1. Sort VIPs by per-replica load, heaviest first (first-fit-decreasing,
//!    the classic bin-packing heuristic). Only when that order finds no
//!    placement at any δ does the solver retry it all with the VIPs that
//!    take the most instances, then the most rules, first: where Eq. 2's
//!    rule capacity binds, a heavy VIP placed early can take the only
//!    room a many-replica VIP had.
//! 2. For each VIP, keep as many of its *previous* instances as remain
//!    feasible (minimizing Eq. 6–7 migration), then fill the remaining
//!    replicas with the least-loaded feasible open instances; open a new
//!    instance only when none fits.
//! 3. Local search: repeatedly try to drain the least-loaded instance by
//!    re-homing its VIP replicas onto other open instances.
//! 4. If the migration budget δ is exceeded, relax δ in +10% steps and
//!    retry — the paper's fallback ("we increased the limit by increments
//!    of 10%", §8.2).

use crate::model::{AssignError, AssignInput, Assignment, VipSpec};

/// Rounds of drain-one-instance local search.
const LOCAL_SEARCH_ROUNDS: usize = 200;
/// δ relaxation step when the migration budget is infeasible (§8.2).
const DELTA_STEP: f64 = 0.10;
/// Maximum δ relaxations before giving up.
const MAX_DELTA_STEPS: usize = 10;

/// Result metadata alongside the assignment.
#[derive(Debug, Clone)]
pub struct GreedyOutcome {
    /// The assignment produced.
    pub assignment: Assignment,
    /// The δ actually used (≥ the requested δ when relaxation was needed).
    pub effective_delta: Option<f64>,
}

struct Fleet<'a> {
    input: &'a AssignInput,
    load: Vec<f64>,
    rules: Vec<u64>,
    /// Fixed transient load contributed by *old* VIPs of each instance.
    old_load: Vec<f64>,
    /// New-assignment load on each instance from VIPs not previously there
    /// (the variable part of the Eq. 4–5 transient sum).
    new_only: Vec<f64>,
    open: Vec<bool>,
}

impl<'a> Fleet<'a> {
    fn new(input: &'a AssignInput) -> Self {
        let n = input.max_instances;
        let mut old_load = vec![0.0; n];
        if let Some(prev) = &input.previous {
            for (v, spec) in input.vips.iter().enumerate() {
                if let Some(p) = prev.placement.get(v) {
                    for &y in p {
                        if y < n {
                            old_load[y] += spec.load_per_replica();
                        }
                    }
                }
            }
        }
        Fleet {
            input,
            load: vec![0.0; n],
            rules: vec![0; n],
            old_load,
            new_only: vec![0.0; n],
            open: vec![false; n],
        }
    }

    /// Whether `spec` fits on instance `y`, honouring Eq. 1–2 and (when a
    /// previous assignment exists and a limit is set) Eq. 4–5 transient
    /// capacity.
    fn fits(&self, spec: &VipSpec, v: usize, y: usize) -> bool {
        let l = spec.load_per_replica();
        if self.load[y] + l > self.input.traffic_capacity * (1.0 + 1e-12) {
            return false;
        }
        if self.rules[y] + spec.rules > self.input.rule_capacity {
            return false;
        }
        if self.input.migration_limit.is_some() {
            if let Some(prev) = &self.input.previous {
                // Transient load: old VIPs still hitting y + new VIPs on y.
                // A VIP in both old and new contributes once.
                let already_old = prev.assigned(v, y);
                let extra = if already_old { 0.0 } else { l };
                let transient = self.old_load[y] + self.new_only_load(y) + extra;
                // Tolerate instances that were already overloaded (paper
                // §8.2 observes these).
                if transient > self.input.traffic_capacity * (1.0 + 1e-12)
                    && self.old_load[y] <= self.input.traffic_capacity * (1.0 + 1e-12)
                {
                    return false;
                }
            }
        }
        true
    }

    /// New-assignment load on `y` from VIPs *not* previously on `y`.
    fn new_only_load(&self, y: usize) -> f64 {
        // Tracked incrementally in `new_only`; see place().
        self.new_only[y]
    }

    fn place(&mut self, spec: &VipSpec, v: usize, y: usize) {
        self.load[y] += spec.load_per_replica();
        self.rules[y] += spec.rules;
        self.open[y] = true;
        let was_old = self
            .input
            .previous
            .as_ref()
            .map(|p| p.assigned(v, y))
            .unwrap_or(false);
        if !was_old {
            self.new_only[y] += spec.load_per_replica();
        }
    }
}

/// Solves with the greedy + local-search strategy.
///
/// Honours all Figure 7 constraints; relaxes δ in +10% increments while the
/// migration budget is what fails.
///
/// `shuffle_seed` perturbs instance ordering when no migration limit is
/// set, emulating an unconstrained optimizer's solution churn between
/// rounds (the paper's YODA-no-limit migrates a median 44.9% of
/// connections precisely because nothing anchors the solution).
pub fn solve_greedy(
    input: &AssignInput,
    shuffle_seed: Option<u64>,
) -> Result<GreedyOutcome, AssignError> {
    relaxing(input, shuffle_seed, Order::Load)
        .or_else(|e| relaxing(input, shuffle_seed, Order::Footprint).map_err(|_| e))
}

/// The order VIPs are placed in.
#[derive(Clone, Copy)]
enum Order {
    /// Per-replica load, heaviest first (first-fit-decreasing).
    Load,
    /// Most replicas first, then most rules, then heaviest.
    Footprint,
}

/// One placement order through every δ relaxation.
fn relaxing(
    input: &AssignInput,
    shuffle_seed: Option<u64>,
    order: Order,
) -> Result<GreedyOutcome, AssignError> {
    let mut delta = input.migration_limit;
    for step in 0..=MAX_DELTA_STEPS {
        let relaxed = AssignInput {
            migration_limit: delta,
            ..input.clone()
        };
        match attempt(&relaxed, shuffle_seed, order) {
            Ok(assignment) => {
                return Ok(GreedyOutcome {
                    assignment,
                    effective_delta: delta,
                });
            }
            // Only the migration budget (Eq. 6–7, which binds only with a
            // previous placement) reads δ's value; every other failure would
            // repeat at any δ.
            Err(AssignError::MigrationBudget { .. }) if step < MAX_DELTA_STEPS => {
                delta = delta.map(|d| d + DELTA_STEP);
            }
            Err(e) => return Err(e),
        }
    }
    Err(AssignError::Infeasible)
}

fn attempt(
    input: &AssignInput,
    shuffle_seed: Option<u64>,
    order: Order,
) -> Result<Assignment, AssignError> {
    let mut fleet = Fleet::new(input);
    let mut vips: Vec<usize> = (0..input.vips.len()).collect();
    vips.sort_by(|&a, &b| {
        let (a, b) = (&input.vips[a], &input.vips[b]);
        let by_load = b
            .load_per_replica()
            .partial_cmp(&a.load_per_replica())
            .expect("finite loads");
        match order {
            Order::Load => by_load,
            Order::Footprint => b
                .replicas
                .cmp(&a.replicas)
                .then(b.rules.cmp(&a.rules))
                .then(by_load),
        }
    });
    let mut placement = vec![Vec::new(); input.vips.len()];
    for &v in &vips {
        let spec = &input.vips[v];
        let mut chosen: Vec<usize> = Vec::with_capacity(spec.replicas);
        // 1. Stickiness: keep previous instances that still fit. Always
        //    on under a migration budget; in shuffled (no-limit) mode a
        //    seed-dependent half of the VIPs is re-placed from scratch,
        //    emulating an unconstrained optimizer's partial solution
        //    churn between rounds.
        let sticky = match (input.migration_limit.is_some(), shuffle_seed) {
            (true, _) => true,
            (false, Some(seed)) => {
                yoda_hash(seed ^ (v as u64).wrapping_mul(0xA5A5)).is_multiple_of(2)
            }
            (false, None) => true,
        };
        if let (Some(prev), true) = (&input.previous, sticky) {
            if let Some(old) = prev.placement.get(v) {
                for &y in old {
                    if chosen.len() >= spec.replicas {
                        break;
                    }
                    if y < input.max_instances && !chosen.contains(&y) && fleet.fits(spec, v, y) {
                        fleet.place(spec, v, y);
                        chosen.push(y);
                    }
                }
            }
        }
        // 2. Fill remaining replicas: least-loaded open instance first,
        //    then the first closed instance.
        while chosen.len() < spec.replicas {
            let candidate = best_candidate(&fleet, spec, v, &chosen, input, shuffle_seed);
            match candidate {
                Some(y) => {
                    fleet.place(spec, v, y);
                    chosen.push(y);
                }
                None => return Err(AssignError::Infeasible),
            }
        }
        chosen.sort_unstable();
        placement[v] = chosen;
    }
    let mut assignment = Assignment::new(placement);
    local_search(input, &mut assignment);
    input.validate(&assignment)?;
    Ok(assignment)
}

/// Least-loaded feasible open instance, else the lowest-index closed one.
/// Under a shuffle seed (no-limit mode) open instances are scanned
/// first-fit in a seed-determined order instead.
fn best_candidate(
    fleet: &Fleet<'_>,
    spec: &VipSpec,
    v: usize,
    exclude: &[usize],
    input: &AssignInput,
    shuffle_seed: Option<u64>,
) -> Option<usize> {
    if let Some(seed) = shuffle_seed {
        // First fit over a seed-shuffled order of the open instances.
        let mut order: Vec<usize> = (0..input.max_instances)
            .filter(|&y| fleet.open[y])
            .collect();
        order.sort_by_key(|&y| {
            yoda_hash(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (y as u64).wrapping_mul(0xD6E8))
        });
        for y in order {
            if !exclude.contains(&y) && fleet.fits(spec, v, y) {
                return Some(y);
            }
        }
    } else {
        let mut best: Option<(f64, usize)> = None;
        for y in 0..input.max_instances {
            if exclude.contains(&y) || !fleet.open[y] || !fleet.fits(spec, v, y) {
                continue;
            }
            let key = fleet.load[y];
            if best.map(|(l, _)| key < l).unwrap_or(true) {
                best = Some((key, y));
            }
        }
        if let Some((_, y)) = best {
            return Some(y);
        }
    }
    (0..input.max_instances)
        .find(|&y| !fleet.open[y] && !exclude.contains(&y) && fleet.fits(spec, v, y))
}

/// splitmix64 finalizer for deterministic shuffling.
fn yoda_hash(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Tries to empty lightly-loaded instances by re-homing their replicas.
fn local_search(input: &AssignInput, assignment: &mut Assignment) {
    for _ in 0..LOCAL_SEARCH_ROUNDS {
        let used = assignment.instances_used();
        if used.len() <= 1 {
            return;
        }
        let loads = assignment.load_per_instance(&input.vips);
        // Candidate to drain: least-loaded used instance.
        let &victim = used
            .iter()
            .min_by(|&&a, &&b| loads[a].partial_cmp(&loads[b]).expect("finite loads"))
            .expect("non-empty");
        // Try to move every replica off the victim.
        let mut trial = assignment.clone();
        let mut ok = true;
        for v in 0..input.vips.len() {
            if !trial.assigned(v, victim) {
                continue;
            }
            // Find an alternative instance for this replica.
            let mut moved = false;
            for &y in &used {
                if y == victim || trial.assigned(v, y) {
                    continue;
                }
                let mut candidate = trial.clone();
                let pos = candidate.placement[v]
                    .iter()
                    .position(|&i| i == victim)
                    .expect("assigned");
                candidate.placement[v][pos] = y;
                candidate.placement[v].sort_unstable();
                if input.validate(&candidate).is_ok() {
                    trial = candidate;
                    moved = true;
                    break;
                }
            }
            if !moved {
                ok = false;
                break;
            }
        }
        if ok && trial.num_instances() < assignment.num_instances() {
            *assignment = trial;
        } else {
            return; // No further improvement.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vip(traffic: f64, rules: u64, replicas: usize) -> VipSpec {
        VipSpec {
            traffic,
            rules,
            replicas,
            oversub: 0.0,
            connections: traffic,
        }
    }

    fn base_input(vips: Vec<VipSpec>) -> AssignInput {
        AssignInput {
            vips,
            max_instances: 50,
            traffic_capacity: 100.0,
            rule_capacity: 2000,
            migration_limit: None,
            previous: None,
        }
    }

    #[test]
    fn packs_within_constraints() {
        let input = base_input(vec![
            vip(70.0, 500, 1),
            vip(60.0, 500, 1),
            vip(40.0, 500, 1),
            vip(30.0, 500, 1),
        ]);
        let out = solve_greedy(&input, None).unwrap();
        assert!(input.validate(&out.assignment).is_ok());
        // 200 total load / 100 per instance = 2 needed.
        assert_eq!(out.assignment.num_instances(), 2);
        assert_eq!(out.assignment.num_instances(), input.lower_bound());
    }

    #[test]
    fn rule_capacity_forces_spread() {
        let input = base_input(vec![
            vip(1.0, 1500, 1),
            vip(1.0, 1500, 1),
            vip(1.0, 1500, 1),
        ]);
        let out = solve_greedy(&input, None).unwrap();
        assert_eq!(
            out.assignment.num_instances(),
            3,
            "rules don't fit together"
        );
    }

    #[test]
    fn replicas_spread_across_instances() {
        let input = base_input(vec![vip(90.0, 100, 3)]);
        let out = solve_greedy(&input, None).unwrap();
        assert_eq!(out.assignment.placement[0].len(), 3);
        assert_eq!(out.assignment.num_instances(), 3);
    }

    #[test]
    fn sticks_to_previous_assignment() {
        let vips = vec![vip(50.0, 100, 1), vip(50.0, 100, 1)];
        let prev = Assignment::new(vec![vec![5], vec![7]]);
        let input = AssignInput {
            previous: Some(prev.clone()),
            migration_limit: Some(0.1),
            ..base_input(vips)
        };
        let out = solve_greedy(&input, None).unwrap();
        // Zero migration achievable: must keep both VIPs in place.
        assert_eq!(
            prev.migrated_fraction(&out.assignment, &input.vips),
            0.0,
            "placement: {:?}",
            out.assignment.placement
        );
    }

    #[test]
    fn delta_relaxation_when_forced_to_migrate() {
        // Previous instance can no longer hold the VIP (rules grew), so
        // migration is forced; δ=0 must relax upward (paper's +10% steps).
        let vips = vec![vip(50.0, 1900, 1), vip(50.0, 1900, 1)];
        let prev = Assignment::new(vec![vec![0], vec![0]]);
        let input = AssignInput {
            previous: Some(prev),
            migration_limit: Some(0.0),
            ..base_input(vips)
        };
        let out = solve_greedy(&input, None).unwrap();
        assert!(input.vips.len() == 2);
        assert!(out.effective_delta.unwrap() > 0.0);
        assert_eq!(out.assignment.num_instances(), 2);
    }

    #[test]
    fn infeasible_when_pool_too_small() {
        let input = AssignInput {
            max_instances: 1,
            ..base_input(vec![vip(90.0, 100, 1), vip(90.0, 100, 1)])
        };
        assert!(matches!(
            solve_greedy(&input, None),
            Err(AssignError::Infeasible)
        ));
    }

    #[test]
    fn oversub_requires_headroom() {
        // n=2, o=0.5 → tolerate 1 failure → each replica carries full 80.
        let input = base_input(vec![VipSpec {
            traffic: 80.0,
            rules: 10,
            replicas: 2,
            oversub: 0.5,
            connections: 80.0,
        }]);
        let out = solve_greedy(&input, None).unwrap();
        let loads = out.assignment.load_per_instance(&input.vips);
        for l in loads {
            assert!(l == 0.0 || (l - 80.0).abs() < 1e-9);
        }
    }

    #[test]
    fn scales_to_trace_size() {
        // 120 VIPs with assorted requirements solve quickly and validate.
        let vips: Vec<VipSpec> = (0..120)
            .map(|i| {
                vip(
                    5.0 + (i % 17) as f64 * 3.0,
                    50 + (i % 9) as u64 * 100,
                    1 + i % 3,
                )
            })
            .collect();
        let input = AssignInput {
            max_instances: 200,
            ..base_input(vips)
        };
        let out = solve_greedy(&input, None).unwrap();
        assert!(input.validate(&out.assignment).is_ok());
        let (used, lb) = (out.assignment.num_instances(), input.lower_bound());
        let gap = (used as f64 - lb as f64) / lb as f64;
        assert!(gap < 0.5, "gap {gap}");
    }
}
