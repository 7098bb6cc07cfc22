//! Exact branch-and-bound over the LP relaxation.
//!
//! Builds the full Figure 7 ILP (binary `x[v][y]` placement variables and
//! `y[y]` instance-open indicators), relaxes integrality, solves with the
//! [`simplex`](crate::simplex) solver, and branches on the most fractional
//! variable. Intended for small/medium inputs (the per-node dense LP costs
//! O((V·Y)²·rows)); trace-scale rounds use [`greedy`](crate::greedy) with
//! the combinatorial bound, mirroring the paper's 10% CPLEX gap.

use crate::model::{AssignError, AssignInput, Assignment};
use crate::simplex::{Cmp, LinearProgram};

/// Variable indexing for the ILP.
struct VarMap {
    num_vips: usize,
    num_insts: usize,
}

impl VarMap {
    fn x(&self, v: usize, y: usize) -> usize {
        v * self.num_insts + y
    }
    fn y(&self, y: usize) -> usize {
        self.num_vips * self.num_insts + y
    }
    fn total(&self) -> usize {
        self.num_vips * self.num_insts + self.num_insts
    }
}

/// Builds the LP relaxation with extra equality fixings from branching.
fn build_lp(input: &AssignInput, fixed: &[(usize, f64)]) -> LinearProgram {
    let vm = VarMap {
        num_vips: input.vips.len(),
        num_insts: input.max_instances,
    };
    let mut lp = LinearProgram::new(vm.total());
    // Objective: minimize Σ y_y → maximize −Σ y_y.
    let mut c = vec![0.0; vm.total()];
    for y in 0..vm.num_insts {
        c[vm.y(y)] = -1.0;
    }
    lp.set_objective(&c);
    // Eq. 3: Σ_y x_vy = n_v.
    for (v, spec) in input.vips.iter().enumerate() {
        let mut row = vec![0.0; vm.total()];
        for y in 0..vm.num_insts {
            row[vm.x(v, y)] = 1.0;
        }
        lp.add_constraint(&row, Cmp::Eq, spec.replicas as f64);
    }
    for y in 0..vm.num_insts {
        // Eq. 1: Σ_v l_v x_vy ≤ T·y_y (also forces y_y once anything is
        // placed).
        let mut row = vec![0.0; vm.total()];
        for (v, spec) in input.vips.iter().enumerate() {
            row[vm.x(v, y)] = spec.load_per_replica();
        }
        row[vm.y(y)] = -input.traffic_capacity;
        lp.add_constraint(&row, Cmp::Le, 0.0);
        // Eq. 2: Σ_v r_v x_vy ≤ R·y_y.
        let mut row = vec![0.0; vm.total()];
        for (v, spec) in input.vips.iter().enumerate() {
            row[vm.x(v, y)] = spec.rules as f64;
        }
        row[vm.y(y)] = -(input.rule_capacity as f64);
        lp.add_constraint(&row, Cmp::Le, 0.0);
        // y_y ≤ 1.
        let mut row = vec![0.0; vm.total()];
        row[vm.y(y)] = 1.0;
        lp.add_constraint(&row, Cmp::Le, 1.0);
        // Linking x_vy ≤ y_y for rule-free, load-free VIPs is covered by
        // the two rows above only when l_v or r_v > 0; add explicit links
        // for robustness on degenerate specs.
        for v in 0..vm.num_vips {
            if input.vips[v].load_per_replica() == 0.0 && input.vips[v].rules == 0 {
                let mut row = vec![0.0; vm.total()];
                row[vm.x(v, y)] = 1.0;
                row[vm.y(y)] = -1.0;
                lp.add_constraint(&row, Cmp::Le, 0.0);
            }
        }
    }
    // x_vy ≤ 1.
    for v in 0..vm.num_vips {
        for y in 0..vm.num_insts {
            let mut row = vec![0.0; vm.total()];
            row[vm.x(v, y)] = 1.0;
            lp.add_constraint(&row, Cmp::Le, 1.0);
        }
    }
    // Eq. 4–7 when a previous assignment and limit exist.
    if let (Some(prev), Some(delta)) = (&input.previous, input.migration_limit) {
        for y in 0..vm.num_insts {
            let old_load: f64 = input
                .vips
                .iter()
                .enumerate()
                .filter(|(v, _)| prev.assigned(*v, y))
                .map(|(_, s)| s.load_per_replica())
                .sum();
            if old_load > input.traffic_capacity {
                continue; // Already overloaded: tolerated (paper §8.2).
            }
            // Σ_{v∉old_y} l_v x_vy ≤ T − old_load (Eq. 4–5).
            let mut row = vec![0.0; vm.total()];
            let mut any = false;
            for (v, spec) in input.vips.iter().enumerate() {
                if !prev.assigned(v, y) {
                    row[vm.x(v, y)] = spec.load_per_replica();
                    any = true;
                }
            }
            if any {
                lp.add_constraint(&row, Cmp::Le, input.traffic_capacity - old_load);
            }
        }
        // Eq. 6–7: kept connections ≥ total − δ·total.
        let total: f64 = input.vips.iter().map(|s| s.connections).sum();
        if total > 0.0 {
            let mut row = vec![0.0; vm.total()];
            let mut old_sum = 0.0;
            for (v, spec) in input.vips.iter().enumerate() {
                if let Some(old) = prev.placement.get(v) {
                    if old.is_empty() {
                        continue;
                    }
                    let share = spec.connections / old.len() as f64;
                    for &y in old {
                        if y < vm.num_insts {
                            row[vm.x(v, y)] = share;
                            old_sum += share;
                        }
                    }
                }
            }
            lp.add_constraint(&row, Cmp::Ge, old_sum - delta * total);
        }
    }
    // Branching fixings.
    for &(var, val) in fixed {
        let mut row = vec![0.0; vm.total()];
        row[var] = 1.0;
        lp.add_constraint(&row, Cmp::Eq, val);
    }
    lp
}

/// Extracts an integral assignment from an LP solution, if integral.
fn extract(input: &AssignInput, x: &[f64]) -> Option<Assignment> {
    let vm = VarMap {
        num_vips: input.vips.len(),
        num_insts: input.max_instances,
    };
    let mut placement = vec![Vec::new(); vm.num_vips];
    for v in 0..vm.num_vips {
        for y in 0..vm.num_insts {
            let val = x[vm.x(v, y)];
            if val > 0.99 {
                placement[v].push(y);
            } else if val > 0.01 {
                return None; // fractional
            }
        }
    }
    Some(Assignment::new(placement))
}

/// Finds the most fractional x variable for branching.
fn most_fractional(input: &AssignInput, x: &[f64]) -> Option<usize> {
    let vm = VarMap {
        num_vips: input.vips.len(),
        num_insts: input.max_instances,
    };
    let mut best: Option<(f64, usize)> = None;
    for v in 0..vm.num_vips {
        for y in 0..vm.num_insts {
            let idx = vm.x(v, y);
            let frac = (x[idx] - x[idx].round()).abs();
            if frac > 0.01 && best.map(|(f, _)| frac > f).unwrap_or(true) {
                best = Some((frac, idx));
            }
        }
    }
    best.map(|(_, idx)| idx)
}

/// Solves the Figure 7 ILP exactly via branch-and-bound (within
/// `node_limit` LP nodes).
///
/// Returns the best assignment found. Uses the greedy solution as the
/// initial incumbent.
pub fn solve_exact(input: &AssignInput, node_limit: usize) -> Result<Assignment, AssignError> {
    // Incumbent from the greedy solver (upper bound).
    let mut incumbent: Option<Assignment> = crate::greedy::solve_greedy(input, None)
        .ok()
        .map(|o| o.assignment);
    let mut best_obj = incumbent
        .as_ref()
        .map(|a| a.num_instances() as f64)
        .unwrap_or(f64::INFINITY);
    let mut nodes = 0usize;
    // DFS stack of variable fixings.
    let mut stack: Vec<Vec<(usize, f64)>> = vec![Vec::new()];
    while let Some(fixed) = stack.pop() {
        if nodes >= node_limit {
            break;
        }
        nodes += 1;
        let lp = build_lp(input, &fixed);
        let sol = match lp.solve() {
            Ok(s) => s,
            Err(_) => continue,
        };
        let lower = -sol.objective; // minimized instance count
        if lower >= best_obj - 1e-6 {
            continue; // Bound: cannot beat the incumbent.
        }
        if let Some(assignment) = extract(input, &sol.x) {
            if input.validate(&assignment).is_ok() {
                let obj = assignment.num_instances() as f64;
                if obj < best_obj {
                    best_obj = obj;
                    incumbent = Some(assignment);
                }
                continue;
            }
        }
        let Some(var) = most_fractional(input, &sol.x) else {
            continue;
        };
        let mut zero = fixed.clone();
        zero.push((var, 0.0));
        let mut one = fixed;
        one.push((var, 1.0));
        stack.push(zero);
        stack.push(one); // explore x=1 first (LIFO)
    }
    incumbent.ok_or(AssignError::Infeasible)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::VipSpec;

    fn vip(traffic: f64, rules: u64, replicas: usize) -> VipSpec {
        VipSpec {
            traffic,
            rules,
            replicas,
            oversub: 0.0,
            connections: traffic,
        }
    }

    fn input(vips: Vec<VipSpec>, max_instances: usize) -> AssignInput {
        AssignInput {
            vips,
            max_instances,
            traffic_capacity: 100.0,
            rule_capacity: 2000,
            migration_limit: None,
            previous: None,
        }
    }

    #[test]
    fn exact_matches_obvious_optimum() {
        // 60+40 and 50+50 pack into two full instances.
        let inp = input(
            vec![
                vip(60.0, 10, 1),
                vip(40.0, 10, 1),
                vip(50.0, 10, 1),
                vip(50.0, 10, 1),
            ],
            4,
        );
        let out = solve_exact(&inp, 1000).unwrap();
        assert_eq!(out.num_instances(), 2);
        assert!(inp.validate(&out).is_ok());
    }

    #[test]
    fn integrality_gap_case() {
        // Three VIPs of 60: LP bound 1.8, but 60+60 > 100 forces one per
        // instance → integral optimum 3.
        let inp = input(
            vec![vip(60.0, 10, 1), vip(60.0, 10, 1), vip(60.0, 10, 1)],
            4,
        );
        let out = solve_exact(&inp, 1000).unwrap();
        assert_eq!(out.num_instances(), 3);
    }

    #[test]
    fn exact_handles_replicas() {
        let inp = input(vec![vip(30.0, 10, 3), vip(30.0, 10, 2)], 5);
        let out = solve_exact(&inp, 500).unwrap();
        assert_eq!(out.placement[0].len(), 3);
        assert_eq!(out.placement[1].len(), 2);
        // 5 replica-slots, each 10-15 load → 3 instances suffice
        // (replica constraint forces ≥ 3).
        assert_eq!(out.num_instances(), 3);
    }

    #[test]
    fn exact_beats_or_ties_greedy() {
        // A pattern where FFD can be suboptimal: items 44,44,28,28,28 with
        // capacity 100. FFD: [44,44]... fits 88 + nothing → needs 2 bins
        // anyway; use a sharper case: 55,45,50,50 → optimal 2 (55+45,
        // 50+50); FFD: 55+45=100? 55,50 → 105 no → [55,45],[50,50] FFD
        // finds it too. Keep the assertion ≤ regardless.
        let inp = input(
            vec![
                vip(55.0, 10, 1),
                vip(50.0, 10, 1),
                vip(50.0, 10, 1),
                vip(45.0, 10, 1),
            ],
            6,
        );
        let greedy = crate::greedy::solve_greedy(&inp, None).unwrap();
        let exact = solve_exact(&inp, 2000).unwrap();
        assert!(exact.num_instances() <= greedy.assignment.num_instances());
        assert_eq!(exact.num_instances(), 2);
    }

    #[test]
    fn exact_respects_migration_budget() {
        let vips = vec![vip(40.0, 10, 1), vip(40.0, 10, 1)];
        let prev = Assignment::new(vec![vec![0], vec![1]]);
        let inp = AssignInput {
            vips,
            max_instances: 3,
            traffic_capacity: 100.0,
            rule_capacity: 2000,
            migration_limit: Some(0.0),
            previous: Some(prev.clone()),
        };
        let out = solve_exact(&inp, 500).unwrap();
        // δ=0: nothing may migrate, so the assignment must equal prev
        // (even though packing both on one instance would be cheaper).
        assert_eq!(
            prev.migrated_fraction(&out, &inp.vips),
            0.0,
            "{:?}",
            out.placement
        );
    }

    #[test]
    fn infeasible_input_reported() {
        let inp = input(vec![vip(150.0, 10, 1)], 2);
        // One VIP, one replica, load 150 > capacity 100 on any instance.
        assert!(solve_exact(&inp, 100).is_err());
    }
}
