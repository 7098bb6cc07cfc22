//! The VIP-assignment planner (paper §4.4, Figure 7) against exhaustive
//! enumeration.
//!
//! Seeded tiny inputs (≤ 4 VIPs, ≤ 4 instances, replicas and `o_v`
//! varied, with and without a previous assignment and a migration limit δ)
//! are small enough to try every placement: each VIP on any subset of the
//! instances, up to 16⁴ placements. The test restates the objective and
//! Eq. 1–7 itself, without `validate`, `transient_load` or
//! `migrated_fraction`, and checks for every input:
//!
//! * `validate` accepts exactly the placements the restatement accepts;
//! * `transition_stats`' two fractions equal the restated Eq. 4–7
//!   quantities, for every placement against the previous one;
//! * `lower_bound()` never exceeds the enumerated optimum;
//! * whenever `solve_greedy` (without and with a shuffle seed) returns a
//!   placement, it is feasible under its `effective_delta` and uses at
//!   least that δ's optimum number of instances;
//! * when nothing is feasible even at the greedy's largest relaxed δ,
//!   `solve_greedy` returns an error.
//!
//! How often the greedy fails on a feasible input, and its largest gap to
//! the optimum, are printed with `--nocapture`, not asserted: the greedy
//! is a heuristic, as the paper's 10 % CPLEX gap is a compromise.

use yoda::assign::{
    solve_greedy, transition_stats, AssignInput, Assignment, GreedyOutcome, VipSpec,
};
use yoda::netsim::Rng;

const CASES: usize = 250;
/// Instances in the pool at most; placements are bit masks over them.
const MAX_POOL: usize = 4;
const CAPACITY: f64 = 100.0;
const RULE_CAPACITY: u64 = 120;
/// The relative slack every capacity and budget comparison allows.
const TOL: f64 = 1e-9;
/// The greedy's δ relaxation: at most ten steps of +10 % (§8.2).
const RELAX_STEPS: usize = 10;
const RELAX_STEP: f64 = 0.10;

/// A tiny input and the previous placement it was built from.
struct Case {
    input: AssignInput,
    prev: Option<Vec<Vec<usize>>>,
}

fn instances(mask: usize) -> Vec<usize> {
    (0..MAX_POOL).filter(|y| mask & (1 << y) != 0).collect()
}

fn arb_case(rng: &mut Rng) -> Case {
    let pool = rng.gen_range(1..=MAX_POOL);
    // Four VIPs on four instances is 65,536 placements: half the time
    // the largest pool gets three VIPs instead.
    let most = if pool == MAX_POOL && rng.gen_bool(0.5) {
        3
    } else {
        4
    };
    let vips: Vec<VipSpec> = (0..rng.gen_range(1..=most))
        .map(|_| VipSpec {
            // Mostly light VIPs, a quarter heavy enough to overload an
            // instance on their own once failures are provisioned for.
            traffic: f64::from(if rng.gen_bool(0.25) {
                rng.gen_range(12..=20u32)
            } else {
                rng.gen_range(1..=10u32)
            }) * 5.0,
            rules: rng.gen_range(1..=8u64) * 10,
            replicas: rng.gen_range(1..=pool),
            oversub: [0.0, 0.25, 0.5][rng.gen_range(0..3usize)],
            connections: f64::from(rng.gen_range(1..=20u32)),
        })
        .collect();
    // A third of the previous placements crowd every VIP onto instance 0,
    // which overloads it as soon as the VIPs' traffic has grown.
    let prev = rng.gen_bool(0.6).then(|| {
        let crowded = rng.gen_bool(0.33);
        vips.iter()
            .map(|_| match crowded {
                true => vec![0],
                false => instances(rng.gen_range(0..1usize << pool)),
            })
            .collect::<Vec<_>>()
    });
    let migration_limit = rng
        .gen_bool(0.7)
        .then(|| [0.0, 0.1, 0.25, 0.5][rng.gen_range(0..4usize)]);
    Case {
        input: AssignInput {
            vips,
            max_instances: pool,
            traffic_capacity: CAPACITY,
            rule_capacity: RULE_CAPACITY,
            migration_limit,
            previous: prev.clone().map(Assignment::new),
        },
        prev,
    }
}

/// Eq. 1's per-replica load: `f_v = ⌊n_v · o_v⌋` replicas may fail (at
/// least one survives), and the survivors carry the VIP between them.
fn replica_load(v: &VipSpec) -> f64 {
    let f = ((v.replicas as f64 * v.oversub).floor() as usize).min(v.replicas - 1);
    v.traffic / (v.replicas - f) as f64
}

/// One placement judged against Figure 7, restated from the paper.
struct Judged {
    /// Eq. 1–3 hold.
    steady: bool,
    /// Eq. 2 alone is broken.
    rules_only: bool,
    /// Eq. 4–5 hold: no instance carries more than its capacity while the
    /// muxes move from the old placement to this one, unless the old
    /// placement alone already overloaded it. True with no previous.
    transient: bool,
    /// Eq. 4–5 needed the already-overloaded exception on some instance.
    excused: bool,
    /// Eq. 6–7: the fraction of connections that move. 0 with no previous.
    migrated: f64,
    /// The objective: instances used.
    used: usize,
}

impl Judged {
    /// Feasible under migration limit `delta`; Eq. 4–7 bind only with a
    /// previous placement and a limit.
    fn feasible(&self, delta: Option<f64>) -> bool {
        match delta {
            None => self.steady,
            Some(d) => self.steady && self.transient && self.migrated <= d + TOL,
        }
    }
}

fn judge(case: &Case, p: &[Vec<usize>]) -> Judged {
    let vips = &case.input.vips;
    let cap = CAPACITY * (1.0 + TOL);
    let mut load = [0.0; MAX_POOL];
    let mut rules = [0u64; MAX_POOL];
    let mut on_both = [0.0; MAX_POOL];
    let mut old = [0.0; MAX_POOL];
    let mut used = [false; MAX_POOL];
    for (v, spec) in vips.iter().enumerate() {
        let l = replica_load(spec);
        for &y in &p[v] {
            load[y] += l;
            rules[y] += spec.rules;
            used[y] = true;
        }
        if let Some(prev) = &case.prev {
            for y in 0..MAX_POOL {
                let was = prev[v].contains(&y);
                if was || p[v].contains(&y) {
                    on_both[y] += l;
                }
                if was {
                    old[y] += l;
                }
            }
        }
    }
    let replicas = vips.iter().zip(p).all(|(s, p)| p.len() == s.replicas);
    let traffic = load.iter().all(|&l| l <= cap);
    let rule_fit = rules.iter().all(|&r| r <= RULE_CAPACITY);
    let excused = (0..MAX_POOL).any(|y| on_both[y] > cap && old[y] > cap);
    let transient = (0..MAX_POOL).all(|y| on_both[y] <= cap || old[y] > cap);
    let migrated = case.prev.as_ref().map_or(0.0, |prev| {
        let total: f64 = vips.iter().map(|s| s.connections).sum();
        let mut moved = 0.0;
        for (v, spec) in vips.iter().enumerate() {
            let share = spec.connections / prev[v].len() as f64;
            for y in &prev[v] {
                if !p[v].contains(y) {
                    moved += share;
                }
            }
        }
        moved / total
    });
    Judged {
        steady: replicas && traffic && rule_fit,
        rules_only: replicas && traffic && !rule_fit,
        transient,
        excused,
        migrated,
        used: used.iter().filter(|&&u| u).count(),
    }
}

/// Figure 16(d)'s overload measure, restated: of the instances either
/// placement uses, the fraction whose old plus new VIPs, at the load each
/// replica actually carries (`t_v / n_v`), exceed capacity.
fn overloaded_fraction(case: &Case, prev: &[Vec<usize>], p: &[Vec<usize>]) -> f64 {
    let (mut active, mut over) = (0, 0);
    for y in 0..MAX_POOL {
        let mut carried = 0.0;
        let mut any = false;
        for (v, spec) in case.input.vips.iter().enumerate() {
            if prev[v].contains(&y) || p[v].contains(&y) {
                carried += spec.traffic / spec.replicas as f64;
                any = true;
            }
        }
        if any {
            active += 1;
            if carried > CAPACITY * (1.0 + TOL) {
                over += 1;
            }
        }
    }
    if active == 0 {
        0.0
    } else {
        over as f64 / active as f64
    }
}

/// The largest δ `solve_greedy` tries from `delta`.
fn largest_relaxed(delta: Option<f64>) -> Option<f64> {
    delta.map(|mut d| {
        for _ in 0..RELAX_STEPS {
            d += RELAX_STEP;
        }
        d
    })
}

#[derive(Default)]
struct Tally {
    placements: usize,
    feasible_inputs: usize,
    runs_on_feasible: usize,
    greedy_failed_on_feasible: usize,
    greedy_relaxed_needlessly: usize,
    greedy_above_optimum: usize,
    largest_gap: usize,
    largest_relative_gap: f64,
    rules_only_rejections: usize,
    excused_transients: usize,
    infeasible_inputs: usize,
}

#[test]
fn validate_and_the_greedy_agree_with_exhaustive_enumeration() {
    let mut rng = Rng::seed_from_u64(0x0A55_1690);
    let mut tally = Tally::default();
    for seed in 0..CASES {
        let case = arb_case(&mut rng);
        let input = &case.input;
        let why = |what: &str| format!("case {seed}: {what}\ninput: {input:?}");
        let greedy: Vec<Result<GreedyOutcome, _>> = [None, Some(seed as u64)]
            .iter()
            .map(|&shuffle| solve_greedy(input, shuffle))
            .collect();
        let mut found = vec![false; greedy.len()];
        // Every placement that meets Eq. 1–3.
        let mut candidates: Vec<Judged> = Vec::new();

        let pool = input.max_instances;
        let masks = 1usize << pool;
        let total = masks.pow(input.vips.len() as u32);
        for index in 0..total {
            let p: Vec<Vec<usize>> = (0..input.vips.len())
                .map(|v| instances(index / masks.pow(v as u32) % masks))
                .collect();
            let judged = judge(&case, &p);
            let assignment = Assignment::new(p.clone());
            tally.placements += 1;
            tally.rules_only_rejections += usize::from(judged.rules_only);
            let accepted = input.validate(&assignment);
            assert_eq!(
                accepted.is_ok(),
                judged.feasible(input.migration_limit),
                "{}",
                why(&format!("validate says {accepted:?} for {p:?}"))
            );
            if judged.feasible(input.migration_limit) && input.migration_limit.is_some() {
                tally.excused_transients += usize::from(judged.excused);
            }
            if let (Some(prev), Some(prev_raw)) = (&input.previous, &case.prev) {
                let stats = transition_stats(prev, &assignment, &input.vips, CAPACITY);
                assert_eq!(
                    stats.overloaded_fraction,
                    overloaded_fraction(&case, prev_raw, &p),
                    "{}",
                    why(&format!("overloaded fraction of {p:?}"))
                );
                assert!(
                    (stats.migrated_fraction - judged.migrated).abs() < 1e-12,
                    "{}",
                    why(&format!("migrated fraction of {p:?}"))
                );
            }
            for (out, seen) in greedy.iter().zip(&mut found) {
                if let Ok(out) = out {
                    if out.assignment == assignment {
                        *seen = true;
                        assert!(
                            judged.feasible(out.effective_delta),
                            "{}",
                            why(&format!(
                                "greedy placed {p:?} at δ {:?}",
                                out.effective_delta
                            ))
                        );
                    }
                }
            }
            if judged.steady {
                candidates.push(judged);
            }
        }

        let optimum = |delta: Option<f64>| {
            candidates
                .iter()
                .filter(|j| j.feasible(delta))
                .map(|j| j.used)
                .min()
        };
        let requested = optimum(input.migration_limit);
        if let Some(best) = requested {
            tally.feasible_inputs += 1;
            assert!(
                input.lower_bound() <= best,
                "{}",
                why(&format!(
                    "lower bound {} > optimum {best}",
                    input.lower_bound()
                ))
            );
        }
        let feasible_at_all = optimum(largest_relaxed(input.migration_limit)).is_some();
        tally.infeasible_inputs += usize::from(!feasible_at_all);
        for (out, seen) in greedy.iter().zip(&found) {
            tally.runs_on_feasible += usize::from(requested.is_some());
            match out {
                Ok(out) => {
                    assert!(
                        *seen,
                        "{}",
                        why("the greedy's placement is outside the pool")
                    );
                    let used = out.assignment.num_instances();
                    let best = optimum(out.effective_delta)
                        .expect("the greedy's own placement is a candidate");
                    assert!(used >= best, "{}", why("the greedy beat the optimum"));
                    tally.largest_gap = tally.largest_gap.max(used - best);
                    let relative = (used - best) as f64 / best as f64;
                    tally.largest_relative_gap = tally.largest_relative_gap.max(relative);
                    tally.greedy_above_optimum += usize::from(used > best);
                    let relaxed = out.effective_delta != input.migration_limit;
                    tally.greedy_relaxed_needlessly += usize::from(relaxed && requested.is_some());
                }
                Err(_) => tally.greedy_failed_on_feasible += usize::from(requested.is_some()),
            }
            if !feasible_at_all {
                assert!(
                    out.is_err(),
                    "{}",
                    why("the greedy solved an infeasible input")
                );
            }
        }
    }
    println!(
        "assign oracle: {CASES} inputs ({} feasible at their δ, {} infeasible at every δ the greedy tries), \
         {} placements enumerated",
        tally.feasible_inputs, tally.infeasible_inputs, tally.placements
    );
    println!(
        "  greedy, {} runs on feasible inputs (with and without a shuffle seed): {} failed, \
         {} relaxed δ, {} above the optimum; largest gap {} instance(s) ({:.1} % of the optimum)",
        tally.runs_on_feasible,
        tally.greedy_failed_on_feasible,
        tally.greedy_relaxed_needlessly,
        tally.greedy_above_optimum,
        tally.largest_gap,
        tally.largest_relative_gap * 100.0
    );
    println!(
        "  reached: {} placements broken by Eq. 2 alone, {} feasible ones excused an already-overloaded instance",
        tally.rules_only_rejections, tally.excused_transients
    );
    assert!(tally.feasible_inputs > CASES / 4, "too few feasible inputs");
    assert!(tally.infeasible_inputs > 0, "no infeasible input reached");
    assert!(tally.rules_only_rejections > 0, "Eq. 2 never decided alone");
    assert!(
        tally.excused_transients > 0,
        "the overload exception never applied"
    );
}
