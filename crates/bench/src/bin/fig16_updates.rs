//! Figure 16: the VIP-assignment update study (paper §8.2).
//!
//! Replays the 24-hour trace at 10-minute granularity, computing a fresh
//! VIP→instance assignment each round under three schemes:
//!
//! * **all-to-all** — every VIP on every instance (fewest instances, all
//!   rules everywhere),
//! * **YODA-no-limit** — the Figure 7 ILP without Eq. 4–7,
//! * **YODA-limit** — the full ILP with transient-capacity and δ=10%
//!   migration constraints (relaxed in +10% steps when infeasible).
//!
//! Reports the paper's four panels: (b) median rules per instance
//! normalized to all-to-all, (c) instances used, (d) fraction of
//! instances transiently overloaded during the update, (e) fraction of
//! connections migrated — plus per-round solve times.

use std::time::Instant;

use yoda_assign::transition_stats;
use yoda_assign::{all_to_all, solve_greedy, Assignment};
use yoda_bench::{f2, pct, print_header, print_kv, Table};
use yoda_netsim::Histogram;
use yoda_trace::{assign_input_for_bin, AssignParams, Trace, TraceConfig};

struct SchemeState {
    prev: Option<Assignment>,
    instances: Histogram,
    rules_ratio: Histogram,
    overload: Histogram,
    migrated: Histogram,
    solve_ms: Histogram,
    effective_delta_max: f64,
}

impl SchemeState {
    fn new() -> Self {
        SchemeState {
            prev: None,
            instances: Histogram::new(),
            rules_ratio: Histogram::new(),
            overload: Histogram::new(),
            migrated: Histogram::new(),
            solve_ms: Histogram::new(),
            effective_delta_max: 0.0,
        }
    }
}

fn median_nonzero(values: &[u64]) -> f64 {
    let mut v: Vec<u64> = values.iter().copied().filter(|&x| x > 0).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    v[v.len() / 2] as f64
}

fn main() {
    print_header(
        "Figure 16",
        "VIP assignment update study (24h trace, 10-min rounds)",
    );
    let trace = Trace::generate(&TraceConfig::default());
    let bins = trace.bins();
    print_kv("VIPs", trace.vips.len());
    print_kv("rounds", bins);
    print_kv("rule capacity R_y (5ms target per Fig. 6)", "2000 rules");
    print_kv("replicas n_v", "4 x t_v / T_y (4x redundancy)");
    print_kv(
        "migration budget (YODA-limit)",
        "10% (+10% steps when infeasible)",
    );

    let base = AssignParams::default();
    let mut limit = SchemeState::new();
    let mut nolimit = SchemeState::new();
    let mut a2a_instances = Histogram::new();

    for bin in 0..bins {
        // All-to-all baseline.
        let input_a2a = assign_input_for_bin(&trace, bin, &base, None);
        let a2a = all_to_all(&input_a2a);
        a2a_instances.record(a2a.instances as f64);
        let a2a_rules = a2a.rules_per_instance as f64;

        for (scheme, delta) in [(&mut nolimit, None), (&mut limit, Some(0.10))] {
            let params = AssignParams {
                migration_limit: delta,
                ..base
            };
            // No-limit: nothing anchors the optimizer round-to-round.
            let shuffle_seed = delta.is_none().then_some(bin as u64);
            let input = assign_input_for_bin(&trace, bin, &params, scheme.prev.clone());
            let t0 = Instant::now();
            let out = solve_greedy(&input, shuffle_seed).expect("feasible assignment");
            scheme.solve_ms.record(t0.elapsed().as_secs_f64() * 1000.0);
            let used = out.assignment.num_instances();
            scheme.instances.record(used as f64);
            let rules = out.assignment.rules_per_instance(&input.vips);
            scheme
                .rules_ratio
                .record(median_nonzero(&rules) / a2a_rules);
            if let Some(prev) = &scheme.prev {
                let stats =
                    transition_stats(prev, &out.assignment, &input.vips, base.traffic_capacity);
                scheme.overload.record(stats.overloaded_fraction);
                scheme.migrated.record(stats.migrated_fraction);
            }
            if let Some(d) = out.effective_delta {
                scheme.effective_delta_max = scheme.effective_delta_max.max(d);
            }
            scheme.prev = Some(out.assignment);
        }
    }

    println!();
    println!("(b) median rules per instance, normalized to all-to-all:");
    let mut t = Table::new(&["scheme", "median", "min", "max"]);
    for (name, s) in [("YODA-no-limit", &mut nolimit), ("YODA-limit", &mut limit)] {
        t.row(&[
            name.to_string(),
            pct(s.rules_ratio.median().unwrap_or(0.0)),
            pct(s.rules_ratio.min().unwrap_or(0.0)),
            pct(s.rules_ratio.max().unwrap_or(0.0)),
        ]);
    }
    t.print();
    print_kv(
        "paper",
        "0.5% - 3.7% of all-to-all (median 1%), ~100x fewer rules",
    );

    println!();
    println!("(c) number of instances:");
    let mut t = Table::new(&["scheme", "median", "max", "vs all-to-all (median)"]);
    let a2a_med = a2a_instances.median().unwrap_or(1.0);
    for (name, s) in [
        ("all-to-all", &mut a2a_instances),
        ("YODA-no-limit", &mut nolimit.instances),
        ("YODA-limit", &mut limit.instances),
    ] {
        let med = s.median().unwrap_or(0.0);
        t.row(&[
            name.to_string(),
            f2(med),
            f2(s.max().unwrap_or(0.0)),
            format!("+{}", pct(med / a2a_med - 1.0)),
        ]);
    }
    t.print();
    print_kv(
        "paper",
        "no-limit needs 4.6-73% (avg 27%) more than all-to-all; limit adds ~1.3% (median) over no-limit",
    );

    println!();
    println!("(d) fraction of instances transiently overloaded during update:");
    let mut t = Table::new(&["scheme", "median", "max"]);
    t.row(&[
        "YODA-no-limit".to_string(),
        pct(nolimit.overload.median().unwrap_or(0.0)),
        pct(nolimit.overload.max().unwrap_or(0.0)),
    ]);
    t.row(&[
        "YODA-limit".to_string(),
        pct(limit.overload.median().unwrap_or(0.0)),
        pct(limit.overload.max().unwrap_or(0.0)),
    ]);
    t.print();
    print_kv(
        "paper",
        "no-limit 0-20.4% (median 5.3%); limit ~0 (only already-overloaded)",
    );

    println!();
    println!("(e) fraction of connections migrated per update:");
    let mut t = Table::new(&["scheme", "median", "max"]);
    t.row(&[
        "YODA-no-limit".to_string(),
        pct(nolimit.migrated.median().unwrap_or(0.0)),
        pct(nolimit.migrated.max().unwrap_or(0.0)),
    ]);
    t.row(&[
        "YODA-limit".to_string(),
        pct(limit.migrated.median().unwrap_or(0.0)),
        pct(limit.migrated.max().unwrap_or(0.0)),
    ]);
    t.print();
    print_kv(
        "paper",
        "no-limit 2.7-95% (median 44.9%); limit 0-29.8% (median 8.3%)",
    );
    print_kv(
        "max effective delta after relaxation",
        pct(limit.effective_delta_max),
    );

    println!();
    println!(
        "assignment solve time per round (this solver; paper/CPLEX: 1.5-21.5s, median 3.92s):"
    );
    let mut t = Table::new(&["scheme", "median (ms)", "max (ms)"]);
    t.row(&[
        "YODA-no-limit".to_string(),
        f2(nolimit.solve_ms.median().unwrap_or(0.0)),
        f2(nolimit.solve_ms.max().unwrap_or(0.0)),
    ]);
    t.row(&[
        "YODA-limit".to_string(),
        f2(limit.solve_ms.median().unwrap_or(0.0)),
        f2(limit.solve_ms.max().unwrap_or(0.0)),
    ]);
    t.print();
}
