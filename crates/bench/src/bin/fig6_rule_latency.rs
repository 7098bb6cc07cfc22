//! Figure 6: HAProxy-style rule-lookup latency vs. number of rules.
//!
//! The paper measures P90 per-connection server-selection latency as the
//! rule table grows 1K→10K and finds it "increases about linearly", with
//! 10K rules ≈ 3× the latency of 1K rules. This binary measures our rules
//! engine's linear scan the same way: random URL requests against tables
//! of increasing size where most rules do not match (the realistic case —
//! a table holds many tenants'/objects' rules, a lookup matches one).
//!
//! Two latencies are reported per table size:
//!
//! * **scan** — wall-clock microseconds of this Rust engine's linear scan
//!   alone (grows strictly linearly in the rule count), and
//! * **selection** — scan plus the fixed per-connection processing cost
//!   that HAProxy's measurement inevitably includes (we use the same
//!   calibrated constant the simulation charges per new connection,
//!   `YodaConfig::per_conn_cpu`). The paper's "10K ≈ 3× 1K" ratio is a
//!   property of this affine curve — a pure scan would be ~10×.

use std::time::Instant;

use yoda_bench::{f1, f2, print_header, print_kv, Table};
use yoda_core::{Rule, RuleTable, SelectCtx};
use yoda_http::HttpRequest;
use yoda_netsim::Histogram;
use yoda_netsim::Rng;

/// Lookups timed per table size.
const LOOKUPS: usize = 20_000;

/// Builds a table of `n` rules, each matching a distinct URL pattern.
fn build_table(n: usize) -> RuleTable {
    let mut rules = Vec::with_capacity(n);
    for i in 0..n {
        let backend = format!("10.1.{}.{}:80", (i / 250) % 250, i % 250 + 1);
        let line = format!("name=r{i} priority=1 match url=/obj{i}/* action=split {backend}=1");
        rules.push(Rule::parse(&line).expect("valid rule"));
    }
    RuleTable::from_rules(rules)
}

fn main() {
    print_header("Figure 6", "Look-up latency vs rules per instance");
    // Fixed per-connection processing charged alongside the scan — the
    // same calibrated constant the simulated Yoda instance uses (§7.1).
    let fixed_us = yoda_core::YodaConfig::default().per_conn_cpu.as_micros() as f64;
    let mut table_out = Table::new(&[
        "rules",
        "scan p50 (us)",
        "scan p90 (us)",
        "selection p90 (us)",
    ]);
    let mut sel_1k = 0.0;
    let mut sel_10k = 0.0;
    for &n in &[1_000usize, 2_000, 4_000, 6_000, 8_000, 10_000] {
        let mut table = build_table(n);
        let ctx = SelectCtx::default();
        let mut rng = Rng::seed_from_u64(6);
        let mut hist = Histogram::new();
        for _ in 0..LOOKUPS {
            // Random object: the matching rule sits at a uniform position.
            let obj = rng.gen_range(0..n);
            let req = HttpRequest::get(format!("/obj{obj}/x.jpg"));
            let t0 = Instant::now();
            let picked = table.select(&req, &ctx, &mut rng);
            hist.record(t0.elapsed().as_nanos() as f64 / 1000.0);
            assert!(picked.is_some());
        }
        let p90 = hist.percentile(90.0).unwrap_or(0.0);
        let selection = fixed_us + p90;
        if n == 1_000 {
            sel_1k = selection;
        }
        if n == 10_000 {
            sel_10k = selection;
        }
        table_out.row(&[
            n.to_string(),
            f2(hist.percentile(50.0).unwrap_or(0.0)),
            f2(p90),
            f2(selection),
        ]);
    }
    table_out.print();
    print_kv("fixed per-connection cost (us)", f1(fixed_us));
    print_kv(
        "selection P90 ratio 10K rules / 1K rules",
        f2(sel_10k / sel_1k),
    );
    print_kv("paper claim", "latency grows ~linearly; 10K is ~3x 1K");
}
