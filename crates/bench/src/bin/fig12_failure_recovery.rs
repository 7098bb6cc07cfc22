//! Figure 12: failure recovery — the paper's headline experiment.
//!
//! 10 LB instances; 2 fail simultaneously mid-run. Browsers (20 fetch
//! processes each, 30 s HTTP timeout) keep fetching pages throughout.
//!
//! Paper findings:
//! * HAProxy-noretry **breaks 24% of flows** (they hang to the HTTP
//!   timeout and are abandoned),
//! * HAProxy-retry completes everything but with +30 s latency on the
//!   affected flows,
//! * Yoda-noretry breaks **nothing**: affected flows finish 0.6–3 s late
//!   (the 600 ms detection + mux re-steer + TCPStore recovery),
//! * Yoda-retry is never exercised ("there was never any retry made").
//!
//! It also prints the Figure 12(b) packet trace at the backend:
//! drop at failure, server retransmit at +300 ms (still to the dead
//! instance), retransmit at +600 ms reaching a live instance, recovery.

use yoda_bench::{f2, pct, print_header, print_kv, Table};
use yoda_bench::{run_failover, FailoverSetup, LbKind};
use yoda_netsim::SimTime;

fn main() {
    print_header(
        "Figure 12",
        "End-to-end request latency under 2/10 LB instance failures",
    );
    // Long transfers (the largest ~442 KB object), failed mid-flight:
    // this reproduces the paper's "breaking a single established
    // connection" condition, under which 2/10 dead instances strand
    // ≈20-24% of the in-flight flows.
    let base = FailoverSetup {
        num_instances: 10,
        fail: vec![0, 1],
        fail_at: SimTime::from_millis(3500),
        browsers: 4,
        processes: 20,
        use_largest_object: true,
        max_pages: Some(3),
        http_timeout: SimTime::from_secs(30),
        duration: SimTime::from_secs(150),
        ..FailoverSetup::default()
    };

    let runs = [
        ("Yoda-noretry", LbKind::Yoda, 0u32),
        ("Yoda-retry", LbKind::Yoda, 1),
        ("HAProxy-noretry", LbKind::Proxy, 0),
        ("HAProxy-retry", LbKind::Proxy, 1),
    ];
    let mut table = Table::new(&[
        "scenario",
        "requests",
        "broken",
        "timeouts",
        "p50 (ms)",
        "p99 (ms)",
        "max (ms)",
        "recovered",
    ]);
    let mut cdf_sets = Vec::new();
    for (name, lb, retries) in runs {
        let mut out = run_failover(&FailoverSetup {
            lb,
            retries,
            timeline: lb == LbKind::Yoda && retries == 0,
            ..base.clone()
        });
        table.row(&[
            name.to_string(),
            (out.completed + out.broken).to_string(),
            pct(out.broken_fraction()),
            out.timeouts.to_string(),
            f2(out.latencies.median().unwrap_or(0.0)),
            f2(out.latencies.percentile(99.0).unwrap_or(0.0)),
            f2(out.latencies.max().unwrap_or(0.0)),
            out.recoveries.to_string(),
        ]);
        cdf_sets.push((name, out));
    }
    table.print();
    print_kv(
        "paper",
        "HAProxy-noretry broke 24% of flows; HAProxy-retry +30 s; Yoda +0.6-3 s, 0 broken",
    );

    // TCPStore health as the surviving instances saw it: recovery reads
    // land here, so a silent replica would show up as timeouts.
    println!();
    println!("TCPStore per-replica client stats (Yoda-noretry):");
    let (_, yoda) = &cdf_sets[0];
    yoda.store_stats.table().print();
    print_kv("store ops: timeouts", yoda.store_stats.timeouts);

    println!();
    println!("(a) request-latency CDF points (fraction of requests <= x ms):");
    let mut cdf_table = Table::new(&["x (ms)", "Yoda-noretry", "HAProxy-noretry", "HAProxy-retry"]);
    for x in [
        300.0, 600.0, 1_000.0, 2_000.0, 3_000.0, 5_000.0, 29_999.0, 31_000.0, 35_000.0,
    ] {
        let mut f = |name: &str| -> String {
            let (_, out) = cdf_sets
                .iter_mut()
                .find(|(n, _)| *n == name)
                .expect("scenario exists");
            pct(out.latencies.cdf_at(x))
        };
        cdf_table.row(&[
            format!("{x:.0}"),
            f("Yoda-noretry"),
            f("HAProxy-noretry"),
            f("HAProxy-retry"),
        ]);
    }
    cdf_table.print();

    println!();
    println!("(b) packet timeline at the backend around the failure (Yoda-noretry):");
    let (_, yoda) = &cdf_sets[0];
    for line in yoda.timeline.iter().take(60) {
        println!("    {line}");
    }
}
