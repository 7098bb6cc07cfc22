//! Figure 14: safe user-policy updates (make-before-break).
//!
//! Paper scenario: one service with 3 equal-weight backends. The operator
//! replaces a VM using make-before-break: at t=10 s a fourth server is
//! added (equal split across 4), at t=20 s Srv-1 is removed (equal across
//! the remaining 3), and at t=30 s the weights become 1:1:2 (Srv-4 has 2×
//! the cores). The measured per-server traffic fractions track the policy
//! at each step, and **no client flow is broken** — existing connections
//! keep flowing to their previously-selected server ("YODA instances only
//! apply new policies to new connections").

use yoda_bench::TimeSeries;
use yoda_bench::{pct, print_header, print_kv, Table};
use yoda_core::{Testbed, TestbedConfig};
use yoda_http::{OriginServer, RateClient, RateClientConfig};
use yoda_netsim::SimTime;

/// Total open-loop request rate across the four clients (requests/s).
const RATE: f64 = 800.0;

fn main() {
    print_header("Figure 14", "User policy update without breaking flows");
    let mut tb = Testbed::build(TestbedConfig {
        seed: 14,
        num_instances: 4,
        num_services: 1,
        num_backends: 4,
        ..TestbedConfig::default()
    });
    let vip = tb.vips[0];
    let b: Vec<String> = tb.service_backends[0]
        .iter()
        .map(|ep| ep.to_string())
        .collect();
    assert!(b.len() >= 4);

    // Policies over time. Srv-4 (index 3) is the replacement VM.
    let p0 = format!(
        "name=r priority=1 match * action=split {}=1 {}=1 {}=1",
        b[0], b[1], b[2]
    );
    let p1 = format!(
        "name=r priority=1 match * action=split {}=1 {}=1 {}=1 {}=1",
        b[0], b[1], b[2], b[3]
    );
    let p2 = format!(
        "name=r priority=1 match * action=split {}=1 {}=1 {}=1",
        b[1], b[2], b[3]
    );
    let p3 = format!(
        "name=r priority=1 match * action=split {}=1 {}=1 {}=2",
        b[1], b[2], b[3]
    );
    // The build-time default policy (equal across all 4) is installed at
    // t=0; apply the experiment's initial 3-way policy after it settles
    // (in-flight control packets can reorder under jitter).
    tb.set_policy_at(vip, &p0, SimTime::from_millis(500));
    tb.set_policy_at(vip, &p1, SimTime::from_secs(10));
    tb.set_policy_at(vip, &p2, SimTime::from_secs(20));
    tb.set_policy_at(vip, &p3, SimTime::from_secs(30));

    // Load: open-loop small-object fetches.
    let obj = tb
        .catalog
        .site(0)
        .objects
        .iter()
        .min_by_key(|o| o.size)
        .map(|o| o.path.clone())
        .expect("objects");
    let mut clients = Vec::new();
    for _ in 0..4 {
        clients.push(tb.add_rate_client(
            0,
            RateClientConfig {
                rate_per_sec: RATE / 4.0,
                object_path: Some(obj.clone()),
                duration: Some(SimTime::from_secs(39)),
                ..RateClientConfig::default()
            },
        ));
    }

    // Sample each backend's share of requests per 2-second window.
    let series = TimeSeries::new();
    let backends = tb.backends.clone();
    series.install(
        &mut tb.engine,
        SimTime::from_secs(2),
        SimTime::from_secs(2),
        SimTime::from_secs(40),
        move |eng| {
            let mut counts = Vec::new();
            let now = eng.now();
            for &id in &backends {
                let srv = eng.node_mut::<OriginServer>(id);
                counts.push(srv.requests_window as f64);
                srv.reset_window(now);
            }
            let total: f64 = counts.iter().sum();
            if total > 0.0 {
                counts.iter().map(|c| c / total).collect()
            } else {
                vec![0.0; counts.len()]
            }
        },
    );
    tb.engine.run_for(SimTime::from_secs(42));

    let mut table = Table::new(&["t (s)", "Srv-1", "Srv-2", "Srv-3", "Srv-4", "phase"]);
    for (time, shares) in series.rows() {
        let t = time.as_secs_f64();
        let phase = match t {
            x if x <= 10.0 => "equal thirds",
            x if x <= 20.0 => "make: equal quarters",
            x if x <= 30.0 => "break: thirds w/o Srv-1",
            _ => "weights 1:1:2",
        };
        table.row(&[
            format!("{t:.0}"),
            pct(shares[0]),
            pct(shares[1]),
            pct(shares[2]),
            pct(shares[3]),
            phase.to_string(),
        ]);
    }
    table.print();

    let mut completed = 0;
    let mut failed = 0;
    for id in clients {
        let c = tb.engine.node_ref::<RateClient>(id);
        completed += c.completed;
        failed += c.timeouts + c.resets;
    }
    print_kv("requests completed", completed);
    print_kv("requests broken", failed);
    print_kv(
        "paper",
        "traffic split follows each policy step; no client flow broken",
    );
}
