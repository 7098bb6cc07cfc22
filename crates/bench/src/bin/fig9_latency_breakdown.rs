//! Figure 9 + §7.1 CPU: end-to-end latency breakdown, Yoda vs HAProxy
//! vs no-LB baseline, and instance CPU saturation.
//!
//! The paper (10 KB objects): baseline 133 ms; HAProxy 144 ms
//! (connection 8 ms + LB 5.23 ms on top of baseline(ish)); Yoda 151 ms
//! with only **0.89 ms** of that attributable to TCPStore. §7.1: a Yoda
//! instance saturates at 12K req/s where HAProxy sits at 46% CPU.
//!
//! Measurement: open-loop clients fetch a ~10 KB object; the baseline run
//! connects clients directly to a backend; the LB runs interpose a
//! one-instance LB tier (so the CPU sweep has a well-defined per-instance
//! rate). Storage and backend-connection components come from the Yoda
//! instance's own histograms — the same vantage the paper used.

use yoda_bench::report::{f2, print_header, print_kv, Table};
use yoda_bench::failover::LbKind;
use yoda_bench::{arg_f64, arg_flag};
use yoda_core::testbed::{Testbed, TestbedConfig};
use yoda_core::YodaInstance;
use yoda_http::{OriginServer, RateClient, RateClientConfig, ServerConfig, SiteCatalog, SiteConfig};
use yoda_netsim::{Addr, Endpoint, Engine, NodeId, SimTime, Topology, Zone};
use yoda_proxy::ProxyInstance;

/// Finds an object of roughly 10 KB in site 0 of a catalog.
fn small_object(catalog: &SiteCatalog) -> String {
    let site = catalog.site(0);
    site.objects
        .iter()
        .min_by_key(|o| (o.size as i64 - 10 * 1024).abs())
        .map(|o| o.path.clone())
        .expect("non-empty site")
}

struct RunResult {
    median_ms: f64,
    storage_ms: f64,
    connection_ms: f64,
}

fn run_baseline(rate: f64, duration: SimTime) -> RunResult {
    // Clients straight to one backend: Internet + server time only.
    let catalog = std::sync::Arc::new(SiteCatalog::generate(
        9,
        &[SiteConfig::default()],
    ));
    let mut eng = Engine::with_topology(9, Topology::azure_testbed());
    let server_ep = Endpoint::new(Addr::new(10, 1, 0, 1), 80);
    eng.add_node(
        "backend",
        server_ep.addr,
        Zone::Dc,
        Box::new(OriginServer::new(ServerConfig::default(), server_ep, catalog.clone())),
    );
    let path = small_object(&catalog);
    let addr = Addr::new(172, 16, 1, 1);
    let client: NodeId = eng.add_node(
        "client",
        addr,
        Zone::External,
        Box::new(RateClient::new(
            RateClientConfig {
                rate_per_sec: rate,
                target: server_ep,
                object_path: Some(path),
                duration: Some(duration),
                ..RateClientConfig::default()
            },
            addr,
            catalog,
        )),
    );
    eng.run_for(duration + SimTime::from_secs(5));
    let c = eng.node_mut::<RateClient>(client);
    RunResult {
        median_ms: c.fetch_latencies.median().unwrap_or(0.0),
        storage_ms: 0.0,
        connection_ms: 0.0,
    }
}

/// The one-instance, one-service testbed both LB runs share.
fn one_instance_testbed(lb: LbKind, num_backends: usize) -> Testbed {
    lb.testbed(TestbedConfig {
        seed: 9,
        num_instances: 1,
        num_services: 1,
        num_backends,
        ..TestbedConfig::default()
    })
}

fn run_lb(lb: LbKind, rate: f64, duration: SimTime) -> RunResult {
    let mut tb = one_instance_testbed(lb, 4);
    let path = small_object(&tb.catalog);
    let client = tb.add_rate_client(
        0,
        RateClientConfig {
            rate_per_sec: rate,
            object_path: Some(path),
            duration: Some(duration),
            ..RateClientConfig::default()
        },
    );
    tb.engine.run_for(duration + SimTime::from_secs(5));
    // Storage and connection components exist only on a Yoda instance.
    let (storage_ms, connection_ms) = match tb.engine.try_node_mut::<YodaInstance>(tb.instances[0]) {
        Some(i) => {
            let conn = i.conn_latency.median().unwrap_or(0.0);
            // Two sets per request (storage-a, storage-b), issued in
            // parallel per replica: critical-path cost = 2 × median set.
            let storage = 2.0 * i.store_client_mut().set_latency.median().unwrap_or(0.0);
            (storage, conn)
        }
        None => (0.0, 0.0),
    };
    let c = tb.engine.node_mut::<RateClient>(client);
    RunResult {
        median_ms: c.fetch_latencies.median().unwrap_or(0.0),
        storage_ms,
        connection_ms,
    }
}

/// CPU utilisation of the lone instance after `duration` at `rate`.
fn cpu_at(lb: LbKind, rate: f64, duration: SimTime) -> f64 {
    let mut tb = one_instance_testbed(lb, 8);
    let path = small_object(&tb.catalog);
    // Spread the load over several client nodes to avoid port reuse.
    for _ in 0..4 {
        tb.add_rate_client(
            0,
            RateClientConfig {
                rate_per_sec: rate / 4.0,
                object_path: Some(path.clone()),
                duration: Some(duration),
                ..RateClientConfig::default()
            },
        );
    }
    tb.engine.run_for(duration);
    let (inst, now) = (tb.instances[0], tb.engine.now());
    match lb {
        LbKind::Yoda => tb.engine.node_ref::<YodaInstance>(inst).cpu_utilization(now),
        LbKind::Proxy => tb.engine.node_ref::<ProxyInstance>(inst).cpu_utilization(now),
    }
}

fn cpu_sweep() {
    println!();
    print_header("§7.1 CPU", "Instance CPU utilisation vs request rate (small objects)");
    let duration = SimTime::from_secs(3);
    let mut t = Table::new(&["req/s", "Yoda CPU", "HAProxy CPU"]);
    for rate in [2_000.0, 5_000.0, 8_000.0, 10_000.0, 12_000.0] {
        t.row(&[
            format!("{rate:.0}"),
            format!("{:.0}%", cpu_at(LbKind::Yoda, rate, duration) * 100.0),
            format!("{:.0}%", cpu_at(LbKind::Proxy, rate, duration) * 100.0),
        ]);
    }
    t.print();
    print_kv("paper", "Yoda saturates at 12K req/s; HAProxy is at 46% there (~2.2x cheaper)");
}

fn main() {
    print_header("Figure 9", "Latency breakdown, request->response (10 KB objects, WAN clients)");
    let rate = arg_f64("rate", 400.0);
    let duration = SimTime::from_secs(arg_f64("secs", 10.0) as u64);
    let baseline = run_baseline(rate, duration);
    let yoda = run_lb(LbKind::Yoda, rate, duration);
    let proxy = run_lb(LbKind::Proxy, rate, duration);

    let mut t = Table::new(&["component", "Yoda (ms)", "HAProxy (ms)", "paper Yoda", "paper HAProxy"]);
    t.row(&[
        "end-to-end median".into(),
        f2(yoda.median_ms),
        f2(proxy.median_ms),
        "151".into(),
        "144".into(),
    ]);
    t.row(&[
        "baseline (no LB)".into(),
        f2(baseline.median_ms),
        f2(baseline.median_ms),
        "133".into(),
        "133".into(),
    ]);
    t.row(&[
        "backend connection".into(),
        f2(yoda.connection_ms),
        "-".into(),
        "10.4".into(),
        "8".into(),
    ]);
    t.row(&[
        "storage (TCPStore)".into(),
        f2(yoda.storage_ms),
        "0".into(),
        "0.89".into(),
        "0".into(),
    ]);
    let yoda_lb = yoda.median_ms - baseline.median_ms - yoda.storage_ms - yoda.connection_ms;
    let proxy_lb = proxy.median_ms - baseline.median_ms;
    t.row(&[
        "LB processing (residual)".into(),
        f2(yoda_lb.max(0.0)),
        f2(proxy_lb.max(0.0)),
        "8.2".into(),
        "5.23".into(),
    ]);
    t.print();
    print_kv(
        "key claim",
        "decoupling flow state into TCPStore adds <1 ms to a ~150 ms request",
    );

    if !arg_flag("no-cpu") {
        cpu_sweep();
    }
}
