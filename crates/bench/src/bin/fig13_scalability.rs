//! Figure 13: Yoda scalability — elastic instance addition under load.
//!
//! Paper: 6 instances at 5K req/s each (≈40% CPU); at t=10 s the offered
//! load doubles to 10K req/s per instance (≈80% CPU); the controller adds
//! 3 instances, dropping per-instance load to ≈6.7K req/s and CPU to
//! ≈60%. "Importantly, all client flows were maintained throughout the
//! experiment", and latency shows no spike because queues only build once
//! CPU saturates.
//!
//! The default run is scaled to 1/5 of the paper's rates (same CPU
//! fractions — the instance capacity constant is scaled identically) so
//! it completes in seconds; pass `--scale 1` for full scale.

use yoda_bench::report::{f1, print_header, print_kv, Table};
use yoda_bench::{arg_f64, TimeSeries};
use yoda_core::controller::{AutoscaleConfig, ControllerConfig};
use yoda_core::testbed::{Testbed, TestbedConfig};
use yoda_core::{YodaConfig, YodaInstance};
use yoda_http::{RateClient as HttpRateClient, RateClientConfig};
use yoda_netsim::SimTime;

fn main() {
    print_header("Figure 13", "Scalability: autoscaler adds instances under load");
    let scale = arg_f64("scale", 0.1);
    let base_rate = 5_000.0 * scale; // per-instance offered load, phase 1
    let cpu_scale = 1.0 / scale;
    print_kv("scale factor", scale);

    let yoda = YodaConfig {
        // Per-request CPU scaled so the same *fraction* of capacity is
        // used at the scaled rates.
        per_pkt_cpu: SimTime::from_micros((16.0 * cpu_scale) as u64),
        per_conn_cpu: SimTime::from_micros((300.0 * cpu_scale) as u64),
        ..YodaConfig::default()
    };
    let mut tb = Testbed::build(TestbedConfig {
        seed: 13,
        num_instances: 6,
        num_spares: 4,
        num_services: 1,
        num_backends: 12,
        yoda,
        controller: ControllerConfig {
            autoscale: Some(AutoscaleConfig {
                high_cpu: 0.70,
                target_cpu: 0.55,
            }),
        },
        ..TestbedConfig::default()
    });
    // ~10 KB objects, as in the paper's Apache-bench runs (and matching
    // the per-request CPU calibration of ~20 packets/request).
    let obj = tb
        .catalog
        .site(0)
        .objects
        .iter()
        .min_by_key(|o| (o.size as i64 - 10 * 1024).abs())
        .map(|o| o.path.clone())
        .expect("objects");

    // Warm up control plane, then phase 1 load from t=1 s, phase 2
    // (doubled) from t=11 s.
    let n_inst = 6.0;
    let clients = 6;
    for phase in 0..2 {
        for c in 0..clients {
            let rate = base_rate * n_inst / clients as f64;
            let start_at = SimTime::from_secs(1 + phase * 10);
            let duration = if phase == 0 {
                SimTime::from_secs(30)
            } else {
                SimTime::from_secs(20)
            };
            let cfgc = RateClientConfig {
                rate_per_sec: rate,
                object_path: Some(obj.clone()),
                duration: Some(duration),
                ..RateClientConfig::default()
            };
            // Phase-2 clients are added later via scheduling: build now,
            // attach at start time.
            if phase == 0 {
                tb.add_rate_client(0, cfgc);
            } else {
                let catalog = tb.catalog.clone();
                let vip = tb.vips[0];
                let addr = yoda_netsim::Addr::new(172, 16, 2, (c + 1) as u8);
                let node = HttpRateClient::new(
                    RateClientConfig {
                        target: vip,
                        host: "service0.test".into(),
                        ..cfgc
                    },
                    addr,
                    catalog,
                );
                tb.engine.schedule(start_at, move |eng| {
                    eng.add_node(
                        format!("rate2-{addr}"),
                        addr,
                        yoda_netsim::Zone::External,
                        Box::new(node),
                    );
                });
            }
        }
    }

    // Sample mean CPU + live instance count every second.
    let series = TimeSeries::new();
    let instances: Vec<_> = tb.instances.clone();
    let spares: Vec<_> = tb.spares.clone();
    series.install(
        &mut tb.engine,
        SimTime::from_secs(1),
        SimTime::from_secs(1),
        SimTime::from_secs(30),
        move |eng| {
            let now = eng.now();
            let mut cpu = Vec::new();
            for &i in instances.iter().chain(spares.iter()) {
                let inst = eng.node_ref::<YodaInstance>(i);
                let u = inst.cpu_utilization(now);
                if inst.requests > 0 || u > 0.001 {
                    cpu.push(u);
                }
            }
            let serving = cpu.len() as f64;
            let mean = if cpu.is_empty() {
                0.0
            } else {
                cpu.iter().sum::<f64>() / serving
            };
            // No window reset here: the controller's stats poll owns the
            // measurement windows; this sampler only observes.
            vec![mean, serving.max(6.0)]
        },
    );
    tb.engine.run_for(SimTime::from_secs(32));

    let mut t = Table::new(&["t (s)", "mean CPU", "serving instances"]);
    for (time, vals) in series.rows() {
        t.row(&[
            format!("{:.0}", time.as_secs_f64()),
            format!("{:.0}%", vals[0] * 100.0),
            f1(vals[1]),
        ]);
    }
    t.print();

    // Flow integrity: no client saw a timeout or reset.
    let mut timeouts = 0;
    let mut resets = 0;
    let mut completed = 0;
    let mut issued = 0;
    let client_ids = tb_client_ids(&tb);
    for id in client_ids {
        let c = tb.engine.node_ref::<HttpRateClient>(id);
        timeouts += c.timeouts;
        resets += c.resets;
        completed += c.completed;
        issued += c.issued;
    }
    print_kv("requests issued / completed", format!("{issued} / {completed}"));
    print_kv("requests timed out", timeouts);
    print_kv("requests reset", resets);
    print_kv(
        "paper",
        "CPU 40% -> 80% after load doubles; +3 instances -> ~60%; all flows maintained",
    );
}

/// Client nodes attached via `add_rate_client` occupy the trailing node
/// ids; rather than track them we scan for RateClient nodes by probing
/// known addresses.
fn tb_client_ids(tb: &Testbed) -> Vec<yoda_netsim::NodeId> {
    let mut ids = Vec::new();
    // Phase-1 clients: 172.16.1.x, phase-2: 172.16.2.x.
    for net in [1u8, 2] {
        for host in 1..=16u8 {
            let addr = yoda_netsim::Addr::new(172, 16, net, host);
            if let Some(id) = tb.engine.node_by_addr(addr) {
                ids.push(id);
            }
        }
    }
    ids
}
