//! Failover demo: Yoda's headline feature next to the proxy baseline.
//!
//! Kills 2 of 6 LB instances while long downloads are mid-flight, twice:
//! once with Yoda (flows migrate to surviving instances via TCPStore and
//! complete), once with an HAProxy-style proxy (the dead instances' flows
//! hang until the browser's HTTP timeout).
//!
//! Run with:
//! ```text
//! cargo run --release --example failover
//! ```

use yoda::core::YodaInstance;
use yoda::core::{Target, Testbed, TestbedConfig};
use yoda::http::{BrowserClient, BrowserConfig};
use yoda::netsim::SimTime;

fn main() {
    for yoda in [true, false] {
        if yoda {
            println!("== Yoda: fail 2/6 instances mid-download ==");
        } else {
            println!("\n== HAProxy baseline: same failure ==");
        }
        let cfg = TestbedConfig {
            seed: 7,
            num_instances: 6,
            ..TestbedConfig::default()
        };
        let mut tb = if yoda {
            Testbed::build(cfg)
        } else {
            Testbed::build_proxy(cfg)
        };
        let largest = tb
            .catalog
            .site(0)
            .objects
            .iter()
            .max_by_key(|o| o.size)
            .map(|o| o.path.clone())
            .expect("objects");
        tb.engine.run_for(SimTime::from_secs(1)); // control plane warmup
        let browser = tb.add_browser(
            0,
            BrowserConfig {
                processes: 20,
                max_pages: Some(1),
                fixed_object: Some(largest),
                http_timeout: SimTime::from_secs(30),
                ..BrowserConfig::default()
            },
        );
        tb.fail_at(Target::Instance(0), SimTime::from_millis(3000));
        tb.fail_at(Target::Instance(1), SimTime::from_millis(3000));
        tb.engine.run_for(SimTime::from_secs(60));
        // Only Yoda instances have a TCPStore to recover flows from.
        let recovered: u64 = tb
            .instances
            .iter()
            .filter(|&&i| tb.engine.is_alive(i))
            .filter_map(|&i| tb.engine.try_node_ref::<YodaInstance>(i))
            .map(|i| i.recoveries)
            .sum();
        let b = tb.engine.node_mut::<BrowserClient>(browser);
        println!(
            "  downloads completed : {}/{}",
            b.completed,
            b.completed + b.broken_flows
        );
        if yoda {
            println!("  broken flows        : {}", b.broken_flows);
            println!("  flows recovered via TCPStore: {recovered}");
        } else {
            println!(
                "  broken flows        : {} (hung until the 30 s HTTP timeout)",
                b.broken_flows
            );
        }
        println!(
            "  max download time   : {:.1} s",
            b.request_latencies.max().unwrap_or(0.0) / 1000.0
        );
    }
}
