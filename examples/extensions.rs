//! §5.2 extension features: SSL termination and request mirroring.
//!
//! * **SSL**: the LB serves a certificate to every new connection; a
//!   mid-handshake instance failure is healed by a surviving instance
//!   re-sending the *entire* certificate (the client's TCP reassembly
//!   discards the duplicate prefix).
//! * **Mirroring**: one request fans out to three backends; the first
//!   response is tunneled to the client, the losers are cut loose.
//!
//! Run with:
//! ```text
//! cargo run --release --example extensions
//! ```

use yoda::core::YodaInstance;
use yoda::core::{Testbed, TestbedConfig};
use yoda::http::{BrowserClient, BrowserConfig, OriginServer};
use yoda::netsim::SimTime;

fn main() {
    println!("== SSL termination with failover during the handshake ==");
    {
        let mut tb = Testbed::build(TestbedConfig {
            seed: 3,
            num_instances: 2,
            num_stores: 2,
            num_backends: 4,
            num_muxes: 2,
            num_services: 1,
            pages_per_site: 15,
            ..TestbedConfig::default()
        });
        let vip = tb.vips[0];
        let rules = tb.equal_split_rules(0);
        // 3 KB certificate on the VIP.
        tb.set_ssl_policy_at(vip, &rules, 3000, SimTime::from_millis(500));
        tb.engine.run_for(SimTime::from_secs(1));
        let browser = tb.add_browser(
            0,
            BrowserConfig {
                processes: 4,
                max_pages: Some(2),
                tls: true,
                ..BrowserConfig::default()
            },
        );
        // Kill an instance right as the first hellos land.
        tb.fail_instance_at(0, SimTime::from_millis(1070));
        tb.engine.run_for(SimTime::from_secs(60));
        let b = tb.engine.node_ref::<BrowserClient>(browser);
        println!("  TLS pages completed : {}", b.pages_completed);
        println!("  broken flows        : {}", b.broken_flows);
        let recov: u64 = tb
            .instances
            .iter()
            .filter(|&&i| tb.engine.is_alive(i))
            .map(|&i| tb.engine.node_ref::<YodaInstance>(i).recoveries)
            .sum();
        println!("  flows recovered     : {recov} (certificate re-sent in full)");
    }

    println!("\n== Request mirroring: first response wins ==");
    {
        let mut tb = Testbed::build(TestbedConfig {
            seed: 4,
            num_instances: 2,
            num_stores: 2,
            num_backends: 3,
            num_muxes: 2,
            num_services: 1,
            pages_per_site: 15,
            ..TestbedConfig::default()
        });
        let vip = tb.vips[0];
        let b = tb.service_backends[0].clone();
        let rules = format!(
            "name=mirror priority=2 match * action=mirror {} {} {}",
            b[0], b[1], b[2]
        );
        tb.set_policy_at(vip, &rules, SimTime::from_millis(500));
        tb.engine.run_for(SimTime::from_secs(1));
        let obj = tb
            .catalog
            .site(0)
            .objects
            .iter()
            .min_by_key(|o| (o.size as i64 - 10 * 1024).abs())
            .map(|o| o.path.clone())
            .expect("objects");
        let browser = tb.add_browser(
            0,
            BrowserConfig {
                processes: 2,
                max_pages: Some(3),
                fixed_object: Some(obj),
                ..BrowserConfig::default()
            },
        );
        tb.engine.run_for(SimTime::from_secs(60));
        let bn = tb.engine.node_ref::<BrowserClient>(browser);
        println!(
            "  fetches completed   : {} (exactly one response each)",
            bn.completed
        );
        for (i, &id) in tb.backends.iter().enumerate() {
            let srv = tb.engine.node_ref::<OriginServer>(id);
            println!(
                "  backend {i} served   : {} requests (all mirrored)",
                srv.requests
            );
        }
    }
}
