//! Quickstart: stand up a full Yoda deployment and serve real page loads.
//!
//! Builds the simulated equivalent of the paper's testbed — edge router,
//! L4 muxes, Yoda L7 instances, TCPStore, backends, controller — attaches
//! a browser, and fetches a few pages through the VIP.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use yoda::core::YodaInstance;
use yoda::core::{Testbed, TestbedConfig};
use yoda::http::{BrowserClient, BrowserConfig};
use yoda::netsim::SimTime;

fn main() {
    // A small deployment: 4 Yoda instances, 3 TCPStore servers, 8
    // backends across 2 online services, 3 L4 muxes.
    let mut tb = Testbed::build(TestbedConfig {
        seed: 1,
        num_instances: 4,
        num_stores: 3,
        num_backends: 8,
        num_muxes: 3,
        num_services: 2,
        pages_per_site: 25,
        ..TestbedConfig::default()
    });
    println!(
        "VIPs: {:?}",
        tb.vips.iter().map(|v| v.to_string()).collect::<Vec<_>>()
    );

    // A browser with 4 parallel fetch processes, 3 pages each.
    let browser = tb.add_browser(
        0,
        BrowserConfig {
            processes: 4,
            max_pages: Some(3),
            ..BrowserConfig::default()
        },
    );

    tb.engine.run_for(SimTime::from_secs(90));

    let b = tb.engine.node_mut::<BrowserClient>(browser);
    println!("pages completed : {}", b.pages_completed);
    println!("objects fetched : {}", b.completed);
    println!("broken flows    : {}", b.broken_flows);
    println!(
        "median page load: {:.0} ms",
        b.page_latencies.median().unwrap_or(0.0)
    );
    println!(
        "median object   : {:.0} ms",
        b.request_latencies.median().unwrap_or(0.0)
    );

    println!("\nper-instance activity:");
    for (&id, addr) in tb.instances.iter().zip(&tb.instance_addrs) {
        let inst = tb.engine.node_ref::<YodaInstance>(id);
        println!(
            "  {addr}: {} requests, {} tunneled packets, {} live flows",
            inst.requests,
            inst.tunneled_packets,
            inst.live_flows()
        );
    }
}
