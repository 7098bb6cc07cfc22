//! What the backends served is what the clients got.
//!
//! Clients no longer keep response bodies: they parse the head once and
//! count the bytes that follow it. This is the end-to-end check that the
//! count is right — through instances that rewrite every header (tunnel
//! mode) and through muxes that forward on their own (splice mode), the
//! body bytes of every completed request add up to exactly the bytes the
//! origin servers say they served.

use yoda::core::instance::{YodaConfig, YodaInstance};
use yoda::core::testbed::{Testbed, TestbedConfig};
use yoda::http::{BrowserClient, BrowserConfig, OriginServer, RateClient, RateClientConfig};
use yoda::netsim::SimTime;

fn served_equals_received(splice: bool) {
    let mut tb = Testbed::build(TestbedConfig {
        seed: 11,
        num_instances: 3,
        num_stores: 3,
        num_backends: 4,
        num_muxes: 2,
        num_services: 2,
        pages_per_site: 20,
        yoda: YodaConfig {
            splice,
            ..YodaConfig::default()
        },
        ..TestbedConfig::default()
    });
    tb.engine.run_for(SimTime::from_secs(1));
    // Bounded work on both clients, so nothing is in flight at the end:
    // whole pages (1 KB – 442 KB objects) and an open-loop stream.
    let browser = tb.add_browser(
        0,
        BrowserConfig {
            processes: 3,
            max_pages: Some(2),
            ..BrowserConfig::default()
        },
    );
    let rate = tb.add_rate_client(
        1,
        RateClientConfig {
            rate_per_sec: 20.0,
            duration: Some(SimTime::from_secs(2)),
            ..RateClientConfig::default()
        },
    );
    tb.engine.run_for(SimTime::from_secs(90));

    let b = tb.engine.node_ref::<BrowserClient>(browser);
    let r = tb.engine.node_ref::<RateClient>(rate);
    assert_eq!(
        (b.pages_completed, b.in_flight(), b.broken_flows),
        (6, 0, 0)
    );
    assert_eq!(
        b.started_fetches, b.completed,
        "every fetch completed first time"
    );
    assert_eq!((r.completed, r.timeouts, r.resets), (r.issued, 0, 0));
    assert!(b.completed > 6 && r.completed >= 39);

    let (mut requests, mut served) = (0, 0);
    for &id in &tb.backends {
        let origin = tb.engine.node_ref::<OriginServer>(id);
        requests += origin.requests;
        served += origin.bytes_served;
    }
    assert_eq!(requests, b.completed + r.completed);
    assert!(
        served > 1_000_000,
        "pages of real size were fetched: {served}"
    );
    assert_eq!(b.body_bytes + r.body_bytes, served, "splice={splice}");

    let spliced: u64 = tb
        .instances
        .iter()
        .map(|&id| tb.engine.node_ref::<YodaInstance>(id).splices_installed)
        .sum();
    assert_eq!(
        spliced > 0,
        splice,
        "the mode under test was the mode that ran"
    );
}

#[test]
fn tunnel_mode_conserves_payload() {
    served_equals_received(false);
}

#[test]
fn splice_mode_conserves_payload() {
    served_equals_received(true);
}
