//! The two L7 tiers are interchangeable to a client: the same seeded
//! browsers, attached to the same testbed, fetch the same pages with the
//! same object and byte counts whether the L7 slot holds the proxy
//! baseline (which terminates TCP and never translates a sequence number),
//! Yoda tunnelling every packet, or Yoda with mux splicing on.
//!
//! This is the count-level half of the Yoda-vs-proxy oracle (ROADMAP item
//! 1(ii)). The byte-*content* half needs a position-dependent catalog
//! filler — today every body byte is `b'x'`, so a shifted or duplicated
//! byte is invisible — and a body checksum in the clients; it is left to
//! that item.

use yoda::core::instance::{YodaConfig, YodaInstance};
use yoda::core::testbed::{Testbed, TestbedConfig};
use yoda::http::{BrowserClient, BrowserConfig};
use yoda::netsim::SimTime;
use yoda::proxy::ProxyConfig;

/// Per browser: `(pages_completed, completed, body_bytes, timeouts)`.
/// `splice: None` puts the proxy in the L7 slot.
fn browse(splice: Option<bool>) -> Vec<(u64, u64, u64, u64)> {
    let cfg = TestbedConfig {
        seed: 23,
        num_instances: 3,
        num_stores: 2,
        num_backends: 4,
        num_muxes: 2,
        num_services: 2,
        pages_per_site: 12,
        yoda: YodaConfig {
            splice: splice.unwrap_or(false),
            ..YodaConfig::default()
        },
        ..TestbedConfig::default()
    };
    // The proxy side keeps the (idle) stores, so the browsers get the same
    // node ids — hence the same per-node RNG streams — on every side.
    let mut tb = match splice {
        Some(_) => Testbed::build(cfg),
        None => Testbed::build_with(cfg, yoda::proxy::tier(ProxyConfig::default())),
    };
    tb.engine.run_for(SimTime::from_secs(1));
    let browser = BrowserConfig {
        processes: 1,
        max_pages: Some(5),
        ..BrowserConfig::default()
    };
    let ids: Vec<_> = (0..6)
        .map(|i| tb.add_browser(i % 2, browser.clone()))
        .collect();
    tb.engine.run_for(SimTime::from_secs(120));
    let splices: u64 = tb
        .instances
        .iter()
        .filter_map(|&id| tb.engine.try_node_ref::<YodaInstance>(id))
        .map(|y| y.splices_installed)
        .sum();
    assert_eq!(
        splices > 0,
        splice == Some(true),
        "the side under test is the side that ran"
    );
    ids.iter()
        .map(|&id| {
            let b = tb.engine.node_ref::<BrowserClient>(id);
            assert_eq!(
                (b.pages_completed, b.broken_flows),
                (5, 0),
                "splice={splice:?}"
            );
            (b.pages_completed, b.completed, b.body_bytes, b.timeouts)
        })
        .collect()
}

#[test]
fn clients_cannot_tell_the_tiers_apart() {
    let proxy = browse(None);
    assert!(
        proxy.iter().all(|b| b.2 > 100_000),
        "pages of real size: {proxy:?}"
    );
    assert_eq!(browse(Some(false)), proxy, "Yoda tunnelling vs proxy");
    assert_eq!(browse(Some(true)), proxy, "Yoda splicing vs proxy");
}
