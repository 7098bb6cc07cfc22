//! An open-loop client issues at any configured rate without stalling
//! the run: a zero rate is clamped to the slowest one instead of
//! panicking on an infinite tick, and a rate above the clock's 1 µs
//! grain issues one request per microsecond instead of re-arming its
//! tick at the same instant forever.

use std::sync::Arc;
use yoda::http::{OriginServer, RateClient, RateClientConfig, ServerConfig};
use yoda::http::{SiteCatalog, SiteConfig};
use yoda::netsim::{Addr, Endpoint, Engine, NodeId, SimTime, Topology, Zone};

const SERVER: Endpoint = Endpoint::new(Addr::new(10, 1, 0, 1), 80);

/// An origin at `SERVER` and a rate client fetching from it at `rate`
/// for `duration`; returns the engine and the client.
fn bed(rate_per_sec: f64, duration: SimTime) -> (Engine, NodeId) {
    let site = SiteConfig {
        pages: 5,
        ..SiteConfig::default()
    };
    let catalog = Arc::new(SiteCatalog::generate(5, &[site]));
    let mut eng = Engine::with_topology(3, Topology::uniform(SimTime::from_millis(2)));
    let origin = OriginServer::new(ServerConfig, SERVER, catalog.clone());
    eng.add_node("origin", SERVER.addr, Zone::Dc, Box::new(origin));
    let cfg = RateClientConfig {
        rate_per_sec,
        target: SERVER,
        duration: Some(duration),
        ..RateClientConfig::default()
    };
    let addr = Addr::new(172, 16, 0, 1);
    let client = RateClient::new(cfg, addr, catalog);
    let id = eng.add_node("client", addr, Zone::Dc, Box::new(client));
    (eng, id)
}

#[test]
fn a_zero_rate_issues_nothing_and_does_not_panic() {
    let (mut eng, id) = bed(0.0, SimTime::from_secs(1));
    eng.run_for(SimTime::from_secs(1));
    assert_eq!(eng.node_ref::<RateClient>(id).issued, 0);
}

#[test]
fn a_rate_above_the_clock_grain_reaches_its_deadline() {
    let deadline = SimTime::from_millis(1);
    let (mut eng, id) = bed(3e6, deadline);
    // Bounded, so a tick stuck at one instant fails here rather than hang.
    let mut budget = 200_000;
    while eng.now() < deadline && budget > 0 && eng.step() {
        budget -= 1;
    }
    assert!(eng.now() >= deadline, "the clock stalled at {}", eng.now());
    // No response is back before 4 ms: the client is only issuing.
    eng.run_until(SimTime::from_millis(2));
    // One request a microsecond, from the first tick at 1 µs until the
    // duration is up.
    assert_eq!(eng.node_ref::<RateClient>(id).issued, 999);
}
