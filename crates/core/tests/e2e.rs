//! End-to-end tests of the full Yoda testbed: real browser clients, edge
//! router, muxes, Yoda instances, TCPStore, and backends.

use yoda_core::YodaInstance;
use yoda_core::{Testbed, TestbedConfig};
use yoda_http::{BrowserClient, BrowserConfig, OriginServer, RateClient, RateClientConfig};
use yoda_netsim::SimTime;

fn small_testbed(seed: u64) -> Testbed {
    Testbed::build(TestbedConfig {
        seed,
        num_instances: 4,
        num_stores: 3,
        num_backends: 8,
        num_muxes: 3,
        num_services: 2,
        pages_per_site: 20,
        ..TestbedConfig::default()
    })
}

#[test]
fn browser_fetches_pages_through_yoda() {
    let mut tb = small_testbed(7);
    let browser = tb.add_browser(
        0,
        BrowserConfig {
            processes: 4,
            max_pages: Some(2),
            ..BrowserConfig::default()
        },
    );
    tb.engine.run_for(SimTime::from_secs(60));
    let b = tb.engine.node_ref::<BrowserClient>(browser);
    assert_eq!(b.pages_completed, 8, "all pages fetched through the LB");
    assert_eq!(b.broken_flows, 0);
    assert_eq!(b.timeouts, 0);
    assert!(b.completed >= 8);

    // The instances actually served the requests (and tunneled packets).
    let total_requests: u64 = tb
        .instances
        .iter()
        .map(|&i| tb.engine.node_ref::<YodaInstance>(i).requests)
        .sum();
    assert_eq!(total_requests, b.completed, "each fetch hit one instance");
    let tunneled: u64 = tb
        .instances
        .iter()
        .map(|&i| tb.engine.node_ref::<YodaInstance>(i).tunneled_packets)
        .sum();
    assert!(tunneled > 0);
}

#[test]
fn wan_latency_shape_matches_paper_baseline() {
    // Paper Fig. 9: ~133 ms baseline + LB processing => ~151 ms median
    // for 10 KB objects. Our WAN is ~128 ms RTT; an object fetch through
    // Yoda costs connection setup (1 WAN RTT) + request/response
    // (1+ WAN RTT) => ≳260 ms per object. Just sanity-check the order of
    // magnitude and that the storage detour is NOT on the critical path
    // visible to the client beyond a millisecond.
    let mut tb = small_testbed(11);
    let browser = tb.add_browser(
        0,
        BrowserConfig {
            processes: 2,
            max_pages: Some(2),
            ..BrowserConfig::default()
        },
    );
    tb.engine.run_for(SimTime::from_secs(120));
    let b = tb.engine.node_mut::<BrowserClient>(browser);
    assert!(b.completed > 0);
    let median = b.request_latencies.median().expect("completed > 0");
    assert!(
        median > 200.0 && median < 3_000.0,
        "object fetch median {median} ms"
    );
}

#[test]
fn two_services_are_isolated() {
    let mut tb = small_testbed(13);
    let b0 = tb.add_browser(
        0,
        BrowserConfig {
            processes: 2,
            max_pages: Some(2),
            ..BrowserConfig::default()
        },
    );
    let b1 = tb.add_browser(
        1,
        BrowserConfig {
            processes: 2,
            max_pages: Some(2),
            ..BrowserConfig::default()
        },
    );
    tb.engine.run_for(SimTime::from_secs(90));
    for id in [b0, b1] {
        let b = tb.engine.node_ref::<BrowserClient>(id);
        assert_eq!(b.pages_completed, 4);
        assert_eq!(b.broken_flows, 0);
    }
    // Each service's backends served exactly its own browser's requests.
    for (service, id) in [b0, b1].into_iter().enumerate() {
        let served: u64 = tb.service_backends[service]
            .iter()
            .filter_map(|ep| tb.engine.node_by_addr(ep.addr))
            .map(|b| tb.engine.node_ref::<OriginServer>(b).requests)
            .sum();
        let completed = tb.engine.node_ref::<BrowserClient>(id).completed;
        assert!(served > 0);
        assert_eq!(served, completed, "service {service}");
    }
}

#[test]
fn instance_failure_is_transparent_to_clients() {
    // The paper's headline (§7.2): fail instances mid-run; Yoda maintains
    // every flow. 2 of 4 instances die at t = 5 s.
    let mut tb = small_testbed(17);
    let browser = tb.add_browser(
        0,
        BrowserConfig {
            processes: 8,
            max_pages: Some(4),
            ..BrowserConfig::default()
        },
    );
    tb.fail_instance_at(0, SimTime::from_secs(5));
    tb.fail_instance_at(1, SimTime::from_secs(5));
    tb.engine.run_for(SimTime::from_secs(180));
    let recovered: u64 = tb
        .instances
        .iter()
        .filter(|&&i| tb.engine.is_alive(i))
        .map(|&i| tb.engine.node_ref::<YodaInstance>(i).recoveries)
        .sum();
    let b = tb.engine.node_ref::<BrowserClient>(browser);
    assert_eq!(
        b.pages_completed, 32,
        "every page completed despite failures"
    );
    assert_eq!(
        b.broken_flows, 0,
        "no flow broken (paper: Yoda-noretry breaks none)"
    );
    assert_eq!(b.timeouts, 0);
    assert!(
        recovered > 0,
        "surviving instances recovered flows from TCPStore"
    );
}

#[test]
fn prequal_quarantines_failed_backend_and_keeps_serving() {
    let mut tb = Testbed::build(TestbedConfig {
        seed: 23,
        num_instances: 2,
        num_stores: 3,
        num_backends: 4,
        num_muxes: 2,
        num_services: 1,
        pages_per_site: 10,
        ..TestbedConfig::default()
    });
    let vip = tb.vips[0];
    let backends: Vec<String> = tb.service_backends[0]
        .iter()
        .map(|b| b.to_string())
        .collect();
    let rules = format!(
        "name=pq priority=1 match * action=prequal {}",
        backends.join(" ")
    );
    // After (not racing) the builder's t=0 equal-split install.
    tb.set_policy_at(vip, &rules, SimTime::from_millis(200));
    let client = tb.add_rate_client(
        0,
        RateClientConfig {
            rate_per_sec: 200.0,
            duration: Some(SimTime::from_secs(10)),
            ..RateClientConfig::default()
        },
    );

    // Kill one prequal backend mid-run: in-flight probes to it time
    // out, every instance quarantines it, and selection shifts to the
    // survivors well before the controller's slower failure broadcast.
    tb.fail_backend_at(0, SimTime::from_secs(3));
    tb.engine.run_for(SimTime::from_secs(14));

    let mut sent = 0;
    let mut timed_out = 0;
    let mut quarantines = 0;
    for &i in &tb.instances {
        let p = tb.engine.node_ref::<YodaInstance>(i).prober();
        sent += p.probes_sent;
        timed_out += p.probes_timed_out;
        quarantines += p.quarantines;
    }
    assert!(sent > 1_000, "prequal instances probed ({sent} probes)");
    assert!(timed_out > 0, "probes to the dead backend timed out");
    assert!(
        quarantines >= tb.instances.len() as u64,
        "every instance quarantined the dead backend ({quarantines})"
    );

    let c = tb.engine.node_ref::<RateClient>(client);
    assert!(
        c.completed >= c.issued * 9 / 10,
        "service continued through the failure ({}/{} completed)",
        c.completed,
        c.issued
    );
    assert_eq!(c.timeouts, 0, "no request hit the 30 s HTTP timeout");
}
