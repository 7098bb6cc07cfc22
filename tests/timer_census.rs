//! Timers that would fire into nothing are cancelled, not delivered.
//!
//! Every TCPStore op arms a deadline, every HTTP fetch a timeout, and
//! every TLS hello a retry; once the op, the fetch or the handshake is
//! done, that timer has nothing left to do. The engine's
//! timer census counts, per timer kind, the fires a handler saw and the
//! idle ones among them (nothing sent, nothing armed). On a healthy bed
//! through Yoda no op runs into its deadline, so the deadline kind must
//! never fire, and no store, HTTP-timeout or hello-retry timer may fire
//! idle: each one is cancelled when its work ends.

use yoda::core::{Testbed, TestbedConfig};
use yoda::http::{
    BrowserClient, BrowserConfig, RateClient, RateClientConfig, TIMEOUT_KIND, TLS_RETRY_KIND,
};
use yoda::netsim::SimTime;
use yoda::tcpstore::STORE_TIMER_KIND;

/// `(fires, idle fires)` of one timer kind in the census.
fn census_row(tb: &Testbed, kind: u32) -> (u64, u64) {
    let census = tb.engine.timer_census();
    let row = census.iter().find(|r| r.0 == kind);
    row.map_or((0, 0), |r| (r.1, r.2))
}

fn small_bed(seed: u64) -> Testbed {
    Testbed::build(TestbedConfig {
        seed,
        num_instances: 2,
        num_stores: 3,
        num_backends: 4,
        num_muxes: 2,
        num_services: 1,
        pages_per_site: 10,
        ..TestbedConfig::default()
    })
}

#[test]
fn healthy_open_loop_fires_no_dead_store_or_http_timer() {
    let mut tb = small_bed(5);
    tb.engine.run_for(SimTime::from_secs(1));
    let client = tb.add_rate_client(
        0,
        RateClientConfig {
            rate_per_sec: 200.0,
            duration: Some(SimTime::from_secs(2)),
            ..RateClientConfig::default()
        },
    );
    // Long enough for every request to finish, a lost SYN included (its
    // retransmission waits out the 3 s SYN RTO), and for the 30 s timeout
    // of the last request to fire inside the run, had it been left armed.
    tb.engine.run_for(SimTime::from_secs(34));
    let c = tb.engine.node_ref::<RateClient>(client);
    assert_eq!((c.completed, c.timeouts, c.resets), (c.issued, 0, 0));
    assert!(c.issued >= 399, "issued {}", c.issued);

    let census = tb.engine.timer_census();
    assert_eq!(
        census_row(&tb, STORE_TIMER_KIND),
        (0, 0),
        "an op deadline fired: {census:x?}"
    );
    let idle = census_row(&tb, TIMEOUT_KIND).1;
    assert_eq!(idle, 0, "an HTTP timeout fired idle: {census:x?}");
    // The census saw the bed at all: TCP timers and the client's ticks.
    assert!(census.iter().map(|r| r.1).sum::<u64>() > c.issued);
}

#[test]
fn healthy_tls_browsing_fires_no_dead_hello_retry() {
    let mut tb = small_bed(41);
    let (vip, rules) = (tb.vips[0], tb.equal_split_rules(0));
    tb.set_ssl_policy_at(vip, &rules, 3000, SimTime::from_millis(500));
    tb.engine.run_for(SimTime::from_secs(1));
    let browser = tb.add_browser(
        0,
        BrowserConfig {
            processes: 2,
            tls: true,
            ..BrowserConfig::default()
        },
    );
    // Many handshakes, each far shorter than the 3 s hello retry: every
    // retry must be cancelled when its certificate arrives.
    tb.engine.run_for(SimTime::from_secs(20));
    let b = tb.engine.node_ref::<BrowserClient>(browser);
    assert!(b.completed >= 20, "completed {}", b.completed);
    assert_eq!((b.broken_flows, b.timeouts, b.resets), (0, 0, 0));
    let census = tb.engine.timer_census();
    let idle = census_row(&tb, TLS_RETRY_KIND).1;
    assert_eq!(idle, 0, "a hello retry fired idle: {census:x?}");
}
