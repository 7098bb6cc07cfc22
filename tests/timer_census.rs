//! Timers that would fire into nothing are cancelled, not delivered.
//!
//! Every TCPStore op arms a deadline (and a read a hedge), every HTTP
//! fetch a timeout; once the op or the fetch is done, that timer has
//! nothing left to do. The engine's timer census counts, per timer kind,
//! the fires a handler saw and the idle ones among them (nothing sent,
//! nothing armed). On a healthy open-loop bed through Yoda no op runs
//! into its deadline, so the deadline kind must never fire, and no store
//! or HTTP-timeout timer may fire idle: each one is cancelled when its
//! work ends.

use yoda::core::testbed::{Testbed, TestbedConfig};
use yoda::http::{RateClient, RateClientConfig, TIMEOUT_KIND};
use yoda::netsim::SimTime;
use yoda::tcpstore::{STORE_HEDGE_KIND, STORE_RETRY_KIND, STORE_TIMER_KIND};

#[test]
fn healthy_open_loop_fires_no_dead_store_or_http_timer() {
    let mut tb = Testbed::build(TestbedConfig {
        seed: 5,
        num_instances: 2,
        num_stores: 3,
        num_backends: 4,
        num_muxes: 2,
        num_services: 1,
        pages_per_site: 10,
        ..TestbedConfig::default()
    });
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
    let row = |kind| {
        census
            .iter()
            .find(|r| r.0 == kind)
            .map_or((0, 0), |r| (r.1, r.2))
    };
    assert_eq!(
        row(STORE_TIMER_KIND),
        (0, 0),
        "an op deadline fired: {census:x?}"
    );
    for kind in [STORE_HEDGE_KIND, STORE_RETRY_KIND, TIMEOUT_KIND] {
        assert_eq!(row(kind).1, 0, "kind {kind:#x} fired idle: {census:x?}");
    }
    // The census saw the bed at all: TCP timers and the client's ticks.
    assert!(census.iter().map(|r| r.1).sum::<u64>() > c.issued);
}
