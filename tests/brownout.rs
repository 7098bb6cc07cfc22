//! Store-brownout headline (tier-1): every TCPStore server slowed 10×,
//! none killed.
//!
//! The gray-failure machinery — hedged reads, bounded retries, replica
//! quarantine, and degraded-mode instances with a bounded write-behind
//! buffer — must keep new connections succeeding (≥ 99%) with bounded
//! tail latency, drain the buffer after the heal, and do all of it
//! bit-for-bit reproducibly.
//!
//! The testbed uses a deliberately modest store tier (8 ms/op instead of
//! the stock 50 µs) so the 10× brownout saturates it and ops queue past
//! the 100 ms client op timeout — the regime degraded mode exists for.

use yoda::core::instance::YodaInstance;
use yoda::core::testbed::{Testbed, TestbedConfig};
use yoda::http::{BrowserClient, BrowserConfig};
use yoda::netsim::SimTime;
use yoda::tcpstore::StoreServerConfig;

/// The brownout slowdown factor of the headline experiment.
const FACTOR: f64 = 10.0;

/// Everything externally observable about a brownout run; `PartialEq`
/// so the determinism tests compare whole runs at once.
#[derive(Debug, PartialEq, Eq)]
struct BrownoutPrint {
    digest: u64,
    events: u64,
    completed: u64,
    timeouts: u64,
    resets: u64,
    broken: u64,
    degraded_entries: u64,
    wb_enqueued: u64,
    wb_drained: u64,
    wb_dropped: u64,
    wb_queued_end: u64,
    degraded_end: u64,
    shed_reads: u64,
    store_timeouts: u64,
    store_hedges: u64,
    store_retries: u64,
    store_quarantines: u64,
}

impl BrownoutPrint {
    /// Fraction of finished fetches that succeeded.
    fn success(&self) -> f64 {
        let finished = self.completed + self.timeouts + self.resets + self.broken;
        assert!(finished > 0, "run finished no fetches");
        self.completed as f64 / finished as f64
    }
}

/// Runs the brownout scenario and returns its fingerprint plus the p99
/// request latency in ms.
fn brownout_run() -> (BrownoutPrint, f64) {
    let mut tb = Testbed::build(TestbedConfig {
        seed: 0xB0B0,
        num_instances: 3,
        num_stores: 3,
        num_muxes: 2,
        num_backends: 6,
        num_services: 2,
        pages_per_site: 12,
        store: StoreServerConfig {
            per_op_service: SimTime::from_millis(8),
            ..StoreServerConfig::default()
        },
        ..TestbedConfig::default()
    });
    tb.engine.run_for(SimTime::from_secs(1));
    let browsers: Vec<_> = (0..2)
        .map(|s| {
            tb.add_browser(
                s,
                // Paper-standard browser: 30 s HTTP timeout ("the least
                // among the popular web browsers we tested"), retries on.
                BrowserConfig {
                    processes: 4,
                    retries: 2,
                    ..BrowserConfig::default()
                },
            )
        })
        .collect();
    // ALL stores brown out at 3 s and heal at 11 s; the run continues to
    // 20 s so the write-behind buffers drain on camera.
    for i in 0..tb.stores.len() {
        tb.slowdown_store_at(i, FACTOR, SimTime::from_secs(3));
        tb.slowdown_store_at(i, 1.0, SimTime::from_secs(11));
    }
    tb.engine.run_for(SimTime::from_secs(20));

    let mut print = BrownoutPrint {
        digest: tb.engine.event_digest(),
        events: tb.engine.events_processed(),
        completed: 0,
        timeouts: 0,
        resets: 0,
        broken: 0,
        degraded_entries: 0,
        wb_enqueued: 0,
        wb_drained: 0,
        wb_dropped: 0,
        wb_queued_end: 0,
        degraded_end: 0,
        shed_reads: 0,
        store_timeouts: 0,
        store_hedges: 0,
        store_retries: 0,
        store_quarantines: 0,
    };
    let mut lat = yoda::netsim::Histogram::new();
    for &b in &browsers {
        let bc = tb.engine.node_ref::<BrowserClient>(b);
        print.completed += bc.completed;
        print.timeouts += bc.timeouts;
        print.resets += bc.resets;
        print.broken += bc.broken_flows;
        lat.merge(&bc.request_latencies);
    }
    let wb_cap = yoda::core::instance::WRITE_BEHIND_CAP as u64;
    for &i in &tb.instances {
        let inst = tb.engine.node_ref::<YodaInstance>(i);
        print.degraded_entries += inst.degraded_entries;
        let dur = inst.durability();
        print.wb_enqueued += dur.wb_enqueued;
        print.wb_drained += dur.wb_drained;
        print.wb_dropped += dur.wb_dropped;
        let queued = dur.write_behind_len() as u64;
        print.wb_queued_end += queued;
        assert!(
            queued <= wb_cap,
            "write-behind queue {queued} over cap {wb_cap}"
        );
        print.degraded_end += u64::from(dur.is_degraded());
        print.shed_reads += inst.shed_reads;
        let sc = inst.store_client();
        print.store_timeouts += sc.timeouts;
        print.store_hedges += sc.hedges;
        print.store_retries += sc.retries;
        print.store_quarantines += sc.quarantines;
    }
    // Write-behind conservation: every enqueued record is drained,
    // dropped, or still queued — no silent losses.
    assert_eq!(
        print.wb_enqueued,
        print.wb_drained + print.wb_dropped + print.wb_queued_end,
        "write-behind records unaccounted for"
    );
    (print, lat.percentile(99.0).unwrap_or(0.0))
}

/// The headline: all stores 10× slow for 8 s, none killed — the testbed
/// keeps serving. New-connection success ≥ 99%, p99 bounded by the
/// client's own HTTP budget, degraded mode demonstrably engaged, and the
/// write-behind buffer fully drained after the heal.
#[test]
fn all_stores_10x_slow_keeps_serving() {
    let (print, p99_ms) = brownout_run();
    assert!(
        print.success() >= 0.99,
        "new-connection success {:.4} < 0.99\n{print:#?}",
        print.success()
    );
    assert!(
        p99_ms <= 30_000.0,
        "p99 {p99_ms} ms exceeds the 30 s HTTP budget\n{print:#?}"
    );
    assert_eq!(print.broken, 0, "brownout broke flows\n{print:#?}");
    // The run must actually exercise the gray machinery, not coast on an
    // over-provisioned store tier.
    assert!(print.store_timeouts > 0, "no store op timed out\n{print:#?}");
    assert!(print.store_retries > 0, "no write was retried\n{print:#?}");
    assert!(print.degraded_entries > 0, "degraded mode never engaged\n{print:#?}");
    assert!(print.wb_enqueued > 0, "nothing was written behind\n{print:#?}");
    // Brownout heal ⇒ write-behind drains: by run end (9 s after the
    // heal) every instance is re-armed and its buffer replayed.
    assert_eq!(print.degraded_end, 0, "instance still degraded at end\n{print:#?}");
    assert_eq!(print.wb_queued_end, 0, "write-behind never drained\n{print:#?}");
}

/// Hedged and retried store traffic is bit-for-bit reproducible: two
/// identical runs produce the same digest, event count, and counters.
/// (Hedge delays come from latency EWMAs and retry jitter from seeded
/// per-node streams — nothing wall-clock ever leaks in.)
#[test]
fn brownout_run_is_byte_identical() {
    let (a, _) = brownout_run();
    let (b, _) = brownout_run();
    assert!(
        a.store_timeouts > 0 && a.store_retries > 0,
        "determinism run never exercised the retry path\n{a:#?}"
    );
    assert_eq!(a, b, "brownout run diverged across identical replays");
}
