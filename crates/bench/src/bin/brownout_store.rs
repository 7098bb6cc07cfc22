//! Store brownout: availability under a gray failure of the whole store
//! tier.
//!
//! Every TCPStore server is slowed 10× for a window mid-run — none are
//! killed, all keep answering pings, so classic liveness health checks
//! see a healthy tier while every flow-record write crawls. The
//! gray-failure machinery keeps the data path available anyway: every
//! store op fans out to all replicas and a read completes on the first
//! hit, and instances that see consecutive write timeouts enter degraded
//! mode (serve flows immediately, queue records in a bounded
//! write-behind buffer, drain after the heal). A write is sent once to
//! each replica and never re-sent.
//!
//! The headline: with all stores 10× slow, new-connection success stays
//! ≥99% with bounded p99 — against a baseline where SYN-ACKs block on
//! store acks and the whole handshake path inherits the brownout.

use yoda_bench::StoreStatsSummary;
use yoda_bench::{f2, pct, print_header, print_kv};
use yoda_core::YodaInstance;
use yoda_core::{Target, Testbed, TestbedConfig};
use yoda_http::{BrowserClient, BrowserConfig};
use yoda_netsim::{Histogram, SimTime};
use yoda_tcpstore::StoreServerConfig;

/// Slowdown applied to every store in the brownout run.
const FACTOR: f64 = 10.0;
/// Simulated run length in seconds.
const SECS: u64 = 30;

struct Out {
    completed: u64,
    started: u64,
    timeouts: u64,
    resets: u64,
    broken: u64,
    p50_ms: f64,
    p99_ms: f64,
    degraded_entries: u64,
    wb_enqueued: u64,
    wb_drained: u64,
    wb_dropped: u64,
    shed_reads: u64,
    store_stats: StoreStatsSummary,
}

impl Out {
    /// Fraction of finished fetches that succeeded (fetches still in
    /// flight when the run ends are neither success nor failure).
    fn success(&self) -> f64 {
        let finished = self.completed + self.timeouts + self.resets + self.broken;
        if finished == 0 {
            return 0.0;
        }
        self.completed as f64 / finished as f64
    }
}

fn run(factor: f64) -> Out {
    // A modest store tier (8 ms/op instead of the stock 50 µs) so a 10×
    // brownout saturates the tier and queues ops past the 100 ms timeout:
    // writes stop completing and degraded mode engages. At factor 1 the
    // tier is comfortably over-provisioned for this load.
    let mut tb = Testbed::build(TestbedConfig {
        num_instances: 4,
        num_stores: 3,
        num_muxes: 2,
        num_backends: 8,
        num_services: 2,
        store: StoreServerConfig {
            per_op_service: SimTime::from_millis(8),
        },
        ..TestbedConfig::default()
    });
    tb.engine.run_for(SimTime::from_secs(1));
    let browser_cfg = BrowserConfig {
        processes: 4,
        retries: 2,
        http_timeout: SimTime::from_secs(10),
        ..BrowserConfig::default()
    };
    let ids: Vec<_> = (0..2)
        .map(|s| tb.add_browser(s, browser_cfg.clone()))
        .collect();
    // Brownout window: the WHOLE store tier browns out shortly after the
    // browsers ramp, heals well before the deadline so the write-behind
    // queues drain on camera.
    let at = SimTime::from_secs(4);
    let heal = at + SimTime::from_secs(SECS / 2);
    for i in 0..tb.stores.len() {
        tb.slowdown_at(Target::Store(i), factor, at);
        tb.slowdown_at(Target::Store(i), 1.0, heal);
    }
    tb.engine.run_for(SimTime::from_secs(SECS));

    let mut lat = Histogram::new();
    let mut out = Out {
        completed: 0,
        started: 0,
        timeouts: 0,
        resets: 0,
        broken: 0,
        p50_ms: 0.0,
        p99_ms: 0.0,
        degraded_entries: 0,
        wb_enqueued: 0,
        wb_drained: 0,
        wb_dropped: 0,
        shed_reads: 0,
        store_stats: StoreStatsSummary::default(),
    };
    for &id in &ids {
        let b = tb.engine.node_ref::<BrowserClient>(id);
        out.completed += b.completed;
        out.started += b.started_fetches;
        out.timeouts += b.timeouts;
        out.resets += b.resets;
        out.broken += b.broken_flows;
        lat.merge(&b.request_latencies);
    }
    out.p50_ms = lat.percentile(50.0).unwrap_or(f64::NAN);
    out.p99_ms = lat.percentile(99.0).unwrap_or(f64::NAN);
    for &i in &tb.instances {
        let inst = tb.engine.node_ref::<YodaInstance>(i);
        out.degraded_entries += inst.degraded_entries;
        out.wb_enqueued += inst.durability().wb_enqueued;
        out.wb_drained += inst.durability().wb_drained;
        out.wb_dropped += inst.durability().wb_dropped;
        out.shed_reads += inst.shed_reads;
        out.store_stats.absorb(inst.store_client());
    }
    out
}

fn main() {
    print_header(
        "Store brownout",
        "gray failure of the whole store tier: fanned-out ops + degraded-mode instances",
    );
    print_kv("slowdown factor (all stores)", FACTOR);
    print_kv("run length (sim s)", SECS);

    let healthy = run(1.0);
    let brown = run(FACTOR);

    print_kv("healthy: success", pct(healthy.success()));
    print_kv(
        "healthy: p50/p99 (ms)",
        format!("{} / {}", f2(healthy.p50_ms), f2(healthy.p99_ms)),
    );
    print_kv("brownout: success", pct(brown.success()));
    print_kv(
        "brownout: p50/p99 (ms)",
        format!("{} / {}", f2(brown.p50_ms), f2(brown.p99_ms)),
    );
    print_kv(
        "availability delta (healthy - brownout)",
        pct(healthy.success() - brown.success()),
    );
    print_kv(
        "brownout: timeouts/resets/broken",
        format!("{} / {} / {}", brown.timeouts, brown.resets, brown.broken),
    );
    print_kv("brownout: degraded-mode entries", brown.degraded_entries);
    print_kv(
        "brownout: write-behind enq/drained/dropped",
        format!(
            "{} / {} / {}",
            brown.wb_enqueued, brown.wb_drained, brown.wb_dropped
        ),
    );
    print_kv("brownout: recovery reads shed", brown.shed_reads);
    print_kv("brownout: store ops timeouts", brown.store_stats.timeouts);
    println!("  per-replica store-client view (brownout run):");
    brown.store_stats.table().print();
}
