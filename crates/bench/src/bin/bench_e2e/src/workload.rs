//! The four workloads and one measured pass over any of them: build the
//! paper-shape testbed, settle, attach clients, ramp, then run the
//! measured window and turn counter deltas into metrics.

use std::sync::Arc;
use std::time::Instant;

use yoda_core::{Controller, TestbedConfig, YodaConfig, YodaInstance};
use yoda_http::site::{Object, MIN_OBJECT_BYTES};
use yoda_http::{BrowserClient, BrowserConfig, OriginServer, RateClient, RateClientConfig};
use yoda_l4lb::{EdgeRouter, Mux};
use yoda_netsim::{NodeId, Rng, SimTime, Zone};
use yoda_tcpstore::StoreServer;

use crate::bed::Bed;
use crate::stats::{percentile, rss_and_peak_mb, window_samples};
use crate::timed::{dump_spans, Attribution, Kind, SpanLog};

/// Control plane converges (VIP maps pushed, first pings answered)
/// before any client exists.
const SETTLE: SimTime = SimTime::from_secs(1);
/// Pages per site. Four times `TestbedConfig`'s default: request sizes
/// are drawn from the catalog, and with 60 pages the mean size of what
/// a seed happens to generate moves requests per second by ±4 %.
const PAGES_PER_SITE: usize = 240;
/// Per-client request rate of `api_open`.
const API_RATE: f64 = 250.0;
/// The window runs as this many equal slices, each timed on its own. A
/// seed fixes the work of every slice, so the parent can take, slice by
/// slice, the fastest of several passes (see `quiet_wall_s` in main.rs).
pub const SLICES: u64 = 200;
/// What a request that never completed counts as in the latency
/// percentiles: the clients' HTTP timeout.
const FAILED_LATENCY_MS: f64 = 30_000.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BrowseClosed,
    ApiOpen,
    BulkSplice,
    FailoverClosed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BrowseClosed,
        Workload::ApiOpen,
        Workload::BulkSplice,
        Workload::FailoverClosed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BrowseClosed => "browse_closed",
            Workload::ApiOpen => "api_open",
            Workload::BulkSplice => "bulk_splice",
            Workload::FailoverClosed => "failover_closed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How long clients run before the window opens: a dozen round
    /// trips, so closed loops are past their synchronized start and open
    /// loops have flows in every stage of their life. Round trips are
    /// ~130 ms from outside the datacenter and under 1 ms inside it.
    fn ramp(self) -> SimTime {
        match self {
            Workload::BulkSplice => SimTime::from_millis(500),
            _ => SimTime::from_secs(2),
        }
    }

    /// Simulated length of the measured window, sized so each workload
    /// processes about 2 million events (3–5 wall seconds on the dev
    /// host): long enough for thousands of requests, short enough that a
    /// run affords the five passes the wall-time filter needs.
    fn window(self, smoke: bool) -> SimTime {
        let secs = match self {
            Workload::BrowseClosed | Workload::FailoverClosed => 15,
            Workload::ApiOpen => 12,
            Workload::BulkSplice => 3,
        };
        SimTime::from_millis(if smoke { secs * 100 } else { secs * 1000 })
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub workload: Workload,
    pub seed: u64,
    /// Windows a tenth as long: checks the plumbing, measures nothing.
    pub smoke: bool,
}

/// What one pass (one process) produced.
pub struct Pass {
    pub digest: u64,
    /// Every metric this pass can produce, plus the bookkeeping values
    /// `window_wall_s`, `events`, `requests`, `attempted`, `failed` and
    /// `latency_samples`.
    pub values: Vec<(String, f64)>,
    /// Wall seconds of each of the window's [`SLICES`] slices.
    pub slices: Vec<f64>,
    /// Output checks that did not hold.
    pub failures: Vec<String>,
}

/// Nodes to kill during the window, as (offset from window start, node).
fn kill_schedule(spec: Spec, bed: &Bed) -> Vec<(SimTime, NodeId)> {
    if spec.workload != Workload::FailoverClosed {
        return Vec::new();
    }
    // Victims and sub-slot timing come from the seed; the order (two
    // instances, a mux, a store) and the four slots are the workload.
    let mut rng = Rng::seed_from_u64(spec.seed ^ 0x6b69_6c6c);
    let first = rng.gen_range(0..bed.instances.len());
    let second = (first + rng.gen_range(1..bed.instances.len())) % bed.instances.len();
    let victims = [
        bed.instances[first],
        bed.instances[second],
        bed.muxes[rng.gen_range(0..bed.muxes.len())],
        bed.stores[rng.gen_range(0..bed.stores.len())],
    ];
    let slot = spec.workload.window(spec.smoke).as_micros() / 5;
    victims
        .into_iter()
        .enumerate()
        .map(|(i, node)| {
            let at = slot * (i as u64 + 1) + rng.gen_range(0..slot / 4);
            (SimTime::from_micros(at), node)
        })
        .collect()
}

/// The largest (`max`) or smallest object of a site.
fn extreme_object(bed: &Bed, site: usize, max: bool) -> &Object {
    let objects = bed.catalog.site(site).objects.iter();
    if max {
        objects.max_by_key(|o| o.size)
    } else {
        objects.min_by_key(|o| o.size)
    }
    .expect("generated sites have objects")
}

fn attach_clients(spec: Spec, bed: &mut Bed) {
    let catalog = bed.catalog.clone();
    let services = bed.vips.len();
    match spec.workload {
        Workload::BrowseClosed | Workload::FailoverClosed => {
            // Two browsers per service, the paper's 20 processes each,
            // fetching whole pages from outside the datacenter.
            for i in 0..2 * services {
                let service = i % services;
                let cfg = BrowserConfig {
                    site: service,
                    target: bed.vips[service],
                    host: format!("service{service}.test"),
                    ..BrowserConfig::default()
                };
                let catalog = catalog.clone();
                bed.add_client("browser", Zone::External, |addr| {
                    BrowserClient::new(cfg, addr, catalog)
                });
            }
        }
        Workload::ApiOpen => {
            for i in 0..2 * services {
                let service = i % services;
                let cfg = RateClientConfig {
                    rate_per_sec: API_RATE,
                    site: service,
                    target: bed.vips[service],
                    object_path: Some(extreme_object(bed, service, false).path.clone()),
                    host: format!("service{service}.test"),
                    ..RateClientConfig::default()
                };
                let catalog = catalog.clone();
                bed.add_client("rate", Zone::External, |addr| {
                    RateClient::new(cfg, addr, catalog)
                });
            }
        }
        Workload::BulkSplice => {
            // East-west bulk transfers: clients inside the datacenter, so
            // the window fills with data packets, not WAN round trips.
            for _ in 0..4 {
                let cfg = BrowserConfig {
                    processes: 4,
                    site: 0,
                    target: bed.vips[0],
                    host: "service0.test".to_string(),
                    fixed_object: Some(extreme_object(bed, 0, true).path.clone()),
                    ..BrowserConfig::default()
                };
                let catalog = catalog.clone();
                bed.add_client("browser", Zone::Dc, |addr| {
                    BrowserClient::new(cfg, addr, catalog)
                });
            }
        }
    }
}

/// Builds the bed and brings it to the start of the measured window.
fn set_up(spec: Spec, log: Option<Arc<SpanLog>>) -> Bed {
    let cfg = TestbedConfig {
        seed: spec.seed,
        yoda: YodaConfig {
            splice: spec.workload == Workload::BulkSplice,
            ..YodaConfig::default()
        },
        pages_per_site: PAGES_PER_SITE,
        ..TestbedConfig::default()
    };
    let mut bed = match log {
        Some(log) => Bed::traced(cfg, log),
        None => Bed::plain(cfg),
    };
    bed.engine.run_for(SETTLE);
    attach_clients(spec, &mut bed);
    bed.engine.run_for(spec.workload.ramp());
    let start = bed.engine.now();
    for (offset, node) in kill_schedule(spec, &bed) {
        bed.engine
            .schedule(start + offset, move |eng| eng.fail_node(node));
    }
    bed
}

/// Lifetime totals of one client.
#[derive(Debug, Clone, Copy, Default)]
struct ClientTotals {
    started: u64,
    completed: u64,
    timeouts: u64,
    resets: u64,
    broken: u64,
    /// `None` for the rate client, which does not expose it.
    in_flight: Option<u64>,
    latency_samples: usize,
}

impl ClientTotals {
    fn failed(&self) -> u64 {
        self.timeouts + self.resets
    }
}

fn client_totals(bed: &Bed, id: NodeId) -> ClientTotals {
    if let Some(b) = bed.try_node::<BrowserClient>(id) {
        ClientTotals {
            started: b.started_fetches,
            completed: b.completed,
            timeouts: b.timeouts,
            resets: b.resets + b.session_resets,
            broken: b.broken_flows,
            in_flight: Some(b.in_flight() as u64),
            latency_samples: b.request_latencies.len(),
        }
    } else {
        let r = bed.node::<RateClient>(id);
        ClientTotals {
            started: r.issued,
            completed: r.completed,
            timeouts: r.timeouts,
            resets: r.resets,
            broken: 0,
            in_flight: None,
            latency_samples: r.latencies.len(),
        }
    }
}

fn all_client_totals(bed: &Bed) -> Vec<ClientTotals> {
    bed.clients
        .iter()
        .map(|&id| client_totals(bed, id))
        .collect()
}

fn client_latencies(bed: &Bed, id: NodeId) -> &[f64] {
    match bed.try_node::<BrowserClient>(id) {
        Some(b) => b.request_latencies.samples(),
        None => bed.node::<RateClient>(id).latencies.samples(),
    }
}

/// Cumulative counters read at both ends of the window; a metric is the
/// difference. The order is fixed, so two snapshots zip.
fn counters(bed: &Bed, clients: &[ClientTotals]) -> Vec<(&'static str, f64)> {
    let e = &bed.engine;
    let now_s = e.now().as_secs_f64();
    let mut c = vec![
        ("events", e.events_processed() as f64),
        ("packets", e.packets_sent() as f64),
        ("packets_dropped", e.packets_dropped() as f64),
    ];
    let mut add = |name, v: f64| c.push((name, v));

    add(
        "client.started",
        clients.iter().map(|t| t.started).sum::<u64>() as f64,
    );
    add(
        "client.completed",
        clients.iter().map(|t| t.completed).sum::<u64>() as f64,
    );
    add(
        "client.failed",
        clients.iter().map(|t| t.failed()).sum::<u64>() as f64,
    );
    add(
        "client.timeouts",
        clients.iter().map(|t| t.timeouts).sum::<u64>() as f64,
    );
    add(
        "client.resets",
        clients.iter().map(|t| t.resets).sum::<u64>() as f64,
    );
    add(
        "client.broken",
        clients.iter().map(|t| t.broken).sum::<u64>() as f64,
    );

    let muxes = || bed.muxes.iter().map(|&id| bed.node::<Mux>(id));
    add(
        "mux.forwarded",
        muxes().map(|m| m.forwarded).sum::<u64>() as f64,
    );
    add(
        "mux.spliced",
        muxes().map(|m| m.spliced).sum::<u64>() as f64,
    );
    add(
        "mux.resteered",
        muxes().map(|m| m.resteered).sum::<u64>() as f64,
    );
    add(
        "mux.dropped",
        muxes().map(|m| m.dropped).sum::<u64>() as f64,
    );
    add(
        "router.dropped",
        bed.node::<EdgeRouter>(bed.router).dropped as f64,
    );

    let inst = || bed.instances.iter().map(|&id| bed.node::<YodaInstance>(id));
    add(
        "inst.tunneled",
        inst().map(|i| i.tunneled_packets).sum::<u64>() as f64,
    );
    add(
        "inst.recoveries",
        inst().map(|i| i.recoveries).sum::<u64>() as f64,
    );
    add(
        "inst.splices",
        inst().map(|i| i.splices_installed).sum::<u64>() as f64,
    );
    add(
        "inst.dropped_overload",
        inst().map(|i| i.dropped_overload).sum::<u64>() as f64,
    );
    add(
        "inst.dropped_unknown",
        inst().map(|i| i.dropped_unknown).sum::<u64>() as f64,
    );
    add(
        "inst.degraded_entries",
        inst().map(|i| i.degraded_entries).sum::<u64>() as f64,
    );
    add(
        "sc.timeouts",
        inst().map(|i| i.store_client().timeouts).sum::<u64>() as f64,
    );
    add(
        "sc.hedges",
        inst().map(|i| i.store_client().hedges).sum::<u64>() as f64,
    );
    add(
        "sc.retries",
        inst().map(|i| i.store_client().retries).sum::<u64>() as f64,
    );

    let stores = || bed.stores.iter().map(|&id| bed.node::<StoreServer>(id));
    add(
        "store.ops",
        stores().map(|s| s.total_ops()).sum::<u64>() as f64,
    );
    add(
        "store.misses",
        stores().map(|s| s.misses).sum::<u64>() as f64,
    );
    // Utilisation is busy time over (time since t=0 × cores), so
    // utilisation × now is cumulative busy core-seconds per core.
    add(
        "store.busy_s",
        stores()
            .map(|s| s.cpu_utilization(e.now()) * now_s)
            .sum::<f64>(),
    );

    let servers = || bed.backends.iter().map(|&id| bed.node::<OriginServer>(id));
    add(
        "server.requests",
        servers().map(|s| s.requests).sum::<u64>() as f64,
    );
    add(
        "server.bytes",
        servers().map(|s| s.bytes_served).sum::<u64>() as f64,
    );
    c
}

/// Lengths of every histogram the window is sliced out of, in the order
/// [`window_histograms`] reads them back.
fn histogram_lens(bed: &Bed) -> Vec<usize> {
    let mut lens: Vec<usize> = all_client_totals(bed)
        .iter()
        .map(|t| t.latency_samples)
        .collect();
    for &id in &bed.instances {
        let i = bed.node::<YodaInstance>(id);
        lens.extend([
            i.conn_latency.len(),
            i.storage_latency.len(),
            i.store_client().set_latency.len(),
            i.store_client().get_latency.len(),
        ]);
    }
    lens
}

/// Sorted samples the window added, per histogram family.
struct WindowHistograms {
    client: Vec<f64>,
    conn: Vec<f64>,
    storage: Vec<f64>,
    set: Vec<f64>,
    get: Vec<f64>,
}

fn window_histograms(bed: &Bed, lens_at_start: &[usize]) -> WindowHistograms {
    let mut h = WindowHistograms {
        client: Vec::new(),
        conn: Vec::new(),
        storage: Vec::new(),
        set: Vec::new(),
        get: Vec::new(),
    };
    let mut lens = lens_at_start.iter().copied();
    let mut next = || lens.next().unwrap_or(0);
    for &id in &bed.clients {
        h.client
            .extend_from_slice(window_samples(client_latencies(bed, id), next()));
    }
    for &id in &bed.instances {
        let i = bed.node::<YodaInstance>(id);
        h.conn
            .extend_from_slice(window_samples(i.conn_latency.samples(), next()));
        h.storage
            .extend_from_slice(window_samples(i.storage_latency.samples(), next()));
        let sc = i.store_client();
        h.set
            .extend_from_slice(window_samples(sc.set_latency.samples(), next()));
        h.get
            .extend_from_slice(window_samples(sc.get_latency.samples(), next()));
    }
    for v in [
        &mut h.client,
        &mut h.conn,
        &mut h.storage,
        &mut h.set,
        &mut h.get,
    ] {
        v.sort_by(f64::total_cmp);
    }
    h
}

/// Runs one pass. `process_start` is when this process began, so that
/// `setup_s` covers everything before the window.
pub fn run_pass(spec: Spec, traced: bool, spans_out: Option<&str>, process_start: Instant) -> Pass {
    let window = spec.workload.window(spec.smoke);
    // One span per event; the largest window is ~3M events.
    let log = traced.then(|| SpanLog::with_capacity(if spec.smoke { 1 << 19 } else { 1 << 22 }));
    let mut bed = set_up(spec, log.clone());

    let clients_before = all_client_totals(&bed);
    let before = counters(&bed, &clients_before);
    let lens = histogram_lens(&bed);
    let window_start = bed.engine.now();
    let (rss_at_start, _) = rss_and_peak_mb();
    if let Some(log) = &log {
        log.set_recording(true);
    }
    let t0 = Instant::now();
    let setup_s = t0.duration_since(process_start).as_secs_f64();
    let slice = SimTime::from_micros(window.as_micros() / SLICES);
    let mut slices = Vec::with_capacity(SLICES as usize);
    let mut slice_start = t0;
    for _ in 0..SLICES {
        bed.engine.run_for(slice);
        let now = Instant::now();
        slices.push(now.duration_since(slice_start).as_secs_f64());
        slice_start = now;
    }
    let wall = slice_start.duration_since(t0);
    if let Some(log) = &log {
        log.set_recording(false);
    }
    let (_, peak_rss) = rss_and_peak_mb();

    let clients_after = all_client_totals(&bed);
    let after = counters(&bed, &clients_after);
    let d = |name: &str| -> f64 {
        before
            .iter()
            .zip(&after)
            .find(|((n, _), _)| *n == name)
            .map(|((_, b), (_, a))| a - b)
            .unwrap_or_else(|| panic!("no counter named {name}"))
    };
    let mut hist = window_histograms(&bed, &lens);
    // The rate client records completed requests only; its failures join
    // the distribution at the timeout so they miss any latency limit.
    if spec.workload == Workload::ApiOpen {
        hist.client.extend(std::iter::repeat_n(
            FAILED_LATENCY_MS,
            d("client.failed") as usize,
        ));
    }

    let wall_s = wall.as_secs_f64();
    let window_s = window.as_secs_f64();
    let reqs = d("client.completed");
    let per_req = |v: f64| v / reqs.max(1.0);
    let events = d("events");

    let mut values: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| values.push((name.to_string(), v));

    put("window_wall_s", wall_s);
    put("events", events);
    put("requests", reqs);
    put("attempted", d("client.started"));
    put("failed", d("client.failed"));
    put("latency_samples", hist.client.len() as f64);

    // End to end.
    put("setup_s", setup_s);
    put("wall_req_per_s", reqs / wall_s);
    put("peak_rss_mb", peak_rss);
    put("sim_p50_ms", percentile(&hist.client, 50.0));
    put("sim_p99_ms", percentile(&hist.client, 99.0));
    put("sim_req_per_s", reqs / window_s);
    put(
        "sim_ok_ratio",
        1.0 - d("client.failed") / d("client.started").max(1.0),
    );

    // Per layer: counts and simulated times.
    put("netsim.events_per_req", per_req(events));
    put("netsim.packets_per_req", per_req(d("packets")));
    put("netsim.ns_per_event", wall_s * 1e9 / events);
    put("netsim.events_per_s", events / wall_s);
    put("netsim.packets_dropped", d("packets_dropped"));
    put(
        "netsim.timer_backlog_end",
        bed.engine.timer_backlog() as f64,
    );
    put("netsim.rss_growth_mb", peak_rss - rss_at_start);

    let muxes = || bed.muxes.iter().map(|&id| bed.node::<Mux>(id));
    let fast = d("mux.spliced");
    let spliced_share = fast / (fast + d("mux.forwarded")).max(1.0);
    put("l4lb.mux.forwarded_per_req", per_req(d("mux.forwarded")));
    put("l4lb.mux.spliced_share", spliced_share);
    put("l4lb.mux.resteered", d("mux.resteered"));
    put("l4lb.mux.dropped", d("mux.dropped"));
    put(
        "l4lb.mux.flow_entries_end",
        muxes().map(|m| m.flow_entries()).sum::<usize>() as f64,
    );
    put(
        "l4lb.mux.splice_entries_end",
        muxes().map(|m| m.splice_entries()).sum::<usize>() as f64,
    );
    put("l4lb.router.dropped", d("router.dropped"));

    let cpu: Vec<f64> = bed
        .node::<Controller>(bed.controller)
        .cpu_history
        .iter()
        .filter(|s| s.time > window_start)
        .map(|s| s.mean_cpu)
        .collect();
    put(
        "core.instance.tunneled_per_req",
        per_req(d("inst.tunneled")),
    );
    put(
        "core.instance.live_flows_end",
        bed.instances
            .iter()
            .map(|&id| bed.node::<YodaInstance>(id).live_flows())
            .sum::<usize>() as f64,
    );
    put("core.instance.recoveries", d("inst.recoveries"));
    put("core.instance.splices_installed", d("inst.splices"));
    put("core.instance.dropped_overload", d("inst.dropped_overload"));
    put("core.instance.dropped_unknown", d("inst.dropped_unknown"));
    put("core.instance.degraded_entries", d("inst.degraded_entries"));
    put(
        "core.instance.sim_cpu_util",
        cpu.iter().sum::<f64>() / cpu.len().max(1) as f64,
    );
    put(
        "core.instance.sim_conn_p50_ms",
        percentile(&hist.conn, 50.0),
    );
    put(
        "core.instance.sim_storage_p50_ms",
        percentile(&hist.storage, 50.0),
    );

    put(
        "tcpstore.client.sets_per_req",
        per_req(hist.set.len() as f64),
    );
    put(
        "tcpstore.client.gets_per_req",
        per_req(hist.get.len() as f64),
    );
    put("tcpstore.client.timeouts", d("sc.timeouts"));
    put("tcpstore.client.hedges", d("sc.hedges"));
    put("tcpstore.client.retries", d("sc.retries"));
    put(
        "tcpstore.client.sim_set_p99_ms",
        percentile(&hist.set, 99.0),
    );
    put(
        "tcpstore.client.sim_get_p99_ms",
        percentile(&hist.get, 99.0),
    );
    put("tcpstore.server.ops_per_req", per_req(d("store.ops")));
    put("tcpstore.server.misses", d("store.misses"));
    put(
        "tcpstore.server.keys_end",
        bed.stores
            .iter()
            .map(|&id| bed.node::<StoreServer>(id).keys())
            .sum::<usize>() as f64,
    );
    put(
        "tcpstore.server.sim_cpu_util",
        d("store.busy_s") / (window_s * bed.stores.len() as f64),
    );

    put("http.server.requests", d("server.requests"));
    put("http.server.bytes_served_mb", d("server.bytes") / 1e6);
    put("http.client.timeouts", d("client.timeouts"));
    put("http.client.resets", d("client.resets"));
    put("http.client.broken_flows", d("client.broken"));

    // Per layer: host time, from the spans.
    if let Some(log) = &log {
        let spans = log.take();
        let a = Attribution::of(&spans, wall.as_nanos() as u64);
        put("netsim.self_ns_per_event", a.engine_self_ns as f64 / events);
        put("netsim.wall_share", a.engine_share());
        for kind in Kind::ALL {
            let l = a.layer(kind);
            let k = kind.name();
            put(&format!("{k}.calls_per_req"), per_req(l.calls as f64));
            put(
                &format!("{k}.busy_ns_per_call"),
                l.busy_ns as f64 / l.calls.max(1) as f64,
            );
            put(&format!("{k}.wall_share"), a.layer_share(kind));
        }
        if let Some(path) = spans_out {
            if let Err(e) = dump_spans(path, &spans) {
                eprintln!("bench_e2e: cannot write spans to {path}: {e}");
            }
        }
    }

    let mut failures = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };
    for (i, (t0, t)) in clients_before.iter().zip(&clients_after).enumerate() {
        match t.in_flight {
            Some(in_flight) => check(
                t.started == t.completed + t.failed() + in_flight,
                format!(
                    "client {i}: started {} != completed {} + failed {} + in flight {in_flight}",
                    t.started,
                    t.completed,
                    t.failed()
                ),
            ),
            None => check(
                t.started >= t.completed + t.failed(),
                format!("client {i}: issued {} < completed + failed", t.started),
            ),
        }
        if spec.workload == Workload::ApiOpen {
            // The generator is a simulated periodic timer, so it is never
            // late: what it issued is the schedule, to the tick.
            let issued = (t.started - t0.started) as f64;
            check(
                (issued - API_RATE * window_s).abs() <= 1.0,
                format!("client {i}: issued {issued} in a {window_s} s window at {API_RATE}/s"),
            );
        }
    }
    // Every completed request was served by a backend, with a body.
    let lifetime = |name: &str| after.iter().find(|(n, _)| *n == name).map_or(0.0, |c| c.1);
    let (served, bytes) = (lifetime("server.requests"), lifetime("server.bytes"));
    let completed: u64 = clients_after.iter().map(|t| t.completed).sum();
    check(
        served >= completed as f64,
        format!("backends served {served} requests, clients completed {completed}"),
    );
    let min_body = match spec.workload {
        Workload::ApiOpen => (0..bed.vips.len())
            .map(|s| extreme_object(&bed, s, false).size)
            .min()
            .unwrap_or(0),
        Workload::BulkSplice => extreme_object(&bed, 0, true).size,
        _ => MIN_OBJECT_BYTES,
    };
    check(
        bytes >= (completed as f64) * min_body as f64,
        format!("backends served {bytes} body bytes for {completed} completed requests of >= {min_body} bytes"),
    );
    let failover = spec.workload == Workload::FailoverClosed;
    if !failover {
        check(
            d("client.failed") == 0.0,
            format!("{} requests failed", d("client.failed")),
        );
        check(
            d("client.broken") == 0.0,
            format!("{} broken flows", d("client.broken")),
        );
    }
    // A smoke window ends before the controller has declared anything
    // dead, so only a full one must show recoveries.
    let recoveries = d("inst.recoveries");
    check(
        if failover {
            recoveries > 0.0 || spec.smoke
        } else {
            recoveries == 0.0
        },
        format!("{recoveries} flow recoveries"),
    );
    check(
        (spliced_share > 0.0) == (spec.workload == Workload::BulkSplice),
        format!("spliced share {spliced_share}"),
    );

    Pass {
        digest: bed.engine.event_digest(),
        values,
        slices,
        failures,
    }
}

/// Events per second of a short slice on two shard workers over the same
/// slice single-threaded, each on a fresh bed; the two digests must
/// agree. The slice is 100 simulated ms because the sharded executor
/// runs 3 to 100 times slower than the plain one.
pub fn run_shard_slice(spec: Spec) -> Pass {
    let slice = SimTime::from_millis(if spec.smoke { 20 } else { 100 });
    let run = |threads: usize| {
        let mut bed = set_up(spec, None);
        let t0 = Instant::now();
        if threads > 1 {
            bed.engine.run_for_sharded(slice, threads);
        } else {
            bed.engine.run_for(slice);
        }
        (t0.elapsed().as_secs_f64(), bed.engine.event_digest())
    };
    let (single_s, single_digest) = run(1);
    let (sharded_s, sharded_digest) = run(2);
    let mut failures = Vec::new();
    if single_digest != sharded_digest {
        failures.push(format!(
            "2-worker digest {sharded_digest:016x} != single-threaded {single_digest:016x}"
        ));
    }
    Pass {
        digest: single_digest,
        values: vec![("netsim.shard_x2_ratio".to_string(), single_s / sharded_s)],
        slices: Vec::new(),
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timed::Timed;
    use yoda_netsim::Node;

    fn small(seed: u64) -> TestbedConfig {
        TestbedConfig {
            seed,
            num_instances: 3,
            num_stores: 2,
            num_backends: 8,
            num_muxes: 2,
            num_services: 2,
            pages_per_site: 8,
            ..TestbedConfig::default()
        }
    }

    fn drive(mut bed: Bed) -> (u64, u64, u64) {
        bed.engine.run_for(SimTime::from_millis(500));
        for service in 0..2 {
            let cfg = BrowserConfig {
                processes: 2,
                site: service,
                target: bed.vips[service],
                host: format!("service{service}.test"),
                ..BrowserConfig::default()
            };
            let catalog = bed.catalog.clone();
            bed.add_client("browser", Zone::External, |a| {
                BrowserClient::new(cfg, a, catalog)
            });
        }
        bed.engine.run_for(SimTime::from_secs(3));
        let completed = bed
            .clients
            .iter()
            .map(|&id| bed.node::<BrowserClient>(id).completed)
            .sum();
        (
            bed.engine.event_digest(),
            bed.engine.events_processed(),
            completed,
        )
    }

    #[test]
    fn timed_wrapper_is_transparent() {
        let log = SpanLog::with_capacity(1 << 16);
        log.set_recording(true);
        let plain = drive(Bed::plain(small(7)));
        let traced = drive(Bed::traced(small(7), log.clone()));
        assert_eq!(
            plain, traced,
            "(digest, events, completed) differ under Timed<N>"
        );
        assert!(plain.2 > 0, "the testbed served requests");
        let spans = log.take();
        assert!(!spans.is_empty());
        for kind in Kind::ALL {
            assert!(
                spans.iter().any(|s| s.kind == kind),
                "no span of {}",
                kind.name()
            );
        }
    }

    #[test]
    fn traced_bed_exposes_inner_nodes() {
        let bed = Bed::traced(small(1), SpanLog::with_capacity(16));
        assert_eq!(bed.node::<Mux>(bed.muxes[0]).forwarded, 0);
        assert!(bed.try_node::<RateClient>(bed.muxes[0]).is_none());
        fn is_node<N: Node>() {}
        is_node::<Timed<YodaInstance>>();
    }

    #[test]
    fn kill_schedule_is_seeded_and_inside_the_window() {
        let spec = Spec {
            workload: Workload::FailoverClosed,
            seed: 3,
            smoke: false,
        };
        let bed = Bed::plain(small(3));
        let a = kill_schedule(spec, &bed);
        assert_eq!(a, kill_schedule(spec, &bed));
        assert_eq!(a.len(), 4);
        assert_ne!(a[0].1, a[1].1, "two different instances die");
        let window = spec.workload.window(false);
        assert!(a.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(a.iter().all(|(at, _)| *at < window));
        let other = kill_schedule(Spec { seed: 4, ..spec }, &bed);
        assert_ne!(a, other);
        assert!(kill_schedule(
            Spec {
                workload: Workload::ApiOpen,
                ..spec
            },
            &bed
        )
        .is_empty());
    }
}
