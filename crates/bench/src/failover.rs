//! Comparative failover scenario (Table 1 + Figure 12).
//!
//! Runs the same workload — browsers fetching pages through 10 LB
//! instances, with some instances killed mid-run — against either Yoda or
//! the HAProxy-style baseline, and collects per-request latencies, broken
//! flows, and (optionally) the packet timeline at the backends around the
//! failure (Figure 12(b)).

use yoda_core::testbed::{Testbed, TestbedConfig};
use yoda_core::YodaInstance;
use yoda_http::{BrowserClient, BrowserConfig};
use yoda_netsim::{Histogram, SimTime, TraceKind};
use yoda_proxy::ProxyConfig;

use crate::storestats::StoreStatsSummary;

/// Which load balancer to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LbKind {
    /// Yoda (this paper).
    Yoda,
    /// The HAProxy-style proxy baseline.
    Proxy,
}

impl LbKind {
    /// Builds `cfg`'s testbed with this LB in the L7 slot.
    pub fn testbed(self, cfg: TestbedConfig) -> Testbed {
        match self {
            LbKind::Yoda => Testbed::build(cfg),
            LbKind::Proxy => yoda_proxy::testbed(cfg, ProxyConfig::default()),
        }
    }
}

/// Scenario parameters.
#[derive(Debug, Clone)]
pub struct FailoverSetup {
    /// RNG seed.
    pub seed: u64,
    /// LB under test.
    pub lb: LbKind,
    /// LB instances.
    pub num_instances: usize,
    /// Instance indexes to fail.
    pub fail: Vec<usize>,
    /// When to fail them.
    pub fail_at: SimTime,
    /// Browser client nodes.
    pub browsers: usize,
    /// Fetch processes per browser (paper: 20).
    pub processes: usize,
    /// Browser retry budget (0 = noretry, 1 = retry).
    pub retries: u32,
    /// HTTP timeout (paper: 30 s).
    pub http_timeout: SimTime,
    /// Streaming stall timeout (Table 1 session profiles).
    pub stall_timeout: Option<SimTime>,
    /// Fixed object path instead of page fetches.
    pub fixed_object: Option<String>,
    /// Fetch the catalog's largest object instead of pages (long
    /// transfers, so the failure strikes mid-flight — the paper's
    /// "breaking a single established connection" setting).
    pub use_largest_object: bool,
    /// Pages per process before stopping.
    pub max_pages: Option<u64>,
    /// Control-plane warmup before clients start (VIP maps must reach
    /// all muxes; the paper's testbed was long-running before each
    /// experiment).
    pub warmup: SimTime,
    /// Total simulated duration.
    pub duration: SimTime,
    /// Record the packet timeline (Figure 12(b)).
    pub timeline: bool,
}

impl Default for FailoverSetup {
    fn default() -> Self {
        FailoverSetup {
            seed: 42,
            lb: LbKind::Yoda,
            num_instances: 10,
            fail: vec![0, 1],
            fail_at: SimTime::from_secs(5),
            browsers: 3,
            processes: 20,
            retries: 0,
            http_timeout: SimTime::from_secs(30),
            stall_timeout: None,
            fixed_object: None,
            use_largest_object: false,
            max_pages: Some(3),
            warmup: SimTime::from_secs(1),
            duration: SimTime::from_secs(120),
            timeline: false,
        }
    }
}

/// Scenario results.
#[derive(Debug)]
pub struct FailoverOutcome {
    /// Per-request (object fetch) latencies, ms; broken flows recorded at
    /// their abandonment time.
    pub latencies: Histogram,
    /// Per-page latencies, ms.
    pub page_latencies: Histogram,
    /// Completed object fetches.
    pub completed: u64,
    /// Flows abandoned (never completed).
    pub broken: u64,
    /// HTTP timeouts observed.
    pub timeouts: u64,
    /// TCP resets observed.
    pub resets: u64,
    /// Streaming sessions reset.
    pub session_resets: u64,
    /// Flows recovered from TCPStore by surviving instances (Yoda only).
    pub recoveries: u64,
    /// Store-client statistics summed across surviving instances (Yoda
    /// only): per-replica EWMA, timeouts, hedges, retries, quarantines.
    pub store_stats: StoreStatsSummary,
    /// Timeline lines around the failure (when requested).
    pub timeline: Vec<String>,
}

impl FailoverOutcome {
    /// Fraction of flows broken.
    pub fn broken_fraction(&self) -> f64 {
        let total = self.completed + self.broken;
        if total == 0 {
            0.0
        } else {
            self.broken as f64 / total as f64
        }
    }
}

fn browser_cfg(setup: &FailoverSetup, catalog: &yoda_http::SiteCatalog, site: usize) -> BrowserConfig {
    let fixed_object = if setup.use_largest_object {
        Some(largest_object(catalog, site))
    } else {
        setup.fixed_object.clone()
    };
    BrowserConfig {
        processes: setup.processes,
        retries: setup.retries,
        http_timeout: setup.http_timeout,
        stall_timeout: setup.stall_timeout,
        fixed_object,
        max_pages: setup.max_pages,
        ..BrowserConfig::default()
    }
}

/// Path of the largest object of a site (a long transfer, ≈442 KB).
pub fn largest_object(catalog: &yoda_http::SiteCatalog, site: usize) -> String {
    catalog
        .site(site)
        .objects
        .iter()
        .max_by_key(|o| o.size)
        .map(|o| o.path.clone())
        .expect("non-empty site")
}

fn collect_browsers(
    engine: &mut yoda_netsim::Engine,
    ids: &[yoda_netsim::NodeId],
) -> FailoverOutcome {
    let mut out = FailoverOutcome {
        latencies: Histogram::new(),
        page_latencies: Histogram::new(),
        completed: 0,
        broken: 0,
        timeouts: 0,
        resets: 0,
        session_resets: 0,
        recoveries: 0,
        store_stats: StoreStatsSummary::default(),
        timeline: Vec::new(),
    };
    for &id in ids {
        let b = engine.node_ref::<BrowserClient>(id);
        out.completed += b.completed;
        out.broken += b.broken_flows;
        out.timeouts += b.timeouts;
        out.resets += b.resets;
        out.session_resets += b.session_resets;
        out.latencies.merge(&b.request_latencies);
        out.page_latencies.merge(&b.page_latencies);
    }
    out
}

/// Extracts the Figure 12(b)-style timeline: backend-side packets of the
/// first recovered flow, plus failure/recovery annotations.
fn extract_timeline(engine: &yoda_netsim::Engine, around: SimTime) -> Vec<String> {
    let trace = engine.trace();
    // Find the first recovery note after the failure to identify a flow.
    let mut client_port: Option<u16> = None;
    for ev in trace.events() {
        if ev.kind == TraceKind::Note && ev.detail.contains("recovered flow") && ev.time >= around
        {
            // Format: "recovered flow a.b.c.d:PORT->vip ...".
            if let Some(rest) = ev.detail.strip_prefix("recovered flow ") {
                if let Some(ep) = rest.split("->").next() {
                    if let Some((_, port)) = ep.rsplit_once(':') {
                        client_port = port.parse().ok();
                        break;
                    }
                }
            }
        }
    }
    let lo = around.saturating_sub(SimTime::from_millis(500));
    let hi = around + SimTime::from_secs(3);
    // Bucket the chosen flow's backend-side packets into 100 ms windows
    // (Figure 12(b) plots per-packet seq vs time; the bucketed view shows
    // the same story: traffic, silence after the failure, the +300 ms and
    // +600 ms retransmissions, then recovery).
    let mut sent = [0u32; 36];
    let mut received = [0u32; 36];
    let mut annotations: Vec<(SimTime, String)> = Vec::new();
    for ev in trace.events() {
        if ev.time < lo || ev.time > hi {
            continue;
        }
        match ev.kind {
            TraceKind::NodeFailed => {
                let node = engine.names().resolve(ev.node);
                annotations.push((ev.time, format!("*** {node} FAILED")));
                continue;
            }
            TraceKind::Note => {
                let relevant = client_port
                    .map(|p| ev.detail.contains(&format!(":{p}")))
                    .unwrap_or(false);
                if relevant || ev.detail.contains("controller detected failure") {
                    let node = engine.names().resolve(ev.node);
                    annotations.push((ev.time, format!("*** {node}: {}", ev.detail)));
                }
                continue;
            }
            _ => {}
        }
        if !engine.names().resolve(ev.node).starts_with("backend") {
            continue;
        }
        let flow_match = match client_port {
            Some(p) => {
                ev.src.map(|e| e.port == p).unwrap_or(false)
                    || ev.dst.map(|e| e.port == p).unwrap_or(false)
            }
            None => true,
        };
        if !flow_match {
            continue;
        }
        let bucket = ((ev.time - lo).as_millis() / 100) as usize;
        if bucket < 36 {
            match ev.kind {
                TraceKind::PacketSent => sent[bucket] += 1,
                TraceKind::PacketDelivered => received[bucket] += 1,
                _ => {}
            }
        }
    }
    let mut lines = Vec::new();
    lines.push(format!(
        "flow client-port={:?}; per-100ms window at the backend:",
        client_port
    ));
    lines.push("t-rel(ms)  srv-sent  srv-rcvd".to_string());
    let mut ann_iter = annotations.into_iter().peekable();
    for b in 0..36 {
        let t = lo + SimTime::from_millis(100 * b as u64);
        while let Some((at, _)) = ann_iter.peek() {
            if *at <= t {
                let (at, text) = ann_iter.next().expect("peeked");
                lines.push(format!(
                    "  [{:+.0} ms] {}",
                    at.as_micros() as f64 / 1000.0 - around.as_micros() as f64 / 1000.0,
                    text
                ));
            } else {
                break;
            }
        }
        lines.push(format!(
            "{:>+9.0}  {:>8}  {:>8}",
            t.as_micros() as f64 / 1000.0 - around.as_micros() as f64 / 1000.0,
            sent[b],
            received[b]
        ));
    }
    lines
}

/// Runs the scenario and gathers the outcome.
pub fn run_failover(setup: &FailoverSetup) -> FailoverOutcome {
    let mut tb = setup.lb.testbed(TestbedConfig {
        seed: setup.seed,
        num_instances: setup.num_instances,
        ..TestbedConfig::default()
    });
    if setup.timeline {
        tb.engine.enable_trace(4_000_000);
    }
    tb.engine.run_for(setup.warmup);
    let ids: Vec<_> = (0..setup.browsers)
        .map(|i| {
            let site = i % tb.vips.len();
            let cfg = browser_cfg(setup, &tb.catalog, site);
            tb.add_browser(site, cfg)
        })
        .collect();
    for &i in &setup.fail {
        tb.fail_instance_at(i, setup.fail_at);
    }
    tb.engine.run_for(setup.duration);
    let mut out = collect_browsers(&mut tb.engine, &ids);
    // Yoda-only numbers: a proxy instance has no TCPStore to recover from.
    let live = tb.instances.iter().filter(|&&i| tb.engine.is_alive(i));
    for y in live.filter_map(|&i| tb.engine.try_node_ref::<YodaInstance>(i)) {
        out.recoveries += y.recoveries;
        out.store_stats.absorb(y.store_client());
    }
    if setup.timeline {
        out.timeline = extract_timeline(&tb.engine, setup.fail_at);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yoda_vs_proxy_headline() {
        // A miniature Figure 12: Yoda keeps everything; the proxy breaks
        // the flows its dead instance was carrying.
        let base = FailoverSetup {
            num_instances: 4,
            fail: vec![0],
            browsers: 1,
            processes: 6,
            max_pages: Some(2),
            http_timeout: SimTime::from_secs(10),
            duration: SimTime::from_secs(90),
            ..FailoverSetup::default()
        };
        let yoda = run_failover(&FailoverSetup {
            lb: LbKind::Yoda,
            ..base.clone()
        });
        let proxy = run_failover(&FailoverSetup {
            lb: LbKind::Proxy,
            ..base
        });
        assert_eq!(yoda.broken, 0, "Yoda breaks nothing");
        assert!(yoda.completed > 0);
        assert!(
            proxy.timeouts > 0 || proxy.broken > 0,
            "the proxy must break flows: completed={} timeouts={}",
            proxy.completed,
            proxy.timeouts
        );
    }
}
