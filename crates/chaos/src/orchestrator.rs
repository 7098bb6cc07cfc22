//! Applies a [`ChaosPlan`] to a live [`Testbed`] and runs the scenario.
//!
//! Every fault maps onto engine calls scheduled at its start and end
//! (crash + fresh restart through [`Testbed::restore_at`], partition +
//! heal, link degrade + heal) or onto time-windowed topology overrides
//! for the WAN impairments. Store faults additionally bump the
//! [`StoreWitness`] epoch at both boundaries so read-after-write verdicts
//! never span a membership change.

use yoda_core::Controller;
use yoda_core::{Testbed, TestbedConfig};
use yoda_core::{YodaConfig, YodaInstance};
use yoda_http::{BrowserClient, BrowserConfig};
use yoda_l4lb::Mux;
use yoda_netsim::{Addr, LinkSpec, NodeId, SimTime, Zone};

use crate::invariants::check_invariants;
use crate::plan::{ChaosPlan, FaultKind, GrayTarget, BACKENDS, INSTANCES, MUXES, SERVICES, STORES};
use crate::witness::StoreWitness;

/// Concurrent fetch processes per browser.
const BROWSER_PROCESSES: usize = 2;

/// A chaos run's two choices: the regime and the mux fast path. The
/// testbed shape is the plan module's constants: one VIP and one browser
/// per service, and service 0 runs the prequal policy so the probe
/// subsystem is exercised. The client workload and the run length follow
/// the regime.
#[derive(Debug, Clone, Copy)]
pub struct ChaosScenario {
    /// Survivable (§6's preconditions hold, zero broken flows expected)
    /// or unconstrained (floors lifted, every fetch must still resolve
    /// in bounded time). Selects the regime of the plan `run_seed`
    /// generates; the run reads it from the plan.
    pub survivable: bool,
    /// Enable the mux fast-path flow splicing on the instances, so
    /// steady-state forwarding (and its revocation/failover machinery)
    /// is under fire too.
    pub splice: bool,
}

impl ChaosScenario {
    /// Availability-preserving scenario, without splicing.
    pub fn survivable() -> Self {
        ChaosScenario {
            survivable: true,
            splice: false,
        }
    }

    /// Graceful-degradation scenario, without splicing.
    pub fn unconstrained() -> Self {
        ChaosScenario {
            survivable: false,
            splice: false,
        }
    }
}

/// The browsers' settings in a regime: survivable runs browse until the
/// deadline with two retries per object and a 10 s timeout; unconstrained
/// runs fetch one page each with no retry and a 5 s timeout, so every
/// fetch resolves (or fails) well before the deadline.
fn browser(survivable: bool) -> BrowserConfig {
    let (retries, http_timeout, max_pages) = if survivable {
        (2, SimTime::from_secs(10), None)
    } else {
        (0, SimTime::from_secs(5), Some(1))
    };
    BrowserConfig {
        processes: BROWSER_PROCESSES,
        retries,
        http_timeout,
        max_pages,
        ..BrowserConfig::default()
    }
}

/// Total simulated run length in a regime.
fn deadline(survivable: bool) -> SimTime {
    SimTime::from_secs(if survivable { 45 } else { 100 })
}

/// Everything a chaos run produced: aggregate client counters, witness
/// verdicts, the engine digest (for byte-identity checks), and the
/// invariant violations (empty = pass).
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The generating seed.
    pub(crate) seed: u64,
    /// Whether the plan was survivable.
    pub(crate) survivable: bool,
    /// The full schedule (printed on failure for one-command repro).
    pub plan: ChaosPlan,
    /// Engine event digest at the deadline.
    pub digest: u64,
    /// Events processed.
    pub events: u64,
    /// Fetches completed across all browsers.
    pub(crate) completed: u64,
    /// Broken flows (retries exhausted) across all browsers.
    pub(crate) broken_flows: u64,
    /// Fetch attempts that timed out.
    pub(crate) timeouts: u64,
    /// Fetch attempts reset by the server side.
    pub(crate) resets: u64,
    /// Pages fully fetched.
    pub(crate) pages_completed: u64,
    /// Witness pairs that produced a verdict.
    pub(crate) witness_checks: u64,
    /// Witness pairs skipped across store-fault boundaries.
    pub(crate) witness_skipped: u64,
    /// Component recoveries the controller re-integrated.
    pub(crate) recoveries_detected: u64,
    /// Packets forwarded on the mux fast path (summed across muxes).
    pub spliced: u64,
    /// Splice installs the instances issued (first installs + re-installs
    /// after mux failover).
    pub splices_installed: u64,
    /// Times any instance entered store-brownout degraded mode.
    pub(crate) degraded_entries: u64,
    /// Write-behind records dropped on buffer overflow (summed).
    pub(crate) write_behind_dropped: u64,
    /// Hedged store reads fired across all instances.
    pub(crate) store_hedges: u64,
    /// Store op retries fired across all instances.
    pub(crate) store_retries: u64,
    /// Store replica quarantine entries across all instances.
    pub(crate) store_quarantines: u64,
    /// Instance derates the controller issued (suspect, not dead).
    pub(crate) derates: u64,
    /// Invariant violations (empty = the run passed).
    pub(crate) violations: Vec<String>,
}

impl ChaosReport {
    /// True when every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line summary plus the plan and any violations — the string a
    /// failing test prints.
    pub fn render(&self) -> String {
        let mut out = format!(
            "seed {} ({}): completed={} broken={} timeouts={} resets={} pages={} \
             witness(ok={} skipped={}) recoveries={} spliced={}/{} \
             gray(degraded={} wb_dropped={} hedges={} retries={} quarantines={} derates={}) \
             digest={:#018x}\n{}",
            self.seed,
            if self.survivable {
                "survivable"
            } else {
                "unconstrained"
            },
            self.completed,
            self.broken_flows,
            self.timeouts,
            self.resets,
            self.pages_completed,
            self.witness_checks,
            self.witness_skipped,
            self.recoveries_detected,
            self.spliced,
            self.splices_installed,
            self.degraded_entries,
            self.write_behind_dropped,
            self.store_hedges,
            self.store_retries,
            self.store_quarantines,
            self.derates,
            self.digest,
            self.plan.render(),
        );
        for v in &self.violations {
            out.push_str("  VIOLATION: ");
            out.push_str(v);
            out.push('\n');
        }
        out
    }
}

/// Generates the plan for `seed` in the scenario's regime and runs it.
pub fn run_seed(seed: u64, sc: &ChaosScenario) -> ChaosReport {
    run_plan(&ChaosPlan::generate(seed, sc.survivable), sc.splice)
}

/// Builds the testbed, schedules the plan, runs to the deadline, and
/// checks the invariants. The plan carries the regime: the browsers, the
/// deadline and every invariant follow `plan.survivable`.
fn run_plan(plan: &ChaosPlan, splice: bool) -> ChaosReport {
    let yoda = YodaConfig {
        splice,
        ..YodaConfig::default()
    };
    let replicas = yoda.store_replicas;
    let mut tb = Testbed::build(TestbedConfig {
        seed: plan.seed,
        num_instances: INSTANCES,
        num_spares: 0,
        num_stores: STORES,
        num_backends: BACKENDS,
        num_muxes: MUXES,
        num_services: SERVICES,
        pages_per_site: 12,
        yoda,
        ..TestbedConfig::default()
    });

    // Service 0 switches to the probe-driven prequal policy shortly
    // after start, so quarantine/readmission is part of every run.
    if let Some(&vip) = tb.vips.first() {
        let backends: Vec<String> = tb
            .service_backends
            .first()
            .map(|sb| sb.iter().map(|b| b.to_string()).collect())
            .unwrap_or_default();
        let rules = format!(
            "name=pq-0 priority=1 match * action=prequal {}",
            backends.join(" ")
        );
        tb.set_policy_at(vip, &rules, SimTime::from_millis(100));
    }

    let browsers: Vec<NodeId> = (0..SERVICES)
        .map(|s| tb.add_browser(s, browser(plan.survivable)))
        .collect();

    let witness_addr = Addr::new(10, 0, 6, 1);
    let witness = tb.engine.add_node(
        "chaos-witness",
        witness_addr,
        Zone::Dc,
        Box::new(StoreWitness::new(witness_addr, &tb.store_addrs, replicas)),
    );

    apply_plan(&mut tb, plan, Some(witness));
    tb.engine.run_for(deadline(plan.survivable));

    let violations = check_invariants(&tb, plan, &browsers, witness);
    let mut report = ChaosReport {
        seed: plan.seed,
        survivable: plan.survivable,
        plan: plan.clone(),
        digest: tb.engine.event_digest(),
        events: tb.engine.events_processed(),
        completed: 0,
        broken_flows: 0,
        timeouts: 0,
        resets: 0,
        pages_completed: 0,
        witness_checks: 0,
        witness_skipped: 0,
        recoveries_detected: 0,
        spliced: 0,
        splices_installed: 0,
        degraded_entries: 0,
        write_behind_dropped: 0,
        store_hedges: 0,
        store_retries: 0,
        store_quarantines: 0,
        derates: 0,
        violations,
    };
    for &b in &browsers {
        if let Some(bc) = tb.engine.try_node_ref::<BrowserClient>(b) {
            report.completed += bc.completed;
            report.broken_flows += bc.broken_flows;
            report.timeouts += bc.timeouts;
            report.resets += bc.resets;
            report.pages_completed += bc.pages_completed;
        }
    }
    if let Some(w) = tb.engine.try_node_ref::<StoreWitness>(witness) {
        report.witness_checks = w.checks;
        report.witness_skipped = w.skipped;
    }
    for &m in &tb.muxes {
        if let Some(mx) = tb.engine.try_node_ref::<Mux>(m) {
            report.spliced += mx.spliced;
        }
    }
    for &i in &tb.instances {
        if let Some(inst) = tb.engine.try_node_ref::<YodaInstance>(i) {
            report.splices_installed += inst.splices_installed;
            report.degraded_entries += inst.degraded_entries;
            report.write_behind_dropped += inst.durability().wb_dropped;
            let sc = inst.store_client();
            report.store_hedges += sc.hedges;
            report.store_retries += sc.retries;
            report.store_quarantines += sc.quarantines;
        }
    }
    if let Some(c) = tb.engine.try_node_ref::<Controller>(tb.controller) {
        report.recoveries_detected = c.recoveries_detected;
        report.derates = c.derates;
    }
    report
}

/// Schedules every fault of `plan` onto the testbed. `witness` (when
/// present) gets its epoch bumped at each store-fault boundary, *before*
/// the fault itself so in-flight pairs are disqualified first. A target
/// index outside the testbed (generator indices always fit the shape;
/// hand-built plans may not) schedules nothing.
pub(crate) fn apply_plan(tb: &mut Testbed, plan: &ChaosPlan, witness: Option<NodeId>) {
    for f in &plan.faults {
        let (at, end) = (f.at, f.end());
        match f.kind {
            FaultKind::InstanceCrash { i } => crash(tb, GrayTarget::Instance(i), at, end),
            FaultKind::InstancePartition { i } => {
                partition(tb, GrayTarget::Instance(i), (true, true), at, end);
            }
            FaultKind::StoreCrash { i } => {
                if let Some(&id) = tb.stores.get(i) {
                    bump_epoch_at(tb, witness, at);
                    tb.engine.schedule(at, move |eng| eng.fail_node(id));
                    bump_epoch_at(tb, witness, end);
                    tb.restore_at(id, end);
                }
            }
            FaultKind::StorePartition { i } => {
                if let Some(&id) = tb.stores.get(i) {
                    bump_epoch_at(tb, witness, at);
                    tb.engine.schedule(at, move |eng| eng.partition_node(id));
                    bump_epoch_at(tb, witness, end);
                    tb.engine.schedule(end, move |eng| eng.heal_node(id));
                }
            }
            FaultKind::MuxCrash { i } => crash(tb, GrayTarget::Mux(i), at, end),
            FaultKind::BackendCrash { i } => crash(tb, GrayTarget::Backend(i), at, end),
            FaultKind::ControllerKill => {
                let id = tb.controller;
                tb.engine.schedule(at, move |eng| eng.fail_node(id));
            }
            FaultKind::WanLossBurst { loss_pct } => {
                let loss = f64::from(loss_pct.min(100)) / 100.0;
                wan_override(tb, at, end, move |base| LinkSpec { loss, ..base });
            }
            FaultKind::WanLatencySpike { extra_ms } => {
                let extra = SimTime::from_millis(u64::from(extra_ms));
                wan_override(tb, at, end, move |base| LinkSpec {
                    latency: base.latency + extra,
                    ..base
                });
            }
            FaultKind::WanPartition { to_dc, to_ext } => {
                let dirs: Vec<(Zone, Zone)> = [
                    (to_dc, (Zone::External, Zone::Dc)),
                    (to_ext, (Zone::Dc, Zone::External)),
                ]
                .into_iter()
                .filter_map(|(on, d)| on.then_some(d))
                .collect();
                wan_override_dirs(tb, at, end, dirs, |_| LinkSpec::blackhole());
            }
            FaultKind::NodeSlowdown { node, factor } => match node {
                GrayTarget::Store(i) if i < tb.stores.len() => {
                    bump_epoch_at(tb, witness, at);
                    tb.slowdown_store_at(i, f64::from(factor), at);
                    bump_epoch_at(tb, witness, end);
                    tb.slowdown_store_at(i, 1.0, end);
                }
                GrayTarget::Backend(i) if i < tb.backends.len() => {
                    tb.slowdown_backend_at(i, f64::from(factor), at);
                    tb.slowdown_backend_at(i, 1.0, end);
                }
                _ => {}
            },
            FaultKind::LinkDegrade {
                node,
                loss_pct,
                jitter_ms,
            } => {
                if let Some(id) = node_of(tb, node) {
                    if matches!(node, GrayTarget::Store(_)) {
                        bump_epoch_at(tb, witness, at);
                        bump_epoch_at(tb, witness, end);
                    }
                    let loss = f64::from(loss_pct.min(100)) / 100.0;
                    let jitter = SimTime::from_millis(u64::from(jitter_ms));
                    tb.engine
                        .schedule(at, move |eng| eng.degrade_node_links(id, loss, jitter));
                    tb.engine.schedule(end, move |eng| {
                        eng.degrade_node_links(id, 0.0, SimTime::ZERO);
                    });
                }
            }
            FaultKind::AsymmetricPartition { node, inbound } => {
                if matches!(node, GrayTarget::Store(_)) && node_of(tb, node).is_some() {
                    bump_epoch_at(tb, witness, at);
                    bump_epoch_at(tb, witness, end);
                }
                partition(tb, node, (inbound, !inbound), at, end);
            }
        }
    }
}

/// Resolves a fault target to its testbed node.
fn node_of(tb: &Testbed, target: GrayTarget) -> Option<NodeId> {
    match target {
        GrayTarget::Instance(i) => tb.instances.get(i).copied(),
        GrayTarget::Store(i) => tb.stores.get(i).copied(),
        GrayTarget::Mux(i) => tb.muxes.get(i).copied(),
        GrayTarget::Backend(i) => tb.backends.get(i).copied(),
    }
}

/// Kills `target` at `at` and restarts it fresh at `end`.
fn crash(tb: &mut Testbed, target: GrayTarget, at: SimTime, end: SimTime) {
    if let Some(id) = node_of(tb, target) {
        tb.engine.schedule(at, move |eng| eng.fail_node(id));
        tb.restore_at(id, end);
    }
}

/// Cuts `target`'s ingress and/or egress (`(cut_in, cut_out)`) at `at`
/// and heals it at `end`. The node stays alive: its timers keep firing.
fn partition(tb: &mut Testbed, target: GrayTarget, cut: (bool, bool), at: SimTime, end: SimTime) {
    if let Some(id) = node_of(tb, target) {
        let (cut_in, cut_out) = cut;
        tb.engine
            .schedule(at, move |eng| eng.partition_node_dirs(id, cut_in, cut_out));
        tb.engine.schedule(end, move |eng| eng.heal_node(id));
    }
}

/// Symmetric WAN override (both directions) for the window `[at, end)`.
fn wan_override(
    tb: &mut Testbed,
    at: SimTime,
    end: SimTime,
    mk: impl Fn(LinkSpec) -> LinkSpec + Send + 'static,
) {
    let dirs = vec![(Zone::External, Zone::Dc), (Zone::Dc, Zone::External)];
    wan_override_dirs(tb, at, end, dirs, mk);
}

/// Applies `mk(base_link)` as a stacked override on each directed zone
/// pair at `at` and clears it at `end`. The apply closure schedules the
/// clear closure itself, passing the override ids by value — message
/// passing through the event queue, where a shared `Rc<RefCell<…>>` cell
/// would make both closures non-`Send`, which `Engine::schedule` rejects.
fn wan_override_dirs(
    tb: &mut Testbed,
    at: SimTime,
    end: SimTime,
    dirs: Vec<(Zone, Zone)>,
    mk: impl Fn(LinkSpec) -> LinkSpec + Send + 'static,
) {
    tb.engine.schedule(at, move |eng| {
        let topo = eng.topology_mut();
        let mut ids = Vec::new();
        for (from, to) in dirs {
            let spec = mk(topo.link(from, to));
            ids.push((from, to, topo.apply_override(from, to, spec)));
        }
        eng.schedule(end, move |eng| {
            let topo = eng.topology_mut();
            for (from, to, id) in ids {
                topo.clear_override(from, to, id);
            }
        });
    });
}

/// Bumps the witness epoch at `at` (scheduled before the co-timed fault
/// so the bump runs first).
fn bump_epoch_at(tb: &mut Testbed, witness: Option<NodeId>, at: SimTime) {
    let Some(w) = witness else {
        return;
    };
    tb.engine.schedule(at, move |eng| {
        if let Some(node) = eng.try_node_mut::<StoreWitness>(w) {
            node.bump_epoch();
        }
    });
}
