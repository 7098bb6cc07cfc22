//! Applies a [`ChaosPlan`] to a live [`Testbed`] and runs the scenario.
//!
//! Every fault maps onto the testbed's scheduled injection helpers
//! (crash + fresh restart, partition + heal) or onto time-windowed
//! topology overrides for the WAN impairments. Store faults additionally
//! bump the [`StoreWitness`] epoch at both boundaries so read-after-write
//! verdicts never span a membership change.


use yoda_core::controller::Controller;
use yoda_core::instance::{YodaConfig, YodaInstance};
use yoda_core::testbed::{Testbed, TestbedConfig};
use yoda_http::{BrowserClient, BrowserConfig};
use yoda_l4lb::Mux;
use yoda_netsim::{Addr, LinkSpec, NodeId, SimTime, Zone};

use crate::invariants::check_invariants;
use crate::plan::{ChaosPlan, FaultKind, GrayTarget, PlanBudget, PlanShape};
use crate::witness::StoreWitness;

/// Scenario knobs: testbed shape, client workload, run length, and the
/// generation budget.
#[derive(Debug, Clone)]
pub struct ChaosScenario {
    /// Active Yoda instances.
    pub instances: usize,
    /// TCPStore servers.
    pub stores: usize,
    /// L4 muxes.
    pub muxes: usize,
    /// Backend servers.
    pub backends: usize,
    /// Online services (one VIP + one browser each; service 0 runs the
    /// prequal policy so the probe subsystem is exercised).
    pub services: usize,
    /// Concurrent fetch processes per browser.
    pub browser_processes: usize,
    /// Browser retries per object.
    pub retries: u32,
    /// Browser HTTP timeout.
    pub http_timeout: SimTime,
    /// Pages per browser process (`None` = browse until the deadline).
    pub max_pages: Option<u64>,
    /// Total simulated run length.
    pub deadline: SimTime,
    /// Fault-plan budget.
    pub budget: PlanBudget,
    /// Enable the mux fast-path flow splicing on the instances, so
    /// steady-state forwarding (and its revocation/failover machinery)
    /// is under fire too.
    pub splice: bool,
}

impl ChaosScenario {
    /// Availability-preserving scenario: generous retries and timeout,
    /// floors enforced — zero broken flows expected.
    pub fn survivable() -> Self {
        ChaosScenario {
            instances: 3,
            stores: 3,
            muxes: 2,
            backends: 4,
            services: 2,
            browser_processes: 2,
            retries: 2,
            http_timeout: SimTime::from_secs(10),
            max_pages: None,
            deadline: SimTime::from_secs(45),
            budget: PlanBudget::survivable(),
            splice: false,
        }
    }

    /// Graceful-degradation scenario: no retries, short timeout, floors
    /// lifted — every fetch must still resolve in bounded time.
    pub fn unconstrained() -> Self {
        ChaosScenario {
            instances: 3,
            stores: 3,
            muxes: 2,
            backends: 4,
            services: 2,
            browser_processes: 2,
            retries: 0,
            http_timeout: SimTime::from_secs(5),
            max_pages: Some(1),
            deadline: SimTime::from_secs(100),
            budget: PlanBudget::unconstrained(),
            splice: false,
        }
    }

    /// The plan shape this scenario's testbed presents.
    pub fn shape(&self) -> PlanShape {
        PlanShape {
            instances: self.instances,
            stores: self.stores,
            muxes: self.muxes,
            backends: self.backends,
            services: self.services,
        }
    }
}

/// Everything a chaos run produced: aggregate client counters, witness
/// verdicts, the engine digest (for byte-identity checks), and the
/// invariant violations (empty = pass).
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The generating seed.
    pub seed: u64,
    /// Whether the plan was survivable.
    pub survivable: bool,
    /// The full schedule (printed on failure for one-command repro).
    pub plan: ChaosPlan,
    /// Engine event digest at the deadline.
    pub digest: u64,
    /// Events processed.
    pub events: u64,
    /// Fetches completed across all browsers.
    pub completed: u64,
    /// Broken flows (retries exhausted) across all browsers.
    pub broken_flows: u64,
    /// Fetch attempts that timed out.
    pub timeouts: u64,
    /// Fetch attempts reset by the server side.
    pub resets: u64,
    /// Pages fully fetched.
    pub pages_completed: u64,
    /// Witness pairs that produced a verdict.
    pub witness_checks: u64,
    /// Witness pairs skipped across store-fault boundaries.
    pub witness_skipped: u64,
    /// Component recoveries the controller re-integrated.
    pub recoveries_detected: u64,
    /// Packets forwarded on the mux fast path (summed across muxes).
    pub spliced: u64,
    /// Splice installs the instances issued (first installs + re-installs
    /// after mux failover).
    pub splices_installed: u64,
    /// Times any instance entered store-brownout degraded mode.
    pub degraded_entries: u64,
    /// Write-behind records dropped on buffer overflow (summed).
    pub write_behind_dropped: u64,
    /// Hedged store reads fired across all instances.
    pub store_hedges: u64,
    /// Store op retries fired across all instances.
    pub store_retries: u64,
    /// Store replica quarantine entries across all instances.
    pub store_quarantines: u64,
    /// Instance derates the controller issued (suspect, not dead).
    pub derates: u64,
    /// Invariant violations (empty = the run passed).
    pub violations: Vec<String>,
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

/// Generates the plan for `seed` under the scenario's budget and runs it.
pub fn run_seed(seed: u64, sc: &ChaosScenario) -> ChaosReport {
    let plan = ChaosPlan::generate(seed, &sc.shape(), &sc.budget);
    run_plan(&plan, sc)
}

/// Builds the testbed, schedules the plan, runs to the deadline, and
/// checks the invariants.
pub fn run_plan(plan: &ChaosPlan, sc: &ChaosScenario) -> ChaosReport {
    let mut tb = Testbed::build(TestbedConfig {
        seed: plan.seed,
        num_instances: sc.instances,
        num_spares: 0,
        num_stores: sc.stores,
        num_backends: sc.backends,
        num_muxes: sc.muxes,
        num_services: sc.services,
        pages_per_site: 12,
        yoda: YodaConfig {
            splice: sc.splice,
            ..YodaConfig::default()
        },
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

    let browser_cfg = BrowserConfig {
        processes: sc.browser_processes,
        retries: sc.retries,
        http_timeout: sc.http_timeout,
        max_pages: sc.max_pages,
        ..BrowserConfig::default()
    };
    let browsers: Vec<NodeId> = (0..sc.services)
        .map(|s| tb.add_browser(s, browser_cfg.clone()))
        .collect();

    let witness_addr = Addr::new(10, 0, 6, 1);
    let witness = tb.engine.add_node(
        "chaos-witness",
        witness_addr,
        Zone::Dc,
        Box::new(StoreWitness::new(witness_addr, &tb.store_addrs)),
    );

    apply_plan(&mut tb, plan, Some(witness));
    tb.engine.run_for(sc.deadline);

    let violations = check_invariants(&tb, plan, &browsers, witness, sc);
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
/// the fault itself so in-flight pairs are disqualified first.
pub fn apply_plan(tb: &mut Testbed, plan: &ChaosPlan, witness: Option<NodeId>) {
    for f in &plan.faults {
        let (at, end) = (f.at, f.end());
        match f.kind {
            FaultKind::InstanceCrash { i } => {
                tb.fail_instance_at(i, at);
                tb.restore_instance_at(i, end);
            }
            FaultKind::InstancePartition { i } => {
                if let Some(&id) = tb.instances.get(i) {
                    tb.partition_at(id, at);
                    tb.heal_at(id, end);
                }
            }
            FaultKind::StoreCrash { i } => {
                bump_epoch_at(tb, witness, at);
                tb.fail_store_at(i, at);
                bump_epoch_at(tb, witness, end);
                tb.restore_store_at(i, end);
            }
            FaultKind::StorePartition { i } => {
                bump_epoch_at(tb, witness, at);
                if let Some(&id) = tb.stores.get(i) {
                    tb.partition_at(id, at);
                    bump_epoch_at(tb, witness, end);
                    tb.heal_at(id, end);
                }
            }
            FaultKind::MuxCrash { i } => {
                tb.fail_mux_at(i, at);
                tb.restore_mux_at(i, end);
            }
            FaultKind::BackendCrash { i } => {
                tb.fail_backend_at(i, at);
                tb.restore_backend_at(i, end);
            }
            FaultKind::ControllerKill => {
                tb.fail_controller_at(at);
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
                if let Some(id) = gray_node(tb, node) {
                    if matches!(node, GrayTarget::Store(_)) {
                        bump_epoch_at(tb, witness, at);
                        bump_epoch_at(tb, witness, end);
                    }
                    let loss = f64::from(loss_pct.min(100)) / 100.0;
                    let jitter = SimTime::from_millis(u64::from(jitter_ms));
                    tb.degrade_links_at(id, loss, jitter, at);
                    tb.degrade_links_at(id, 0.0, SimTime::ZERO, end);
                }
            }
            FaultKind::AsymmetricPartition { node, inbound } => {
                if let Some(id) = gray_node(tb, node) {
                    if matches!(node, GrayTarget::Store(_)) {
                        bump_epoch_at(tb, witness, at);
                        bump_epoch_at(tb, witness, end);
                    }
                    tb.partition_dirs_at(id, inbound, !inbound, at);
                    tb.heal_at(id, end);
                }
            }
        }
    }
}

/// Resolves a gray-fault target to its testbed node (generator indices
/// always fit the shape; hand-built plans may not, so misses are no-ops).
fn gray_node(tb: &Testbed, node: GrayTarget) -> Option<NodeId> {
    match node {
        GrayTarget::Instance(i) => tb.instances.get(i).copied(),
        GrayTarget::Store(i) => tb.stores.get(i).copied(),
        GrayTarget::Mux(i) => tb.muxes.get(i).copied(),
        GrayTarget::Backend(i) => tb.backends.get(i).copied(),
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
            let spec = mk(*topo.link(from, to));
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
