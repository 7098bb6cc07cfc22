//! Applies a [`ChaosPlan`] to a live [`Testbed`] and runs the scenario.
//!
//! A node fault resolves its [`Target`] through [`Testbed::node`] and
//! schedules its start and end (crash + fresh restart through
//! [`Testbed::restore_at`], partition + heal, slowdown + heal, link
//! degrade + heal); the WAN impairments are time-windowed topology
//! overrides. Store faults additionally bump the [`StoreWitness`] epoch
//! at both boundaries so read-after-write verdicts never span a
//! membership change.

use yoda_core::Controller;
use yoda_core::{Target, Testbed, TestbedConfig};
use yoda_core::{YodaConfig, YodaInstance};
use yoda_http::{BrowserClient, BrowserConfig};
use yoda_l4lb::Mux;
use yoda_netsim::{Addr, LinkSpec, NodeId, SimTime, Zone};

use crate::cases::{Case, Outcome};
use crate::invariants::check_invariants;
use crate::plan::{ChaosPlan, FaultKind, BACKENDS, INSTANCES, MUXES, SERVICES, STORES};
use crate::witness::StoreWitness;

/// Both directions of the WAN: client→DC, DC→client.
const BOTH_WAYS: [(Zone, Zone); 2] = [(Zone::External, Zone::Dc), (Zone::Dc, Zone::External)];

/// Concurrent fetch processes per browser.
const BROWSER_PROCESSES: usize = 2;

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

/// Builds the testbed, schedules the plan, runs to the deadline, and
/// checks the invariants. The plan carries the regime: the browsers, the
/// deadline and every invariant follow `plan.survivable`; with `splice`
/// on, some traffic must also take the mux fast path. The report is a
/// one-line summary of the client, witness, controller and instance
/// counters, then the plan.
pub(crate) fn run_plan(case: Case, plan: &ChaosPlan, splice: bool) -> Outcome {
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
    prequal_on_service_0(&mut tb);

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

    apply_plan(&mut tb, plan, witness);
    tb.engine.run_for(deadline(plan.survivable));

    let eng = &tb.engine;
    let sum = |ids: &[NodeId], f: &dyn Fn(NodeId) -> Option<u64>| -> u64 {
        ids.iter().filter_map(|&id| f(id)).sum()
    };
    let browser = |f: fn(&BrowserClient) -> u64| {
        sum(&browsers, &|b| eng.try_node_ref::<BrowserClient>(b).map(f))
    };
    let instance = |f: fn(&YodaInstance) -> u64| {
        sum(&tb.instances, &|i| {
            eng.try_node_ref::<YodaInstance>(i).map(f)
        })
    };
    let spliced = sum(&tb.muxes, &|m| {
        eng.try_node_ref::<Mux>(m).map(|mx| mx.spliced)
    });
    let splices_installed = instance(|i| i.splices_installed);
    let w = eng.try_node_ref::<StoreWitness>(witness);
    let controller = eng.try_node_ref::<Controller>(tb.controller);
    let summary = format!(
        "{case}: completed={} broken={} timeouts={} resets={} pages={} \
         witness(ok={} skipped={}) recoveries={} spliced={spliced}/{splices_installed} \
         gray(degraded={} wb_dropped={} derates={}) \
         digest={:#018x}",
        browser(|b| b.completed),
        browser(|b| b.broken_flows),
        browser(|b| b.timeouts),
        browser(|b| b.resets),
        browser(|b| b.pages_completed),
        w.map_or(0, |w| w.checks),
        w.map_or(0, |w| w.skipped),
        controller.map_or(0, |c| c.recoveries_detected),
        instance(|i| i.degraded_entries),
        instance(|i| i.durability().wb_dropped),
        controller.map_or(0, |c| c.derates),
        eng.event_digest(),
    );
    let mut violations = check_invariants(&tb, plan, &browsers, witness);
    if splice && (spliced == 0 || splices_installed == 0) {
        violations.push("no splice carried traffic".to_string());
    }
    let verdict = violations.iter().map(|v| format!("  VIOLATION: {v}\n"));
    let verdict: String = verdict.collect();
    Outcome {
        verdict: if verdict.is_empty() {
            Ok(())
        } else {
            Err(verdict)
        },
        report: format!("{summary}\n{plan}"),
        ..Outcome::at_end(case, eng)
    }
}

/// Switches service 0 to a prequal policy over its backends at 100 ms.
pub(crate) fn prequal_on_service_0(tb: &mut Testbed) {
    let Some(&vip) = tb.vips.first() else {
        return;
    };
    let backends = tb.service_backends.first().into_iter().flatten();
    let backends: Vec<String> = backends.map(|b| b.to_string()).collect();
    let rules = format!(
        "name=pq-0 priority=1 match * action=prequal {}",
        backends.join(" ")
    );
    tb.set_policy_at(vip, &rules, SimTime::from_millis(100));
}

/// Schedules every fault of `plan` onto the testbed. `witness` gets its
/// epoch bumped at each boundary of a store fault. A node index outside
/// the testbed (generator indices always fit the shape; hand-built plans
/// may not) schedules nothing.
fn apply_plan(tb: &mut Testbed, plan: &ChaosPlan, witness: NodeId) {
    for f in &plan.faults {
        let (at, end) = (f.at, f.end());
        match f.kind {
            FaultKind::Crash(node) => on_node(
                tb,
                witness,
                node,
                (at, end),
                |tb, _| tb.fail_at(node, at),
                |tb, _| tb.restore_at(node, end),
            ),
            FaultKind::Partition {
                node,
                cut_in,
                cut_out,
            } => on_node(
                tb,
                witness,
                node,
                (at, end),
                |tb, id| {
                    tb.engine
                        .schedule(at, move |eng| eng.partition_node_dirs(id, cut_in, cut_out));
                },
                |tb, id| tb.engine.schedule(end, move |eng| eng.heal_node(id)),
            ),
            FaultKind::Slowdown { node, factor } => on_node(
                tb,
                witness,
                node,
                (at, end),
                |tb, _| tb.slowdown_at(node, f64::from(factor), at),
                |tb, _| tb.slowdown_at(node, 1.0, end),
            ),
            FaultKind::LinkDegrade {
                node,
                loss_pct,
                jitter_ms,
            } => {
                let loss = f64::from(loss_pct.min(100)) / 100.0;
                let jitter = SimTime::from_millis(u64::from(jitter_ms));
                on_node(
                    tb,
                    witness,
                    node,
                    (at, end),
                    |tb, id| {
                        tb.engine
                            .schedule(at, move |eng| eng.degrade_node_links(id, loss, jitter));
                    },
                    |tb, id| {
                        tb.engine.schedule(end, move |eng| {
                            eng.degrade_node_links(id, 0.0, SimTime::ZERO);
                        });
                    },
                );
            }
            FaultKind::ControllerKill => {
                let id = tb.controller;
                tb.engine.schedule(at, move |eng| eng.fail_node(id));
            }
            FaultKind::WanLossBurst { loss_pct } => {
                let loss = f64::from(loss_pct.min(100)) / 100.0;
                wan_override(tb, at, end, BOTH_WAYS.to_vec(), move |base| LinkSpec {
                    loss,
                    ..base
                });
            }
            FaultKind::WanLatencySpike { extra_ms } => {
                let extra = SimTime::from_millis(u64::from(extra_ms));
                wan_override(tb, at, end, BOTH_WAYS.to_vec(), move |base| LinkSpec {
                    latency: base.latency + extra,
                    ..base
                });
            }
            FaultKind::WanPartition { to_dc, to_ext } => {
                let dirs = BOTH_WAYS.into_iter().zip([to_dc, to_ext]);
                let dirs = dirs.filter_map(|(d, on)| on.then_some(d)).collect();
                wan_override(tb, at, end, dirs, |_| LinkSpec::blackhole());
            }
        }
    }
}

/// Schedules a fault on `node` over `[at, end)`: `start` schedules its
/// injection and `stop` its heal, each given the node's id. A fault on a
/// store is bracketed by witness epoch bumps, each scheduled just before
/// the closure it guards, so pairs in flight across the boundary are
/// disqualified before the store changes. Nothing is scheduled for a
/// node the testbed does not have.
fn on_node(
    tb: &mut Testbed,
    witness: NodeId,
    node: Target,
    (at, end): (SimTime, SimTime),
    start: impl FnOnce(&mut Testbed, NodeId),
    stop: impl FnOnce(&mut Testbed, NodeId),
) {
    let Some(id) = tb.node(node) else {
        return;
    };
    let store = matches!(node, Target::Store(_));
    if store {
        bump_epoch_at(tb, witness, at);
    }
    start(tb, id);
    if store {
        bump_epoch_at(tb, witness, end);
    }
    stop(tb, id);
}

/// Applies `mk(base_link)` as a stacked override on each directed zone
/// pair at `at` and clears it at `end`. The apply closure schedules the
/// clear closure itself, passing the override ids by value — message
/// passing through the event queue, where a shared `Rc<RefCell<…>>` cell
/// would make both closures non-`Send`, which `Engine::schedule` rejects.
fn wan_override(
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

/// Bumps the witness epoch at `at`.
fn bump_epoch_at(tb: &mut Testbed, w: NodeId, at: SimTime) {
    tb.engine.schedule(at, move |eng| {
        if let Some(node) = eng.try_node_mut::<StoreWitness>(w) {
            node.bump_epoch();
        }
    });
}
