//! Post-run availability invariants.
//!
//! After the engine reaches the deadline the checker inspects the final
//! state. Conservation and bounded-resolution invariants apply to every
//! plan; the zero-breakage, read-after-write, convergence, and
//! probe-liveness invariants only apply to survivable plans (whose
//! schedules respect Yoda's availability preconditions).

use yoda_core::controller::Controller;
use yoda_core::instance::YodaInstance;
use yoda_core::rules::RuleTable;
use yoda_core::testbed::Testbed;
use yoda_http::{BrowserClient, OriginServer};
use yoda_netsim::NodeId;
use yoda_tcpstore::StoreServer;

use crate::orchestrator::ChaosScenario;
use crate::plan::ChaosPlan;
use crate::witness::StoreWitness;

/// Runs every applicable invariant; returns human-readable violations
/// (empty = the run passed).
pub fn check_invariants(
    tb: &Testbed,
    plan: &ChaosPlan,
    browsers: &[NodeId],
    witness: NodeId,
    sc: &ChaosScenario,
) -> Vec<String> {
    let mut v = Vec::new();
    let now = tb.engine.now();

    // --- Conservation: no fetch ever vanishes (all plans). -------------
    let mut total_completed = 0u64;
    let mut total_broken = 0u64;
    let mut total_in_flight = 0u64;
    for (bi, &b) in browsers.iter().enumerate() {
        let Some(bc) = tb.engine.try_node_ref::<BrowserClient>(b) else {
            v.push(format!("browser {bi}: node unreadable"));
            continue;
        };
        let accounted =
            bc.completed + bc.timeouts + bc.resets + bc.session_resets + bc.in_flight() as u64;
        if bc.started_fetches != accounted {
            v.push(format!(
                "browser {bi}: conservation broken — started {} != accounted {} \
                 (completed {} + timeouts {} + resets {} + session_resets {} + in_flight {})",
                bc.started_fetches,
                accounted,
                bc.completed,
                bc.timeouts,
                bc.resets,
                bc.session_resets,
                bc.in_flight()
            ));
        }
        total_completed += bc.completed;
        total_broken += bc.broken_flows;
        total_in_flight += bc.in_flight() as u64;
    }
    if total_completed == 0 {
        v.push("no fetch completed in the whole run".to_string());
    }

    // --- Degraded-mode drops are bounded and accounted (all plans). ----
    // Every record that entered the write-behind buffer is either still
    // queued, replayed after a heal, or counted as dropped — and the
    // queue itself never exceeds its configured cap.
    let wb_cap = yoda_core::instance::WRITE_BEHIND_CAP;
    for (&id, addr) in tb.instances.iter().zip(&tb.instance_addrs) {
        let Some(inst) = tb.engine.try_node_ref::<YodaInstance>(id) else {
            continue;
        };
        let dur = inst.durability();
        let queued = dur.write_behind_len() as u64;
        let accounted = dur.wb_drained + dur.wb_dropped + queued;
        if dur.wb_enqueued != accounted {
            v.push(format!(
                "instance {addr}: write-behind conservation broken — enqueued {} != \
                 accounted {} (drained {} + dropped {} + queued {queued})",
                dur.wb_enqueued, accounted, dur.wb_drained, dur.wb_dropped
            ));
        }
        if queued as usize > wb_cap {
            v.push(format!(
                "instance {addr}: write-behind queue {queued} exceeds its cap {wb_cap}"
            ));
        }
    }

    // --- Bounded resolution (drain) for finite workloads. --------------
    if sc.max_pages.is_some() && total_in_flight != 0 {
        v.push(format!(
            "{total_in_flight} fetches still unresolved at the deadline — a \
             finite workload must drain (bounded timeouts, never hung)"
        ));
    }

    if !plan.survivable {
        return v;
    }

    // --- Zero user-visible breakage (survivable only). -----------------
    if total_broken != 0 {
        v.push(format!(
            "{total_broken} broken flows under a survivable plan (expected 0)"
        ));
    }

    // --- Read-after-write on surviving replicas. -----------------------
    match tb.engine.try_node_ref::<StoreWitness>(witness) {
        Some(w) => {
            for wv in &w.violations {
                v.push(format!("store witness: {wv}"));
            }
            if w.checks == 0 {
                v.push("store witness never completed a verdict pair".to_string());
            }
        }
        None => v.push("store witness node unreadable".to_string()),
    }

    // --- Every component healed and back alive. ------------------------
    let all = tb
        .instances
        .iter()
        .chain(&tb.muxes)
        .chain(&tb.stores)
        .chain(&tb.backends)
        .chain([&tb.controller]);
    for &id in all {
        if !tb.engine.is_alive(id) {
            v.push(format!(
                "{} still dead after every fault healed",
                tb.engine.node_name(id)
            ));
        } else if tb.engine.is_partitioned(id) {
            v.push(format!(
                "{} still partitioned after every fault healed",
                tb.engine.node_name(id)
            ));
        } else if tb.engine.is_link_degraded(id) {
            v.push(format!(
                "{} links still degraded after every fault healed",
                tb.engine.node_name(id)
            ));
        }
    }

    // --- Slowdowns healed: every speed factor back to 1.0. -------------
    for (&id, addr) in tb.stores.iter().zip(&tb.store_addrs) {
        if let Some(s) = tb.engine.try_node_ref::<StoreServer>(id) {
            if s.speed_factor() != 1.0 {
                v.push(format!(
                    "store {addr} still slowed ({}x) after every fault healed",
                    s.speed_factor()
                ));
            }
        }
    }
    for &id in &tb.backends {
        if let Some(s) = tb.engine.try_node_ref::<OriginServer>(id) {
            if s.speed_factor() != 1.0 {
                v.push(format!(
                    "backend {} still slowed ({}x) after every fault healed",
                    tb.engine.node_name(id),
                    s.speed_factor()
                ));
            }
        }
    }

    // --- Brownout heal ⇒ write-behind drains. --------------------------
    // Survivable schedules heal every gray fault well before the
    // deadline, so no instance may still be running degraded, and every
    // queued write-behind record must have replayed to the store.
    for (&id, addr) in tb.instances.iter().zip(&tb.instance_addrs) {
        if !tb.engine.is_alive(id) {
            continue;
        }
        let Some(inst) = tb.engine.try_node_ref::<YodaInstance>(id) else {
            continue;
        };
        if inst.durability().is_degraded() {
            v.push(format!(
                "instance {addr} still in degraded mode after every store fault healed"
            ));
        } else if inst.durability().write_behind_len() != 0 {
            v.push(format!(
                "instance {addr}: {} write-behind records never drained after heal",
                inst.durability().write_behind_len()
            ));
        }
    }

    // --- Controller/assignment convergence after heal. -----------------
    let Some(ctrl) = tb.engine.try_node_ref::<Controller>(tb.controller) else {
        v.push("controller unreadable under a survivable plan".to_string());
        return v;
    };
    for (vip, text) in ctrl.vip_rules_text() {
        let Some(expected) = RuleTable::parse(&text).map(|t| t.to_text()) else {
            v.push(format!("controller holds unparsable rules for {vip}"));
            continue;
        };
        let assigned = ctrl.vip_instances(vip);
        if assigned.is_empty() {
            v.push(format!("no instance assigned to {vip} after heal"));
        }
        for addr in assigned {
            let Some(id) = tb.engine.node_by_addr(addr) else {
                v.push(format!("{vip}: assigned instance {addr} unknown"));
                continue;
            };
            if !tb.engine.is_alive(id) {
                continue; // already reported above
            }
            let Some(inst) = tb.engine.try_node_ref::<YodaInstance>(id) else {
                v.push(format!("{vip}: instance {addr} unreadable"));
                continue;
            };
            match inst.vip_rules_text().get(&vip) {
                Some(got) if *got == expected => {}
                Some(_) => v.push(format!(
                    "{vip}: instance {addr} rules diverge from the controller after heal"
                )),
                None => v.push(format!(
                    "{vip}: instance {addr} is assigned but has no rules installed"
                )),
            }
        }
    }

    // --- Probe-pool liveness: quarantines lapse after heal. ------------
    for (&id, addr) in tb.instances.iter().zip(&tb.instance_addrs) {
        if !tb.engine.is_alive(id) {
            continue;
        }
        let Some(inst) = tb.engine.try_node_ref::<YodaInstance>(id) else {
            continue;
        };
        let quarantined = inst.prober().quarantined(now);
        if !quarantined.is_empty() {
            v.push(format!(
                "instance {addr}: {} backends still quarantined at the deadline: {:?}",
                quarantined.len(),
                quarantined
            ));
        }
    }

    v
}
