//! Failure recovery (paper §4.3, Figure 5): the shell's handling of
//! packets for flows this instance has never seen. The packet is parked,
//! TCPStore is asked under both hypotheses (client side / server side of
//! a flow), and a hit rebuilds the flow and re-feeds the parked packets.

use yoda_netsim::{Ctx, Endpoint, SimTime};
use yoda_tcp::Segment;
use yoda_tcpstore::{StoreEvent, StoreOutcome};

use super::durability::Waiter;
use super::flow::{Flow, Io};
use super::{move_load, YodaInstance};
use crate::flowstate::{FlowRecord, SynRecord};

/// How long a recovery lookup may stay outstanding before its buffered
/// packets are discarded.
const RECOVERY_TTL: SimTime = SimTime::from_secs(5);

/// Segments awaiting one `(src, dst)` pair's recovery lookup.
pub(super) struct RecoverEntry {
    buffered: Vec<Segment>,
    outstanding: u8,
    syn_hit: Option<SynRecord>,
    flow_hit: Option<FlowRecord>,
    created: SimTime,
}

impl YodaInstance {
    pub(super) fn start_recovery(
        &mut self,
        ctx: &mut Ctx<'_>,
        rk: (Endpoint, Endpoint),
        seg: Segment,
    ) {
        if let Some(entry) = self.recovering.get_mut(&rk) {
            entry.buffered.push(seg);
            return;
        }
        if self.dur.is_degraded() {
            // Store brownout: a recovery read would only add load to the
            // browning servers and stall for the full op timeout. Shed
            // it; the client's retransmit re-triggers recovery once the
            // store heals.
            self.shed_reads += 1;
            self.dropped_unknown += 1;
            ctx.trace_note(format!("degraded: shed recovery lookup {}->{}", rk.0, rk.1));
            return;
        }
        // Two hypotheses, looked up in parallel: this is the client side
        // of a flow (flow:/syn: keys) or the server side (rflow: key).
        ctx.trace_note(format!("recovery lookup for {}->{}", rk.0, rk.1));
        for key in [
            FlowRecord::key(rk.0, rk.1),
            SynRecord::key(rk.0, rk.1),
            FlowRecord::rkey(rk.0, rk.1),
        ] {
            self.dur.read(ctx, key, Waiter::Recover(rk));
        }
        let entry = RecoverEntry {
            buffered: vec![seg],
            outstanding: 3,
            syn_hit: None,
            flow_hit: None,
            created: ctx.now(),
        };
        self.recovering.insert(rk, entry);
    }

    pub(super) fn recovery_event(
        &mut self,
        ctx: &mut Ctx<'_>,
        rk: (Endpoint, Endpoint),
        ev: StoreEvent,
    ) {
        let Some(entry) = self.recovering.get_mut(&rk) else {
            return;
        };
        entry.outstanding = entry.outstanding.saturating_sub(1);
        if let StoreOutcome::Value(v) = &ev.outcome {
            if ev.key.starts_with(b"flow:") || ev.key.starts_with(b"rflow:") {
                entry.flow_hit = FlowRecord::decode(v);
            } else if ev.key.starts_with(b"syn:") {
                entry.syn_hit = SynRecord::decode(v);
            }
        }
        if entry.outstanding != 0 && entry.flow_hit.is_none() {
            return;
        }
        let Some(entry) = self.recovering.remove(&rk) else {
            return;
        };
        let (env, delay) = (self.env(ctx.now()), SimTime::ZERO);
        let (key, flow, note) = if let Some(rec) = entry.flow_hit {
            let key = (rec.client, rec.vip);
            if self.flows.contains_key(&key) {
                // This instance already owns live state for the flow — the
                // store record is stale relative to local memory (e.g. a
                // mid-connection backend switch is in flight and a residual
                // packet from the severed old backend missed the rflow
                // table). Recovery exists for flows orphaned by a *dead*
                // instance; installing the stale record here would clobber
                // the live state, so drop the trigger packet instead.
                ctx.trace_note(format!(
                    "ignored stale recovery for {}->{} (flow is live)",
                    key.0, key.1
                ));
                return;
            }
            let (cert_len, out) = (self.cert_len(rec.vip), &mut self.actions);
            let flow = Flow::recover(rec, cert_len, &mut Io { env, delay, out });
            let note = format!(
                "recovered flow {}->{} backend {} from TCPStore",
                key.0, key.1, rec.backend
            );
            (key, flow, note)
        } else if let Some(syn) = entry.syn_hit {
            let key = (syn.client, syn.vip);
            let flow = Flow::recover_syn(syn, self.cert_len(syn.vip), env.now);
            let note = format!(
                "recovered connection-phase flow {}->{} from TCPStore",
                key.0, key.1
            );
            (key, flow, note)
        } else {
            // Total miss: not ours, drop everything buffered.
            self.dropped_unknown += entry.buffered.len() as u64;
            ctx.trace_note(format!(
                "recovery MISS for {}->{} ({} pkts dropped)",
                rk.0,
                rk.1,
                entry.buffered.len()
            ));
            return;
        };
        self.recoveries += 1;
        move_load(&mut self.select_ctx.loads, None, flow.load_backend());
        self.flows.insert(key, flow);
        self.apply(ctx, key);
        ctx.trace_note(note);
        for seg in entry.buffered {
            self.handle_segment(ctx, rk, seg);
        }
    }

    /// gc: discards lookups (and their parked packets) past the TTL.
    pub(super) fn expire_recoveries(&mut self, now: SimTime) {
        self.recovering
            .retain(|_, e| now.saturating_sub(e.created) < RECOVERY_TTL);
    }
}
