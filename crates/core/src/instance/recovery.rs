//! Failure recovery (paper §4.3, Figure 5): the shell's handling of
//! packets for flows this instance has never seen. The packet is parked,
//! TCPStore is asked under both hypotheses (client side / server side of
//! a flow), and a hit rebuilds the flow and re-feeds the parked packets.

use yoda_netsim::{Ctx, Note, SimTime};
use yoda_tcp::Segment;
use yoda_tcpstore::{StoreEvent, StoreOutcome};

use super::durability::Waiter;
use super::flow::{Flow, Io, Slot};
use super::{move_load, Found, Pair, YodaInstance};
use crate::flowstate::{FlowRecord, SynRecord};

/// Segments awaiting one pair's recovery lookup. Each of its three reads
/// completes exactly once, by the store client's op deadline at the
/// latest, so the entry leaves `recovering` within that deadline.
pub(super) struct RecoverEntry {
    buffered: Vec<Segment>,
    outstanding: u8,
    syn_hit: Option<SynRecord>,
    flow_hit: Option<FlowRecord>,
}

impl YodaInstance {
    pub(super) fn start_recovery(&mut self, ctx: &mut Ctx<'_>, rk: Pair, seg: Segment) {
        if let Some(entry) = self.recovering.get_mut(&rk) {
            entry.buffered.push(seg);
            return;
        }
        let (src, dst) = rk;
        if self.dur.is_degraded() {
            // Store brownout: a recovery read would only add load to the
            // browning servers and stall for the full op timeout. Shed
            // it; the client's retransmit re-triggers recovery once the
            // store heals.
            self.shed_reads += 1;
            self.dropped_unknown += 1;
            ctx.trace(Note::RecoveryShed { src, dst });
            return;
        }
        // Two hypotheses, looked up in parallel: this is the client side
        // of a flow (flow:/syn: keys) or the server side (rflow: key).
        ctx.trace(Note::RecoveryLookup { src, dst });
        for key in [
            FlowRecord::key(src, dst),
            SynRecord::key(src, dst),
            FlowRecord::rkey(src, dst),
        ] {
            self.dur.read(ctx, key, Waiter::Recover(rk));
        }
        let entry = RecoverEntry {
            buffered: vec![seg],
            outstanding: 3,
            syn_hit: None,
            flow_hit: None,
        };
        self.recovering.insert(rk, entry);
    }

    pub(super) fn recovery_event(&mut self, ctx: &mut Ctx<'_>, rk: Pair, ev: StoreEvent) {
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
        // `backend`: that of a recovered established flow; `None` for a
        // connection-phase one.
        let (key, flow, backend) = if let Some(rec) = entry.flow_hit {
            let (client, vip) = (rec.client, rec.vip);
            if self.index.get(&(client, vip)).is_some() {
                // The record is stale: the flow's other leg won a lookup of
                // its own meanwhile, or a residual packet of a backend cut
                // off by a switch found no route. Installing it would
                // clobber the live flow. Parked packets that now find a
                // flow go to it; the rest are dropped.
                let resolves = !matches!(self.index.find(rk), Found::Orphan | Found::Unknown);
                let dropped = if resolves { 0 } else { entry.buffered.len() };
                self.dropped_unknown += dropped as u64;
                ctx.trace(Note::StaleRecovery {
                    client,
                    vip,
                    dropped,
                });
                if resolves {
                    for seg in entry.buffered {
                        self.handle_segment(ctx, rk, seg);
                    }
                }
                return;
            }
            let (cert_len, out) = (self.cert_len(rec.vip), &mut self.actions);
            let flow = Flow::recover(rec, cert_len, &mut Io { env, delay, out });
            ((client, vip), flow, Some(rec.backend))
        } else if let Some(syn) = entry.syn_hit {
            let key = (syn.client, syn.vip);
            let flow = Flow::recover_syn(syn, self.cert_len(syn.vip), env.now);
            (key, flow, None)
        } else {
            // Total miss: not ours, drop everything buffered.
            let ((src, dst), dropped) = (rk, entry.buffered.len());
            self.dropped_unknown += dropped as u64;
            ctx.trace(Note::RecoveryMiss { src, dst, dropped });
            return;
        };
        self.recoveries += 1;
        move_load(&mut self.select_ctx.loads, None, flow.load_backend());
        self.index.open(key, Slot::Live(Box::new(flow)));
        self.apply(ctx, key);
        let (client, vip) = key;
        ctx.trace(Note::Recovered {
            client,
            vip,
            backend,
        });
        for seg in entry.buffered {
            self.handle_segment(ctx, rk, seg);
        }
    }
}
