//! Durability: everything between the instance and TCPStore.
//!
//! Owns the [`StoreClient`], the table of completions the instance is
//! still waiting on, and the gray-failure machinery around it — the
//! write-timeout streak, degraded mode, the bounded write-behind buffer,
//! heal probes and the completion-clocked drain. The shell hands it
//! writes and reads and gets back, per store event, *whose* wait just
//! ended; it never sees a flow.

use std::collections::VecDeque;

use yoda_netsim::{Addr, Bytes, Ctx, Endpoint, FlowTable, Note, Packet, SimTime, TimerToken};
use yoda_tcpstore::{StoreClient, StoreEvent, StoreOp, StoreOutcome, OP_TIMEOUT};

use super::index::{FlowKey, Pair};

/// Heal-probe timer while the instance is in degraded mode.
const HEAL_PROBE_KIND: u32 = 0x6D;
/// How often a degraded instance probes the store for recovery.
const HEAL_PROBE_INTERVAL: SimTime = SimTime::from_millis(250);
/// Gray-failure tolerance: this many *consecutive* store-write timeouts
/// tip the instance into degraded mode, where SYN-ACKs no longer wait on
/// store acks and writes buffer in the write-behind queue until the
/// store heals. Durability is traded for availability only while the
/// store browns out.
const DEGRADED_AFTER: u32 = 3;
/// Write-behind buffer capacity while degraded. Overflow drops the
/// *oldest* record (its flow loses recoverability, not service) and
/// accounts the drop in `wb_dropped`.
pub const WRITE_BEHIND_CAP: usize = 256;
/// Write-behind records in flight at once while draining after a heal.
/// The drain is completion-clocked — the next record goes out when one
/// lands — so the replay rate adapts to whatever the recovering store
/// can actually sustain instead of burying it under one burst (which
/// would time out fresh flow writes and flap the instance straight back
/// into degraded mode).
const WB_DRAIN_WINDOW: usize = 2;
/// Consecutive fast heal-probe successes required before a degraded
/// instance re-arms. One probe squeaking under the op timeout between
/// queue spikes is not a healed store; two in a row is cheap hysteresis
/// against flapping at the timeout boundary.
const HEAL_AFTER_PROBES: u32 = 2;

/// A store write, as issued by a flow and as parked in the write-behind
/// buffer while the store browns out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum WriteOp {
    Set(Bytes, Bytes),
    Delete(Bytes),
}

/// Who is waiting on a store completion. Fire-and-forget writes have no
/// waiter and no table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Waiter {
    /// storage-a of this flow: the SYN-ACK is withheld until it lands.
    SynStored(FlowKey),
    /// One of the two storage-b sets of this flow.
    FlowStored(FlowKey),
    /// One of the three recovery reads for this pair.
    Recover(Pair),
    HealProbe,
    /// A write-behind record replayed after a heal; completion pulls the
    /// next record into the drain window.
    Drain,
}

/// The instance's store-facing component (see the module docs).
pub struct Durability {
    store: StoreClient,
    probe_key: Bytes,
    waiting: FlowTable<u64, Waiter>,
    next_tag: u64,
    /// Degraded mode (store brownout): SYN-ACKs no longer wait on store
    /// acks; writes buffer in `write_behind`.
    degraded: bool,
    /// Consecutive store-write timeouts (any write success resets).
    consec_write_timeouts: u32,
    /// Writes deferred while degraded, replayed on heal (bounded).
    write_behind: VecDeque<WriteOp>,
    /// A heal-probe timer chain is currently armed.
    heal_probe_armed: bool,
    /// Consecutive fast heal-probe successes (heal hysteresis).
    fast_probes: u32,
    /// Write-behind records currently in flight to the store (drain).
    drain_inflight: usize,
    /// Write-behind records enqueued while degraded.
    pub wb_enqueued: u64,
    /// Write-behind records dropped on overflow (oldest first).
    pub wb_dropped: u64,
    /// Write-behind records replayed to the store after a heal.
    pub wb_drained: u64,
}

impl Durability {
    pub(crate) fn new(replicas: usize, addr: Addr, store_servers: &[Addr]) -> Self {
        Durability {
            store: StoreClient::new(replicas, Endpoint::new(addr, 9999), store_servers),
            probe_key: Bytes::from(format!("hprobe:{addr}")),
            waiting: FlowTable::new(),
            next_tag: 1,
            degraded: false,
            consec_write_timeouts: 0,
            write_behind: VecDeque::new(),
            heal_probe_armed: false,
            fast_probes: 0,
            drain_inflight: 0,
            wb_enqueued: 0,
            wb_dropped: 0,
            wb_drained: 0,
        }
    }

    /// The embedded store client (latency and per-replica stats).
    pub(crate) fn store(&self) -> &StoreClient {
        &self.store
    }

    /// Mutable access to the embedded store client.
    pub(crate) fn store_mut(&mut self) -> &mut StoreClient {
        &mut self.store
    }

    /// Whether the instance is currently in degraded mode.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Records currently queued in the write-behind buffer.
    pub fn write_behind_len(&self) -> usize {
        self.write_behind.len()
    }

    pub(crate) fn owns_timer_kind(kind: u32) -> bool {
        kind == HEAL_PROBE_KIND || StoreClient::owns_timer_kind(kind)
    }

    /// Tag 0 marks an op nobody waits on; waited ops get a table entry.
    fn tag(&mut self, waiter: Option<Waiter>) -> u64 {
        let Some(w) = waiter else {
            return 0;
        };
        let t = self.next_tag;
        self.next_tag += 1;
        self.waiting.insert(t, w);
        t
    }

    fn issue(&mut self, ctx: &mut Ctx<'_>, op: WriteOp, tag: u64) {
        match op {
            WriteOp::Set(k, v) => self.store.set(ctx, k, v, tag),
            WriteOp::Delete(k) => self.store.delete(ctx, k, tag),
        }
    }

    /// The one write entry point: straight to the store when healthy,
    /// into the write-behind buffer while degraded (the flow side has
    /// already decided not to wait — a deferred write has no waiter).
    /// Conservation: `wb_enqueued == wb_drained + wb_dropped + len`.
    pub(crate) fn write(&mut self, ctx: &mut Ctx<'_>, op: WriteOp, waiter: Option<Waiter>) {
        if !self.degraded {
            let tag = self.tag(waiter);
            return self.issue(ctx, op, tag);
        }
        if self.write_behind.len() >= WRITE_BEHIND_CAP {
            self.write_behind.pop_front();
            self.wb_dropped += 1;
        }
        self.write_behind.push_back(op);
        self.wb_enqueued += 1;
    }

    pub(crate) fn read(&mut self, ctx: &mut Ctx<'_>, key: Bytes, waiter: Waiter) {
        let tag = self.tag(Some(waiter));
        self.store.get(ctx, key, tag);
    }

    pub(crate) fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) -> Option<StoreEvent> {
        self.store.on_packet(ctx, pkt)
    }

    pub(crate) fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) -> Option<StoreEvent> {
        if token.kind == HEAL_PROBE_KIND {
            self.heal_probe(ctx);
            return None;
        }
        self.store.on_timer(ctx, token)
    }

    /// Digests one store event: feeds the write-health accounting, runs
    /// the heal-probe and drain completions, and returns the waiter when
    /// it is one the shell must act on (a flow's storage-a/b or a
    /// recovery read).
    pub(crate) fn settle(&mut self, ctx: &mut Ctx<'_>, ev: &StoreEvent) -> Option<Waiter> {
        // Every set/delete outcome feeds the degraded-mode trigger,
        // regardless of which path issued it.
        if matches!(ev.op, StoreOp::Set | StoreOp::Delete) {
            if ev.outcome == StoreOutcome::TimedOut {
                self.note_write_timeout(ctx);
            } else {
                // Resets the streak but deliberately does NOT exit
                // degraded mode — a write issued before the brownout can
                // still complete on one ack at its deadline, and healing
                // on such a straggler flaps the instance in and out of
                // degraded mode (each re-entry blocks `DEGRADED_AFTER`
                // more SYN-ACKs on a store that is still slow). Only a
                // fast heal probe heals.
                self.consec_write_timeouts = 0;
            }
        }
        match self.waiting.remove(&ev.tag)? {
            Waiter::Drain => {
                // Whatever the outcome, the slot frees up: blocking the
                // drain would starve the rest of the buffer. A drain write
                // that no replica acked in time is not re-sent. On a slow
                // store it was applied on arrival and only its acks were
                // late; on dead or cut-off replicas its record is lost.
                self.drain_inflight = self.drain_inflight.saturating_sub(1);
                self.drain_step(ctx);
                None
            }
            Waiter::HealProbe => {
                // The heal decision requires *consecutive fast* successes
                // — each within one op-timeout window — so a store
                // hovering at the timeout boundary (one lucky probe
                // between queue spikes) does not flap the instance out of
                // and back into degraded mode.
                if self.degraded {
                    if ev.outcome != StoreOutcome::TimedOut && ev.latency <= OP_TIMEOUT {
                        self.fast_probes += 1;
                        if self.fast_probes >= HEAL_AFTER_PROBES {
                            self.fast_probes = 0;
                            self.heal(ctx);
                        }
                    } else {
                        self.fast_probes = 0;
                    }
                }
                None
            }
            flow_or_recovery => Some(flow_or_recovery),
        }
    }

    /// Counts a store-write timeout; `DEGRADED_AFTER` consecutive ones
    /// tip the instance into degraded mode. The paper's write-before-
    /// commit ordering (§4.2) trades latency for recoverability; under a
    /// store brownout the instance flips that trade so new connections
    /// keep succeeding.
    fn note_write_timeout(&mut self, ctx: &mut Ctx<'_>) {
        self.consec_write_timeouts += 1;
        if !self.degraded && self.consec_write_timeouts >= DEGRADED_AFTER {
            self.degraded = true;
            let timeouts = self.consec_write_timeouts;
            ctx.trace(Note::Degraded { timeouts });
            if !self.heal_probe_armed {
                self.heal_probe_armed = true;
                ctx.set_timer(HEAL_PROBE_INTERVAL, TimerToken::new(HEAL_PROBE_KIND));
            }
        }
    }

    /// Exits degraded mode and starts replaying the write-behind buffer.
    /// New flows resume the normal write-before-commit ordering at once;
    /// the buffered records trickle out completion-clocked (see
    /// [`WB_DRAIN_WINDOW`]).
    fn heal(&mut self, ctx: &mut Ctx<'_>) {
        self.degraded = false;
        let write_behind = self.write_behind.len();
        ctx.trace(Note::StoreHealed { write_behind });
        self.drain_step(ctx);
    }

    /// Tops the drain window back up to [`WB_DRAIN_WINDOW`] records in
    /// flight. Pauses while degraded (a re-brownout mid-drain keeps the
    /// rest of the buffer for the next heal).
    fn drain_step(&mut self, ctx: &mut Ctx<'_>) {
        while !self.degraded && self.drain_inflight < WB_DRAIN_WINDOW {
            let Some(op) = self.write_behind.pop_front() else {
                break;
            };
            self.wb_drained += 1;
            self.drain_inflight += 1;
            let tag = self.tag(Some(Waiter::Drain));
            self.issue(ctx, op, tag);
        }
    }

    /// Degraded-mode heal probe: a tiny periodic write is the only store
    /// traffic the instance originates while degraded. The probe heals
    /// the instance ([`Self::heal`]) only when it completes within one
    /// op-timeout window — success-by-retry or a late ack means the
    /// store is still browning and the write-before-commit path would
    /// stall on it.
    fn heal_probe(&mut self, ctx: &mut Ctx<'_>) {
        self.heal_probe_armed = false;
        if !self.degraded {
            return;
        }
        let tag = self.tag(Some(Waiter::HealProbe));
        let probe = WriteOp::Set(self.probe_key.clone(), Bytes::from_static(b"hp"));
        self.issue(ctx, probe, tag);
        self.heal_probe_armed = true;
        ctx.set_timer(HEAL_PROBE_INTERVAL, TimerToken::new(HEAL_PROBE_KIND));
    }
}
