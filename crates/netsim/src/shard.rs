//! Sharded multi-core executor with conservative lookahead.
//!
//! Partitions nodes round-robin across `S` worker shards (node `n` lives
//! on shard `n % S`) and runs node handlers on one thread per shard,
//! while keeping the event digest, trace, counters, and all node state
//! **bit-for-bit identical** to the single-threaded engine at every
//! thread count. The scheme is conservative parallel discrete-event
//! simulation:
//!
//! * **Lookahead.** [`crate::topology::Topology::min_latency`] gives the
//!   smallest latency `L` of any live (loss < 1) link. Every packet sent
//!   at time `t` delivers at `t + latency + jitter >= t + L`
//!   (`delivery_time` only ever adds on top of the base latency). So all
//!   events in the window `[E, W)` with `W = E + L` are causally
//!   independent across shards: nothing a handler does inside the window
//!   can schedule work for another shard *inside* the same window.
//! * **Phase A (parallel).** Each worker pops its own shard-local events
//!   below `W` and runs handlers against a [`Ctx`] in shard mode: every
//!   globally-ordered effect (send, timer arm/cancel, trace) is *logged*
//!   in the worker's [`ShardMailbox`] instead of applied.
//! * **Phase B (sequential replay).** At the epoch barrier the
//!   coordinator S-way-merges the shard logs in canonical
//!   `(time, seq)` order — the exact order the single-threaded engine
//!   would have processed those events — and replays the logged effects
//!   against the real engine core: sequence numbers and timer ids are
//!   allocated here, RNG-consuming sends run here, digests fold here.
//!   Replay order equals single-threaded execution order, so every
//!   allocated value and every RNG draw is identical by induction.
//!
//! # Timers and provisional ids
//!
//! A handler that arms a timer needs a [`TimerId`] *now*, but the real
//! globally-sequenced id does not exist until replay. Workers issue
//! **provisional ids** ([`PROV_BIT`] | shard | counter) that are globally
//! unique forever (the counter base persists across runs in
//! `EngineCore::next_prov`) and sort after every real sequence number.
//! Replay resolves each provisional id to its real `(seq, id)` pair the
//! moment the logged arm is applied; the resolution map lives only for
//! one window, which suffices because an intra-window timer always fires
//! in the window that armed it, and a cross-window timer is re-keyed by
//! its real seq once it sits in a shard wheel.
//!
//! Timers with a deadline inside the current window go to a worker-local
//! [`MiniWheel`] and fire in phase A (their record merges by provisional
//! key); timers beyond the window are only logged and are armed into the
//! owning shard's wheel at replay with their real seq — never both, so
//! nothing can fire twice.
//!
//! Cancellation is the one effect that cannot be deferred: a timer
//! already materialized in a shard wheel could fire next window before a
//! logged cancel replays. Workers therefore cancel directly — mini
//! wheel, then shard wheel by handle slot, then the relocation map
//! (`remap`) that tracks where migration/replay re-slotted an entry —
//! and only log an [`Op::Cancel`] when all probes miss (the timer is
//! either logged-but-not-yet-armed, which replay cancels via `remap`, or
//! already fired, in which case the replay probe misses too and the
//! cancel is the same no-op it is single-threaded).
//!
//! # Barriers, controls, and fallbacks
//!
//! Control closures ([`Engine::schedule`], `on_start`, restores) mutate
//! arbitrary engine state, so each parallel window is bounded by the
//! next control time; when the next event *is* a control the coordinator
//! migrates all state back into the engine and steps single-threaded
//! until the control horizon passes, then re-shards. A zero lookahead
//! (some link has zero latency) disables sharding entirely — the run
//! falls back to [`Engine::run_until`], which is always correct.
//!
//! Handler randomness comes from per-node streams ([`Ctx::node_rng`]):
//! each node's stream is split from the engine seed by [`NodeId`] at
//! spawn and travels with the node across re-shardings, so its draw
//! sequence depends only on that node's own handler order — identical at
//! every worker count — never on how shards interleave. The
//! engine-global stream ([`Ctx::rng`]) remains unsupported in shard mode
//! (a worker cannot know how many draws other shards' handlers would
//! have made before it in single-threaded order) and panics if a handler
//! reaches for it; the `yoda-tidy` effect pass rejects such code
//! statically.
//!
//! # Panic containment
//!
//! A panicking handler must not deadlock the barrier: workers run each
//! window under `catch_unwind`, park the payload in the shared
//! [`EpochBarrier`], and keep meeting barriers as zombies; the
//! coordinator re-raises the payload on its own thread after stopping
//! every worker, so the caller sees the same panic a single-threaded run
//! would produce.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};

use crate::addr::Addr;
use crate::addrmap::AddrMap;
use crate::engine::{fnv_fold, Ctx, Engine, NodeId};
use crate::node::{Node, TimerId, TimerToken};
use crate::packet::Packet;
use crate::rng::Rng;
use crate::symtab::{NameId, SymbolTable};
use crate::time::SimTime;
use crate::trace::{TraceEvent, TraceKind};
use crate::wheel::{Fired, TimerWheel, WheelItem};

/// High bit marking a provisional (worker-issued) timer id. Real timer
/// ids count up from zero, so the two spaces can never collide.
const PROV_BIT: u64 = 1 << 63;

/// Bit offset of the shard index within a provisional id; the low 48
/// bits are the per-run counter.
const SHARD_SHIFT: u32 = 48;

/// Window sentinel telling workers to exit their loop.
const STOP: u64 = u64::MAX;

/// Merge key of a logged event: the real sequence number when the event
/// was armed before the window (engine-assigned), or the provisional id
/// of a timer armed *during* the window, resolved to its real seq at
/// replay.
#[derive(Debug, Clone, Copy)]
enum Key {
    /// Engine-assigned global sequence number.
    Real(u64),
    /// Worker-issued provisional id; resolves via the window's
    /// provisional map.
    Prov(u64),
}

/// What kind of event a record accounts for — exactly the information
/// the single-threaded engine folds into its digest at pop time.
#[derive(Debug, Clone, Copy)]
enum RecKind {
    /// A timer pop (delivered, suppressed, or cancelled — all fold).
    Timer {
        /// The digest-visible timer id.
        fire: Key,
    },
    /// A packet delivery attempt; the digest folds the destination
    /// address word.
    Packet {
        /// `pkt.dst.addr.as_u32()` at pop time.
        addr: u32,
    },
}

/// One popped event in a worker's phase-A log, plus how many of the
/// worker's logged ops belong to it.
#[derive(Debug, Clone, Copy)]
struct Record {
    /// Absolute event time, µs.
    time: u64,
    /// Merge key; see [`Key`].
    key: Key,
    kind: RecKind,
    /// Number of consecutive [`Op`]s (in the shard's op log) produced by
    /// this event's handler, applied at replay in logged order.
    ops: u32,
}

/// A deferred, globally-ordered effect logged by a handler in phase A
/// and applied by the coordinator at replay.
#[derive(Debug)]
enum Op {
    /// `Ctx::send`/`Ctx::send_after`: the *entire* send path — routing,
    /// counters, link RNG, duplication, tracing — runs at replay via
    /// `EngineCore::send_routed`, in canonical order.
    Send {
        /// Sending node.
        from: NodeId,
        /// Extra local delay before the packet hits the wire, µs.
        extra_us: u64,
        /// The packet.
        pkt: Packet,
    },
    /// `Ctx::set_timer`: allocate the real `(seq, id)` pair; arm into
    /// the owning shard's wheel only if the deadline is outside the
    /// window (inside-window timers already fired from the mini wheel).
    Arm {
        /// Provisional id the node's handle carries.
        prov: u64,
        /// Absolute deadline, µs.
        deadline: u64,
        /// Owning node (global index).
        node: usize,
        /// Node generation at arm time.
        generation: u64,
        /// Application payload.
        token: TimerToken,
    },
    /// `Ctx::cancel_timer` whose direct probes all missed: replay
    /// probes the logging shard's relocation map (a miss means the timer
    /// already fired — a no-op, as single-threaded).
    Cancel {
        /// Cancellation-match id from the node's handle.
        id: u64,
    },
    /// A delivery-time packet drop (dead or ingress-partitioned node):
    /// counts against `packets_dropped`, optionally with a trace event.
    Drop {
        /// Drop trace, when tracing was enabled.
        trace: Option<TraceEvent>,
    },
    /// A trace event (packet delivered, or `Ctx::trace_note`).
    Trace(TraceEvent),
    /// Placeholder left behind once an op has been consumed by replay.
    Taken,
}

/// A worker's phase-A log: per-event records plus the flat op stream
/// they index into.
#[derive(Debug, Default)]
pub struct ShardMailbox {
    records: Vec<Record>,
    ops: Vec<Op>,
}

/// A timer fired from the [`MiniWheel`].
#[derive(Debug)]
struct MiniFired {
    time: u64,
    prov: u64,
    node: usize,
    generation: u64,
    token: TimerToken,
    cancelled: bool,
}

/// One pending intra-window timer.
#[derive(Debug)]
struct MiniEntry {
    prov: u64,
    node: u32,
    generation: u64,
    token: TimerToken,
    cancelled: bool,
    live: bool,
}

/// Worker-local wheel for timers armed *and* firing inside the current
/// window. Pops in `(deadline, provisional id)` order, which equals arm
/// order at equal deadlines — the same relative order replay assigns
/// their real seqs in, so the phase-A fire order matches the canonical
/// merge. Cancelled entries still pop (flagged) so their records keep
/// folding into the digest, exactly like the main wheel. Always drained
/// empty by the end of the window that armed its entries.
#[derive(Debug, Default)]
struct MiniWheel {
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    slab: Vec<MiniEntry>,
    free: Vec<u32>,
}

impl MiniWheel {
    fn arm(&mut self, deadline: u64, prov: u64, node: u32, generation: u64, token: TimerToken) -> u32 {
        let entry = MiniEntry {
            prov,
            node,
            generation,
            token,
            cancelled: false,
            live: true,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                if let Some(p) = self.slab.get_mut(s as usize) {
                    *p = entry;
                }
                s
            }
            None => {
                self.slab.push(entry);
                (self.slab.len() - 1) as u32
            }
        };
        self.heap.push(Reverse((deadline, prov, slot)));
        slot
    }

    /// Marks the entry cancelled iff `slot` still holds a live timer
    /// with this provisional id (stale handles are rejected by id, as
    /// in the main wheel).
    fn cancel(&mut self, slot: u32, prov: u64) -> bool {
        match self.slab.get_mut(slot as usize) {
            Some(e) if e.live && e.prov == prov && !e.cancelled => {
                e.cancelled = true;
                true
            }
            _ => false,
        }
    }

    fn peek(&self) -> Option<(u64, u64)> {
        self.heap.peek().map(|&Reverse((t, p, _))| (t, p))
    }

    fn pop(&mut self) -> Option<MiniFired> {
        let Reverse((time, prov, slot)) = self.heap.pop()?;
        let e = self.slab.get_mut(slot as usize)?;
        e.live = false;
        let fired = MiniFired {
            time,
            prov,
            node: e.node as usize,
            generation: e.generation,
            token: e.token,
            cancelled: e.cancelled,
        };
        self.free.push(slot);
        Some(fired)
    }

    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Immutable engine state a worker may read during a window. Taken at
/// migrate-out; stays accurate for the whole window batch because the
/// state it mirrors only changes under controls, which always run
/// single-threaded between batches.
#[derive(Debug, Default)]
struct Snapshot {
    names: SymbolTable,
    addr_map: AddrMap,
    alive: Vec<bool>,
    trace_on: bool,
}

/// Per-local-node metadata a worker needs for dispatch decisions.
#[derive(Debug, Clone, Copy)]
struct LocalMeta {
    name: NameId,
    alive: bool,
    cut_in: bool,
    generation: u64,
}

/// One shard's worker state: its slice of the nodes, its share of the
/// pending timers/packets, and the phase-A log. Owned by a `Mutex` cell
/// that the worker thread locks for the duration of each window and the
/// coordinator locks between barriers — never both at once.
pub struct ShardWorker {
    shard: usize,
    shards: usize,
    /// Current event time, µs (tracks each popped event, like the
    /// engine clock).
    time: u64,
    /// Exclusive end of the current window, µs.
    window_end: u64,
    /// Next provisional-id counter value (low 48 bits of the id).
    prov_ctr: u64,
    /// Shard-local share of the main timer/packet wheel.
    wheel: TimerWheel,
    /// Intra-window timers.
    mini: MiniWheel,
    /// Cancellation-match id → current wheel slot, for entries whose
    /// slot moved (migration or replay arming); consulted when a
    /// handle's own slot misses. Entries are removed at pop, so the map
    /// is bounded by the pending-timer count.
    remap: BTreeMap<u64, u32>,
    /// Phase-A log, drained by the coordinator at each barrier.
    mailbox: ShardMailbox,
    /// This shard's nodes, indexed by `global_index / shards`.
    nodes: Vec<Option<Box<dyn Node>>>,
    /// Metadata for `nodes`, same indexing.
    locals: Vec<LocalMeta>,
    /// Read-only engine state snapshot.
    snap: Snapshot,
    /// Per-node RNG streams for this shard's nodes, same indexing as
    /// `nodes`/`locals`; moved out of [`NodeMeta`] at migrate-out and
    /// back at migrate-in, so a node's stream survives re-shardings.
    rngs: Vec<Rng>,
    /// Fallback stream handed out if `node_rng` is asked about a node
    /// this shard does not own — unreachable via [`Ctx`], whose node id
    /// always is the dispatched node, but kept so the hot accessor never
    /// panics.
    spare_rng: Rng,
}

impl ShardWorker {
    fn new(shard: usize, shards: usize, prov_base: u64) -> Self {
        ShardWorker {
            shard,
            shards,
            time: 0,
            window_end: 0,
            prov_ctr: prov_base,
            wheel: TimerWheel::new(),
            mini: MiniWheel::default(),
            remap: BTreeMap::new(),
            mailbox: ShardMailbox::default(),
            nodes: Vec::new(),
            locals: Vec::new(),
            snap: Snapshot::default(),
            rngs: Vec::new(),
            spare_rng: Rng::seed_from_u64(0),
        }
    }

    #[inline]
    fn local_index(&self, node: usize) -> usize {
        node / self.shards.max(1)
    }

    // ---- Ctx delegate methods (shard mode) -------------------------------

    /// Current simulated time as seen by the running handler.
    pub(crate) fn now(&self) -> SimTime {
        SimTime::from_micros(self.time)
    }

    /// The node's display name, from the snapshot intern table.
    pub(crate) fn node_name(&self, node: NodeId) -> &str {
        match self.locals.get(self.local_index(node.0)) {
            Some(m) => self.snap.names.resolve(m.name),
            None => "?",
        }
    }

    /// The node's private RNG stream (see [`crate::engine::Ctx::node_rng`]).
    pub(crate) fn node_rng(&mut self, node: NodeId) -> &mut Rng {
        let li = self.local_index(node.0);
        match self.rngs.get_mut(li) {
            Some(rng) => rng,
            None => &mut self.spare_rng,
        }
    }

    /// Logs a deferred send. Safe to defer because the minimum link
    /// latency guarantees delivery lands at or beyond the window end —
    /// no handler in this window can observe the packet.
    pub(crate) fn log_send(&mut self, node: NodeId, pkt: Packet, extra: SimTime) {
        self.mailbox.ops.push(Op::Send {
            from: node,
            extra_us: extra.as_micros(),
            pkt,
        });
    }

    /// Arms a timer under a provisional id. Intra-window deadlines also
    /// enter the mini wheel so they fire this window; later deadlines
    /// are armed for real at replay.
    pub(crate) fn set_timer(&mut self, node: NodeId, delay: SimTime, token: TimerToken) -> TimerId {
        debug_assert!(self.prov_ctr < 1 << SHARD_SHIFT, "provisional counter overflow");
        let prov = PROV_BIT | ((self.shard as u64) << SHARD_SHIFT) | self.prov_ctr;
        self.prov_ctr += 1;
        let generation = self
            .locals
            .get(self.local_index(node.0))
            .map_or(0, |m| m.generation);
        let deadline = (SimTime::from_micros(self.time) + delay).as_micros();
        self.mailbox.ops.push(Op::Arm {
            prov,
            deadline,
            node: node.0,
            generation,
            token,
        });
        let slot = if deadline < self.window_end {
            self.mini.arm(deadline, prov, node.0 as u32, generation, token)
        } else {
            // Not materialized until replay; cancellation finds it via
            // the relocation map (or the logged-cancel path).
            u32::MAX
        };
        TimerId { id: prov, slot }
    }

    /// Cancels directly where possible — a deferred cancel could lose a
    /// race with the deadline in a later window — and logs the cancel
    /// only when every live structure misses.
    pub(crate) fn cancel_timer(&mut self, id: TimerId) {
        if self.mini.cancel(id.slot, id.id) {
            return;
        }
        if self.wheel.cancel(id.slot, id.id) {
            return;
        }
        if let Some(&slot) = self.remap.get(&id.id) {
            if self.wheel.cancel(slot, id.id) {
                return;
            }
        }
        self.mailbox.ops.push(Op::Cancel { id: id.id });
    }

    /// Whether tracing was enabled at migrate-out.
    pub(crate) fn trace_enabled(&self) -> bool {
        self.snap.trace_on
    }

    /// Logs a free-form trace note.
    pub(crate) fn trace_note(&mut self, node: NodeId, detail: String) {
        if !self.snap.trace_on {
            return;
        }
        let Some(m) = self.locals.get(self.local_index(node.0)) else {
            return;
        };
        let ev = TraceEvent {
            time: SimTime::from_micros(self.time),
            node: m.name,
            kind: TraceKind::Note,
            src: None,
            dst: None,
            protocol: None,
            detail,
        };
        self.mailbox.ops.push(Op::Trace(ev));
    }

    /// Address lookup against the snapshot (bindings are insert-only and
    /// liveness only changes under controls, so the snapshot is exact).
    pub(crate) fn resolve(&self, addr: Addr) -> Option<NodeId> {
        self.snap
            .addr_map
            .get(addr)
            .filter(|&id| self.snap.alive.get(id).copied().unwrap_or(false))
            .map(NodeId)
    }

    // ---- Phase A ---------------------------------------------------------

    /// Pops and dispatches every shard-local event strictly below
    /// `w_end`, logging all effects. Called by the worker thread with
    /// the cell locked.
    fn run_window(&mut self, w_end: u64) {
        self.window_end = w_end;
        loop {
            let mini_time = self.mini.peek().map(|(t, _)| t);
            // The shard wheel yields only entries below the window end,
            // and wins at equal times: its entries carry pre-window
            // seqs, which are all smaller than the seqs replay will
            // assign to this window's mini arms.
            let bound = mini_time.map_or(w_end, |t| t.saturating_add(1).min(w_end));
            if let Some(fired) = self.wheel.pop_before(bound, 0) {
                self.time = fired.time;
                self.dispatch_wheel(fired);
                continue;
            }
            let Some(fired) = self.mini.pop() else { break };
            debug_assert!(fired.time < w_end, "mini arms only inside the window");
            self.time = fired.time;
            self.dispatch_mini(fired);
        }
        debug_assert!(self.mini.is_empty(), "mini wheel drained every window");
        // Safe: everything below w_end just popped, and replay only arms
        // at or beyond the window end (sends deliver >= E + lookahead,
        // far timers by construction).
        self.wheel.advance(w_end);
    }

    /// Closes out the record for the event whose ops started at
    /// `ops_start`.
    fn push_record(&mut self, time: u64, key: Key, kind: RecKind, ops_start: usize) {
        let ops = (self.mailbox.ops.len() - ops_start) as u32;
        self.mailbox.records.push(Record { time, key, kind, ops });
    }

    fn dispatch_wheel(&mut self, fired: Fired) {
        let ops_start = self.mailbox.ops.len();
        match fired.item {
            WheelItem::Timer {
                node,
                generation,
                token,
            } => {
                if !self.remap.is_empty() {
                    // The handle can never cancel this timer again.
                    self.remap.remove(&fired.match_id);
                }
                let mut deliver = !fired.cancelled;
                if deliver {
                    deliver = match self.locals.get(self.local_index(node)) {
                        Some(m) => m.alive && m.generation == generation,
                        None => false,
                    };
                }
                if deliver {
                    self.with_local_node(node, |n, ctx| n.on_timer(ctx, token));
                }
                self.push_record(
                    fired.time,
                    Key::Real(fired.seq),
                    RecKind::Timer {
                        fire: Key::Real(fired.id),
                    },
                    ops_start,
                );
            }
            WheelItem::Packet { pkt, dst } => {
                self.deliver_packet(fired.time, fired.seq, pkt, dst as usize, ops_start);
            }
        }
    }

    fn dispatch_mini(&mut self, fired: MiniFired) {
        let ops_start = self.mailbox.ops.len();
        let mut deliver = !fired.cancelled;
        if deliver {
            deliver = match self.locals.get(self.local_index(fired.node)) {
                Some(m) => m.alive && m.generation == fired.generation,
                None => false,
            };
        }
        if deliver {
            let token = fired.token;
            self.with_local_node(fired.node, |n, ctx| n.on_timer(ctx, token));
        }
        self.push_record(
            fired.time,
            Key::Prov(fired.prov),
            RecKind::Timer {
                fire: Key::Prov(fired.prov),
            },
            ops_start,
        );
    }

    fn deliver_packet(&mut self, time: u64, seq: u64, pkt: Packet, dst: usize, ops_start: usize) {
        let addr = pkt.dst.addr.as_u32();
        let kind = RecKind::Packet { addr };
        let meta = match self.locals.get(self.local_index(dst)) {
            Some(m) => *m,
            None => {
                // Unreachable (dst was resolved at send time); account
                // like a dead node so the counters cannot drift.
                self.mailbox.ops.push(Op::Drop { trace: None });
                self.push_record(time, Key::Real(seq), kind, ops_start);
                return;
            }
        };
        if !meta.alive || meta.cut_in {
            let detail = if !meta.alive { "dead node" } else { "partitioned" };
            let trace = self.packet_trace(meta.name, TraceKind::PacketDropped, &pkt, detail);
            self.mailbox.ops.push(Op::Drop { trace });
            self.push_record(time, Key::Real(seq), kind, ops_start);
            return;
        }
        if let Some(ev) = self.packet_trace(meta.name, TraceKind::PacketDelivered, &pkt, "") {
            self.mailbox.ops.push(Op::Trace(ev));
        }
        self.with_local_node(dst, |n, ctx| n.on_packet(ctx, pkt));
        self.push_record(time, Key::Real(seq), kind, ops_start);
    }

    fn packet_trace(
        &self,
        name: NameId,
        kind: TraceKind,
        pkt: &Packet,
        detail: &str,
    ) -> Option<TraceEvent> {
        if !self.snap.trace_on {
            return None;
        }
        Some(TraceEvent {
            time: SimTime::from_micros(self.time),
            node: name,
            kind,
            src: Some(pkt.src),
            dst: Some(pkt.dst),
            protocol: Some(pkt.protocol),
            detail: detail.to_string(),
        })
    }

    /// Runs `f` with the node taken out of its slot and a shard-mode
    /// [`Ctx`]; mirrors `Engine::with_node`.
    fn with_local_node(&mut self, node: usize, f: impl FnOnce(&mut Box<dyn Node>, &mut Ctx<'_>)) {
        let li = self.local_index(node);
        let Some(slot) = self.nodes.get_mut(li) else {
            return;
        };
        let Some(mut n) = slot.take() else {
            return;
        };
        {
            let mut ctx = Ctx::for_shard(self, NodeId(node));
            f(&mut n, &mut ctx);
        }
        if let Some(slot) = self.nodes.get_mut(li) {
            *slot = Some(n);
        }
    }
}

/// Barrier state shared by the coordinator and all workers.
#[derive(Debug)]
pub struct EpochBarrier {
    /// Released by the coordinator to start a window (or stop).
    start: Barrier,
    /// Met by workers when their window is done.
    done: Barrier,
    /// Exclusive window end for the next phase A, or [`STOP`].
    window: AtomicU64,
    /// First handler panic payload, re-raised by the coordinator.
    panicked: Mutex<Option<Box<dyn Any + Send>>>,
}

impl EpochBarrier {
    fn new(shards: usize) -> Self {
        EpochBarrier {
            start: Barrier::new(shards + 1),
            done: Barrier::new(shards + 1),
            window: AtomicU64::new(0),
            panicked: Mutex::new(None),
        }
    }
}

/// Locks a mutex, recovering from poisoning: a worker that panicked
/// mid-window poisons its cell, and the coordinator still needs the
/// state inside to tear down.
fn lock_cell<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A worker thread: wait for a window, run it with the cell locked
/// (panics contained), report done. Repeats until [`STOP`].
fn worker_loop(cell: &Mutex<ShardWorker>, barrier: &EpochBarrier) {
    loop {
        barrier.start.wait();
        let w = barrier.window.load(Ordering::Acquire);
        if w == STOP {
            return;
        }
        let run = catch_unwind(AssertUnwindSafe(|| {
            let mut guard = lock_cell(cell);
            guard.run_window(w);
        }));
        if let Err(payload) = run {
            let mut slot = lock_cell(&barrier.panicked);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        barrier.done.wait();
    }
}

/// Moves all engine-held node and event state out to the shards:
/// fresh snapshots, round-robin node assignment, and the engine wheel
/// drained and re-armed (per shard, ascending in seq) into shard wheels.
fn migrate_out(eng: &mut Engine, guards: &mut [MutexGuard<'_, ShardWorker>]) {
    let shards = guards.len();
    let now_us = eng.core.time.as_micros();
    let alive: Vec<bool> = eng.core.meta.iter().map(|m| m.alive).collect();
    let trace_on = eng.core.trace.is_enabled();
    for g in guards.iter_mut() {
        g.time = now_us;
        g.wheel = TimerWheel::new();
        g.wheel.advance(now_us);
        g.remap.clear();
        g.snap = Snapshot {
            names: eng.core.names.clone(),
            addr_map: eng.core.addr_map.clone(),
            alive: alive.clone(),
            trace_on,
        };
        g.nodes.clear();
        g.locals.clear();
        g.rngs.clear();
    }
    for (i, (slot, meta)) in eng
        .nodes
        .iter_mut()
        .zip(eng.core.meta.iter())
        .enumerate()
    {
        if let Some(g) = guards.get_mut(i % shards) {
            g.nodes.push(slot.take());
            g.locals.push(LocalMeta {
                name: meta.name,
                alive: meta.alive,
                cut_in: meta.cut_in,
                generation: meta.generation,
            });
            g.rngs.push(meta.rng.clone());
        }
    }
    let mut wheel = std::mem::take(&mut eng.core.wheel);
    eng.core.wheel.advance(now_us);
    eng.core.relocated.clear();
    let mut moved: Vec<Vec<Fired>> = (0..shards).map(|_| Vec::new()).collect();
    while let Some(fired) = wheel.pop() {
        let owner = match &fired.item {
            WheelItem::Timer { node, .. } => *node % shards,
            WheelItem::Packet { dst, .. } => (*dst as usize) % shards,
        };
        if let Some(list) = moved.get_mut(owner) {
            list.push(fired);
        }
    }
    for (s, mut list) in moved.into_iter().enumerate() {
        // Pop order was (time, seq); the wheel arm contract wants
        // ascending seq.
        list.sort_unstable_by_key(|f| f.seq);
        let Some(g) = guards.get_mut(s) else { continue };
        for f in list {
            let is_timer = matches!(f.item, WheelItem::Timer { .. });
            let slot = g.wheel.arm_with_ids(f.time, f.seq, f.match_id, f.id, f.item);
            if is_timer {
                g.remap.insert(f.match_id, slot);
                if f.cancelled {
                    g.wheel.cancel(slot, f.match_id);
                }
            }
        }
    }
}

/// Moves all shard-held state back into the engine: nodes to their
/// global slots, pending entries merged (ascending in seq) into the
/// engine wheel, and the engine's handle-relocation table rebuilt.
fn migrate_in(eng: &mut Engine, guards: &mut [MutexGuard<'_, ShardWorker>]) {
    let shards = guards.len();
    for (s, g) in guards.iter_mut().enumerate() {
        for (li, slot) in g.nodes.iter_mut().enumerate() {
            let global = li * shards + s;
            if let Some(dst) = eng.nodes.get_mut(global) {
                *dst = slot.take();
            }
        }
        // Write each node's advanced RNG stream back so the next
        // sharding (or single-threaded interlude) continues it.
        for (li, rng) in g.rngs.drain(..).enumerate() {
            let global = li * shards + s;
            if let Some(meta) = eng.core.meta.get_mut(global) {
                meta.rng = rng;
            }
        }
        g.nodes.clear();
        g.locals.clear();
    }
    let mut pending: Vec<Fired> = Vec::new();
    for g in guards.iter_mut() {
        debug_assert!(g.mini.is_empty(), "mini wheel must be empty between windows");
        let mut wheel = std::mem::take(&mut g.wheel);
        while let Some(f) = wheel.pop() {
            pending.push(f);
        }
        g.remap.clear();
    }
    pending.sort_unstable_by_key(|f| f.seq);
    eng.core.relocated.clear();
    eng.core.wheel.advance(eng.core.time.as_micros());
    for f in pending {
        let is_timer = matches!(f.item, WheelItem::Timer { .. });
        let slot = eng
            .core
            .wheel
            .arm_with_ids(f.time, f.seq, f.match_id, f.id, f.item);
        if is_timer {
            eng.core.relocated.insert(f.match_id, slot);
            if f.cancelled {
                eng.core.wheel.cancel(slot, f.match_id);
            }
        }
    }
}

/// Resolves a merge key to its real sequence number.
fn resolve_seq(key: Key, prov_map: &BTreeMap<u64, (u64, u64)>) -> u64 {
    match key {
        Key::Real(seq) => seq,
        Key::Prov(p) => {
            debug_assert!(
                prov_map.contains_key(&p),
                "provisional key must resolve: its arm precedes it in the same shard log"
            );
            prov_map.get(&p).map_or(u64::MAX, |&(seq, _)| seq)
        }
    }
}

/// Phase B: S-way-merges the shard logs in canonical `(time, seq)`
/// order and applies every logged effect to the engine — the digest,
/// counters, RNG draws, and id allocations happen here in exactly the
/// order the single-threaded engine would have produced them.
fn replay_window(eng: &mut Engine, guards: &mut [MutexGuard<'_, ShardWorker>], w_end: u64) {
    let shards = guards.len();
    let mut rec_cursor = vec![0usize; shards];
    let mut op_cursor = vec![0usize; shards];
    // Provisional id -> (real seq, real timer id); window-local, because
    // provisionally-keyed records always resolve in their own window.
    let mut prov_map: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    loop {
        let mut best: Option<(u64, u64, usize)> = None;
        for (s, g) in guards.iter().enumerate() {
            let Some(&idx) = rec_cursor.get(s) else { continue };
            let Some(rec) = g.mailbox.records.get(idx) else {
                continue;
            };
            let seq = resolve_seq(rec.key, &prov_map);
            if best.is_none_or(|(t, q, _)| (rec.time, seq) < (t, q)) {
                best = Some((rec.time, seq, s));
            }
        }
        let Some((_, _, s)) = best else { break };
        let Some(rec) = rec_cursor
            .get(s)
            .and_then(|&idx| guards.get(s).and_then(|g| g.mailbox.records.get(idx)))
            .copied()
        else {
            break;
        };
        if let Some(c) = rec_cursor.get_mut(s) {
            *c += 1;
        }
        eng.core.time = SimTime::from_micros(rec.time);
        eng.core.events_processed += 1;
        eng.core.digest = fnv_fold(eng.core.digest, rec.time);
        let word = match rec.kind {
            RecKind::Packet { addr } => 1u64 ^ ((addr as u64) << 8),
            RecKind::Timer { fire } => {
                let id = match fire {
                    Key::Real(id) => id,
                    Key::Prov(p) => prov_map.get(&p).map_or(0, |&(_, id)| id),
                };
                2u64 ^ (id << 8)
            }
        };
        eng.core.digest = fnv_fold(eng.core.digest, word);
        for _ in 0..rec.ops {
            let op = {
                let Some(&i) = op_cursor.get(s) else { break };
                let Some(slot) = guards
                    .get_mut(s)
                    .and_then(|g| g.mailbox.ops.get_mut(i))
                else {
                    break;
                };
                std::mem::replace(slot, Op::Taken)
            };
            if let Some(c) = op_cursor.get_mut(s) {
                *c += 1;
            }
            apply_op(eng, guards, s, op, w_end, &mut prov_map);
        }
    }
    for g in guards.iter_mut() {
        g.mailbox.records.clear();
        g.mailbox.ops.clear();
    }
}

/// Applies one logged effect during replay. `shard` is the shard whose
/// log the op came from (cancels probe its relocation map).
fn apply_op(
    eng: &mut Engine,
    guards: &mut [MutexGuard<'_, ShardWorker>],
    shard: usize,
    op: Op,
    w_end: u64,
    prov_map: &mut BTreeMap<u64, (u64, u64)>,
) {
    let shards = guards.len();
    match op {
        Op::Send {
            from,
            extra_us,
            pkt,
        } => {
            eng.core.send_routed(
                from,
                pkt,
                SimTime::from_micros(extra_us),
                &mut |_core, at, seq, pkt, dst| {
                    // In-flight packets arm straight into the owning
                    // shard's wheel; `at >= send time + lookahead >= w_end`,
                    // so they can never land inside the window being
                    // replayed.
                    if let Some(g) = guards.get_mut((dst as usize) % shards) {
                        g.wheel.arm(at, seq, 0, WheelItem::Packet { pkt, dst });
                    }
                },
            );
        }
        Op::Arm {
            prov,
            deadline,
            node,
            generation,
            token,
        } => {
            // Same allocation order as Ctx::set_timer single-threaded:
            // timer id first, then seq.
            let id = eng.core.next_timer_id;
            eng.core.next_timer_id += 1;
            let seq = eng.core.seq;
            eng.core.seq += 1;
            prov_map.insert(prov, (seq, id));
            if deadline >= w_end {
                if let Some(g) = guards.get_mut(node % shards) {
                    let slot = g.wheel.arm_with_ids(
                        deadline,
                        seq,
                        prov,
                        id,
                        WheelItem::Timer {
                            node,
                            generation,
                            token,
                        },
                    );
                    g.remap.insert(prov, slot);
                }
            }
            // deadline < w_end: the mini wheel already fired it this
            // window — arming again would double-fire.
        }
        Op::Cancel { id } => {
            if let Some(g) = guards.get_mut(shard) {
                if let Some(&slot) = g.remap.get(&id) {
                    g.wheel.cancel(slot, id);
                }
                // Miss: the timer already fired — a no-op, exactly as
                // single-threaded.
            }
        }
        Op::Drop { trace } => {
            eng.core.packets_dropped += 1;
            if let Some(ev) = trace {
                eng.core.trace.record(ev);
            }
        }
        Op::Trace(ev) => {
            eng.core.trace.record(ev);
        }
        Op::Taken => {}
    }
}

/// Takes the first worker panic payload, if any.
fn take_panic(barrier: &EpochBarrier) -> Option<Box<dyn Any + Send>> {
    lock_cell(&barrier.panicked).take()
}

/// The coordinator: computes windows, releases workers, replays logs,
/// and runs control horizons single-threaded. Returns with all node and
/// event state migrated back into the engine (except after a panic,
/// which propagates).
fn coordinate(
    eng: &mut Engine,
    cells: &[Mutex<ShardWorker>],
    barrier: &EpochBarrier,
    deadline: SimTime,
) {
    let limit = deadline.as_micros();
    let mut guards: Vec<MutexGuard<'_, ShardWorker>> = cells.iter().map(lock_cell).collect();
    migrate_out(eng, &mut guards);
    loop {
        let tc = eng.core.next_control_time();
        let mut next_ev = tc;
        for g in guards.iter() {
            if let Some(t) = g.wheel.next_deadline() {
                next_ev = Some(next_ev.map_or(t, |n| n.min(t)));
            }
        }
        let Some(next) = next_ev.filter(|&t| t <= limit) else {
            // Quiescent within the horizon: settle the clock like
            // Engine::run_until.
            migrate_in(eng, &mut guards);
            if eng.core.time < deadline {
                eng.core.time = deadline;
                eng.core.wheel.advance(limit);
            }
            return;
        };
        let lookahead = eng.core.topology.min_latency();
        if lookahead == Some(SimTime::ZERO) {
            // A control collapsed the lookahead mid-run (zero-latency
            // link): no window can make parallel progress, so finish
            // single-threaded. Digests are unaffected — that path is the
            // reference.
            migrate_in(eng, &mut guards);
            eng.run_until(deadline);
            return;
        }
        let e_eff = eng.core.time.as_micros().max(next);
        let mut w = match lookahead {
            Some(l) => e_eff.saturating_add(l.as_micros()),
            // No live links at all: nothing in flight can cross shards,
            // so only controls and the deadline bound the window.
            None => u64::MAX,
        };
        if let Some(t) = tc {
            w = w.min(t);
        }
        w = w.min(limit.saturating_add(1)).min(STOP - 1);
        if w <= e_eff {
            // The next event is a control (w == tc <= e_eff): run
            // everything up to and including that horizon on the engine
            // itself, in exact global order, then re-shard.
            migrate_in(eng, &mut guards);
            while eng.step_bounded(Some(w)) {}
            migrate_out(eng, &mut guards);
            continue;
        }
        barrier.window.store(w, Ordering::Release);
        guards.clear(); // release every cell to its worker
        barrier.start.wait();
        barrier.done.wait();
        guards.extend(cells.iter().map(lock_cell));
        if let Some(payload) = take_panic(barrier) {
            // A handler panicked; surface it on the caller's thread just
            // like the single-threaded engine would.
            resume_unwind(payload);
        }
        replay_window(eng, &mut guards, w);
    }
}

/// Entry point behind [`Engine::run_until_sharded`]. Falls back to the
/// single-threaded path when it is trivially equivalent (one thread,
/// one node) or required for correctness (zero lookahead).
pub(crate) fn run_until_sharded(eng: &mut Engine, deadline: SimTime, threads: usize) {
    let shards = threads.min(eng.nodes.len().max(1));
    if shards <= 1 || eng.core.topology.min_latency() == Some(SimTime::ZERO) {
        eng.run_until(deadline);
        return;
    }
    let prov_base = eng.core.next_prov;
    let cells: Vec<Mutex<ShardWorker>> = (0..shards)
        .map(|s| Mutex::new(ShardWorker::new(s, shards, prov_base)))
        .collect();
    let barrier = EpochBarrier::new(shards);
    let result = std::thread::scope(|scope| {
        for cell in &cells {
            let b = &barrier;
            scope.spawn(move || worker_loop(cell, b));
        }
        let out = catch_unwind(AssertUnwindSafe(|| {
            coordinate(eng, &cells, &barrier, deadline)
        }));
        // Always release the workers, whatever happened above —
        // otherwise scope join would deadlock.
        barrier.window.store(STOP, Ordering::Release);
        barrier.start.wait();
        out
    });
    // Harvest the provisional-id high-water mark so handles issued by
    // this run can never collide with a later run's.
    for cell in cells {
        let worker = cell.into_inner().unwrap_or_else(PoisonError::into_inner);
        eng.core.next_prov = eng.core.next_prov.max(worker.prov_ctr);
    }
    if let Err(payload) = result {
        resume_unwind(payload);
    }
}
