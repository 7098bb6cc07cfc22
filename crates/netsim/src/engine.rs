//! The discrete-event engine.
//!
//! [`Engine`] owns the nodes, the event queue, the clock, the topology, and
//! a seeded RNG. Events are totally ordered by `(time, insertion-sequence)`
//! so runs are deterministic. Scenario scripts interleave with the
//! simulation through [`Engine::schedule`], which runs an arbitrary closure
//! against the engine at a given simulated time (e.g. "fail instance 3 at
//! t = 5 s").

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::addr::Addr;
// AddrMap (not Hash*): deterministic fixed-hash table with a lookup-only
// API, so no iteration order exists to leak into event scheduling —
// the root `clippy.toml` bans `HashMap` here.
use crate::addrmap::AddrMap;
use crate::node::{Node, TimerId, TimerToken};
use crate::packet::Packet;
use crate::rng::Rng;
use crate::time::SimTime;
use crate::topology::{LinkSpec, Topology, Zone};
use crate::trace::{DropCause, Fate, Note, TraceEvent, TraceSink, What};
use crate::wheel::{TimerWheel, WheelItem};
/// Index of a node within the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

struct NodeMeta {
    /// Display name. Trace records carry the [`NodeId`] and resolve it
    /// here ([`Engine::node_name`]), so recording never clones it.
    name: String,
    zone: Zone,
    alive: bool,
    /// Partitioned ingress: packets addressed to this node are dropped at
    /// delivery time. Unlike `alive == false`, the node keeps running
    /// (its timers still fire) — it just can't hear the network.
    cut_in: bool,
    /// Partitioned egress: packets this node sends never reach the wire.
    cut_out: bool,
    /// Bumped on restore so stale timers from before a crash never fire.
    generation: u64,
    /// Gray link degradation (chaos `LinkDegrade`): extra loss applied to
    /// every packet this node sends or receives. Zero when clear — the
    /// degrade hook consumes no RNG then, so runs without the fault
    /// replay bit-for-bit identically to runs before the feature existed.
    degrade_loss: f64,
    /// Extra per-packet jitter on this node's links, added on top of the
    /// base link latency (never delivering earlier).
    degrade_jitter: SimTime,
    addrs: Vec<Addr>,
    /// This node's private RNG stream, split from the engine seed by
    /// [`NodeId`] at `add_node`. Handlers draw from it via
    /// [`Ctx::node_rng`]: because it is keyed by node, a node's draw
    /// sequence does not depend on what other nodes draw or on how their
    /// events interleave with its own. Deliberately NOT reset by
    /// [`Engine::restore_node`] (a restarted process keeps consuming the
    /// same stream, so a restore never replays earlier randomness).
    rng: Rng,
}

/// Payload of a heap-scheduled event. Only the rare control closure
/// rides the heap now: timers AND packets live inline in the
/// [`TimerWheel`], so the hot path allocates nothing per event.
///
/// `Send` so the engine as a whole is `Send` — independent engines (one
/// per seed) can run on separate threads — which a scheduled closure
/// capturing `Rc`/`RefCell` state would break.
type Control = Box<dyn FnOnce(&mut Engine) + Send>;

/// What the binary heap actually sorts: a 24-byte key instead of a full
/// event, so sift operations move 24 bytes rather than ~100. The payload
/// sits in `EngineCore::payloads[slot]` until the key pops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HeapEntry {
    /// Absolute time, µs.
    time: u64,
    /// Global insertion sequence — the deterministic tie-breaker.
    seq: u64,
    /// Payload slab index.
    slot: u32,
}

/// Engine internals shared with [`Ctx`]; split from the node storage so a
/// node can borrow the core mutably while the engine holds the node.
struct EngineCore {
    time: SimTime,
    /// One global sequence counter shared by packets, timers, and control
    /// events: allocation order IS the deterministic tie-break order.
    seq: u64,
    events: BinaryHeap<Reverse<HeapEntry>>,
    /// Control closures for heap entries, indexed by `HeapEntry::slot`;
    /// slots are recycled through `free_payloads` in LIFO order
    /// (deterministic).
    payloads: Vec<Option<Control>>,
    free_payloads: Vec<u32>,
    /// All pending timers and in-flight packets; O(1) arm and cancel,
    /// pops in exact `(deadline, seq)` order. Its clock trails
    /// `time` — it is never past the next event `step_bounded` will
    /// process — so arms are never clamped. A cancelled timer leaves the
    /// wheel at once: it never pops, is no event and no digest input.
    wheel: TimerWheel,
    meta: Vec<NodeMeta>,
    addr_map: AddrMap,
    rng: Rng,
    /// The seed the engine was built with; per-node streams are split
    /// from it at `add_node` so node randomness never touches the global
    /// `rng` draw order.
    seed: u64,
    topology: Topology,
    trace: TraceSink,
    next_timer_id: u64,
    packets_sent: u64,
    packets_dropped: u64,
    events_processed: u64,
    /// FNV-1a digest folded over every processed event; two runs with the
    /// same seed and scenario must end with identical digests.
    digest: u64,
    /// Count of nodes with an active link degrade. The `send_from`
    /// degrade hook is gated on this being nonzero, so topologies that
    /// never degrade a link pay one integer compare and consume no RNG.
    degraded_nodes: u32,
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

#[inline]
fn fnv_fold(digest: u64, word: u64) -> u64 {
    let mut d = digest;
    for byte in word.to_le_bytes() {
        d = (d ^ byte as u64).wrapping_mul(FNV_PRIME);
    }
    d
}

impl EngineCore {
    /// The metadata of node `id`.
    #[expect(
        clippy::indexing_slicing,
        reason = "NodeId is allocated densely by add_node and never freed; meta[id.0] is total for any id the engine handed out"
    )]
    fn meta(&self, id: usize) -> &NodeMeta {
        &self.meta[id]
    }

    /// The metadata of node `id`, mutably.
    #[expect(
        clippy::indexing_slicing,
        reason = "NodeId is allocated densely by add_node and never freed; meta[id.0] is total for any id the engine handed out"
    )]
    fn meta_mut(&mut self, id: usize) -> &mut NodeMeta {
        &mut self.meta[id]
    }

    /// Stores a control closure in the slab, returning its slot.
    fn alloc_payload(&mut self, payload: Control) -> u32 {
        match self.free_payloads.pop() {
            Some(s) => {
                if let Some(p) = self.payloads.get_mut(s as usize) {
                    *p = Some(payload);
                }
                s
            }
            None => {
                self.payloads.push(Some(payload));
                (self.payloads.len() - 1) as u32
            }
        }
    }

    /// Schedules a heap event (control closures; packets go through the
    /// wheel via [`EngineCore::send_from`]).
    fn push(&mut self, time: SimTime, payload: Control) {
        let seq = self.seq;
        self.seq += 1;
        let slot = self.alloc_payload(payload);
        self.events.push(Reverse(HeapEntry {
            time: time.as_micros(),
            seq,
            slot,
        }));
    }

    /// Traces a packet event; the packet is read only when tracing is on.
    #[inline]
    fn record_packet(&mut self, node: NodeId, pkt: &Packet, fate: Fate) {
        if self.trace.is_enabled() {
            let (src, dst, protocol) = (pkt.src, pkt.dst, pkt.protocol);
            self.trace_event(
                node,
                What::Packet {
                    src,
                    dst,
                    protocol,
                    fate,
                },
            );
        }
    }

    /// Counts a dropped packet and traces why.
    fn drop_packet(&mut self, node: NodeId, pkt: &Packet, cause: DropCause) {
        self.packets_dropped += 1;
        self.record_packet(node, pkt, Fate::Dropped(cause));
    }

    /// Records one trace event at the current time.
    fn trace_event(&mut self, node: NodeId, what: What) {
        let time = self.time;
        self.trace.record(TraceEvent { time, node, what });
    }

    /// The send path: routing, egress partition, the hop's link (one
    /// [`LinkSpec`] read per send), gray degrade, duplication, counters,
    /// tracing, and arming the in-flight packet into the wheel.
    fn send_from(&mut self, from: NodeId, pkt: Packet, extra_delay: SimTime) {
        let from_zone = self.meta(from.0).zone;
        let to_id = match self.addr_map.get(pkt.dst.addr) {
            Some(id) => id,
            None => return self.drop_packet(from, &pkt, DropCause::NoRoute),
        };
        let to_zone = self.meta(to_id).zone;
        self.packets_sent += 1;
        self.record_packet(from, &pkt, Fate::Sent);
        if self.meta(from.0).cut_out {
            // Egress-partitioned sender: the packet never reaches the
            // wire, consuming no link randomness.
            return self.drop_packet(from, &pkt, DropCause::Partitioned);
        }
        let now = self.time + extra_delay;
        let link = self.topology.effective(from_zone, to_zone);
        let Some(at) = link.deliver(now, &mut self.rng) else {
            return self.drop_packet(from, &pkt, DropCause::LinkLoss);
        };
        let Some(at) = self.degrade_delivery(from.0, to_id, at) else {
            return self.drop_packet(from, &pkt, DropCause::LinkDegrade);
        };
        // `dst` is resolved here; address bindings are insert-only and
        // nodes are never removed, so it cannot go stale (liveness is
        // still checked at delivery).
        let dst = to_id as u32;
        // Roll duplication before the primary arm consumes `pkt`.
        let copy = link.duplicates(&mut self.rng).then(|| pkt.clone());
        self.arm_packet(at, pkt, dst);
        let Some(copy) = copy else { return };
        // Second, independent trip through the link. A copy the link
        // loses is not counted: it never existed on the wire.
        let Some(at) = link.deliver(now, &mut self.rng) else {
            return;
        };
        match self.degrade_delivery(from.0, to_id, at) {
            Some(at) => {
                self.packets_sent += 1;
                self.record_packet(from, &copy, Fate::Duplicated);
                self.arm_packet(at, copy, dst);
            }
            None => self.drop_packet(from, &copy, DropCause::LinkDegrade),
        }
    }

    /// Arms an in-flight packet into the timing wheel, stored inline in
    /// the wheel's slab. The shared seq counter keeps the global
    /// `(time, seq)` order with heap events; the wheel requires strictly
    /// increasing seq at arm time, so a duplicate is armed after its
    /// primary.
    fn arm_packet(&mut self, at: SimTime, pkt: Packet, dst: u32) {
        let seq = self.seq;
        self.seq += 1;
        self.wheel
            .arm(at.as_micros(), seq, 0, WheelItem::Packet { pkt, dst });
    }

    /// Applies gray link degradation (chaos `LinkDegrade`) to a routed
    /// delivery: when either endpoint of the hop is degraded, the hop's
    /// endpoint link (no latency, the worse loss and jitter of the two
    /// ends) takes the packet through [`LinkSpec::deliver`] from `at`.
    /// Returns `None` when the packet is lost. RNG is consumed only while
    /// at least one node in the engine is degraded AND this hop touches
    /// it, so scenarios without the fault replay identically to the
    /// pre-degrade era. Jitter only ever ADDS to the base link latency.
    #[inline]
    fn degrade_delivery(&mut self, from: usize, to: usize, at: SimTime) -> Option<SimTime> {
        if self.degraded_nodes == 0 {
            return Some(at);
        }
        let (a, b) = (self.meta(from), self.meta(to));
        let endpoint = LinkSpec {
            jitter: a.degrade_jitter.max(b.degrade_jitter),
            loss: a.degrade_loss.max(b.degrade_loss),
            ..LinkSpec::with_latency(SimTime::ZERO)
        };
        endpoint.deliver(at, &mut self.rng)
    }
}

/// The world a [`Node`] sees while handling an event: every effect
/// applies to the engine core immediately.
pub struct Ctx<'a> {
    core: &'a mut EngineCore,
    node: NodeId,
}

// Handlers call these per packet from other crates: they inline across
// them (DESIGN.md "Cross-crate inlining"); `Engine`'s methods do not.
#[deny(clippy::missing_inline_in_public_items)]
impl Ctx<'_> {
    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.core.time
    }

    /// This node's id.
    #[inline]
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// This node's private RNG stream, split from the engine seed by
    /// [`NodeId`] at spawn. It cannot observe what other nodes draw or
    /// how their events interleave with this node's, and it is the only
    /// randomness a handler can reach: the engine-global stream the link
    /// model draws from is private to the engine.
    #[inline]
    pub fn node_rng(&mut self) -> &mut Rng {
        &mut self.core.meta_mut(self.node.0).rng
    }

    /// Sends a packet; it is routed by destination address through the
    /// topology's latency/jitter/loss model.
    #[inline]
    pub fn send(&mut self, pkt: Packet) {
        self.core.send_from(self.node, pkt, SimTime::ZERO);
    }

    /// Sends a packet after an additional local delay (models local
    /// processing/CPU time before the packet leaves the NIC).
    #[inline]
    pub fn send_after(&mut self, delay: SimTime, pkt: Packet) {
        self.core.send_from(self.node, pkt, delay);
    }

    /// Arms a one-shot timer `delay` from now.
    #[inline]
    pub fn set_timer(&mut self, delay: SimTime, token: TimerToken) -> TimerId {
        let core = &mut *self.core;
        let id = core.next_timer_id;
        core.next_timer_id += 1;
        let generation = core.meta(self.node.0).generation;
        let at = core.time + delay;
        // Timers share the packet/control sequence counter so the
        // total event order is identical to scheduling them
        // through the heap.
        let seq = core.seq;
        core.seq += 1;
        let slot = core.wheel.arm(
            at.as_micros(),
            seq,
            id,
            WheelItem::Timer {
                node: self.node.0,
                generation,
                token,
            },
        );
        TimerId { id, slot }
    }

    /// Cancels a previously armed timer: it is removed from the wheel at
    /// once and never fires, counts as no event and folds nothing into
    /// the digest. Cancelling a timer that already fired (or was already
    /// cancelled) is a no-op: its wheel slot is free or holds a newer
    /// entry, and the stale handle is rejected by id.
    #[inline]
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.core.wheel.cancel(id.slot, id.id);
    }

    /// Records this node's annotation in the trace.
    #[inline]
    pub fn trace(&mut self, note: Note) {
        self.core.trace_event(self.node, What::Note(note));
    }
}

/// The discrete-event simulation engine.
///
/// See the [crate-level docs](crate) for an example.
pub struct Engine {
    core: EngineCore,
    nodes: Vec<Option<Box<dyn Node>>>,
    /// `(kind, fires, idle fires)` per [`TimerToken::kind`], ascending by
    /// kind: see [`Engine::timer_census`].
    census: Vec<(u32, u64, u64)>,
}

impl Engine {
    /// Creates an engine with the paper's Azure-testbed topology and the
    /// given RNG seed.
    pub fn new(seed: u64) -> Self {
        Engine::with_topology(seed, Topology::azure_testbed())
    }

    /// Creates an engine with an explicit topology.
    pub fn with_topology(seed: u64, topology: Topology) -> Self {
        Engine {
            core: EngineCore {
                time: SimTime::ZERO,
                seq: 0,
                events: BinaryHeap::new(),
                payloads: Vec::new(),
                free_payloads: Vec::new(),
                wheel: TimerWheel::new(),
                meta: Vec::new(),
                addr_map: AddrMap::new(),
                rng: Rng::seed_from_u64(seed),
                seed,
                topology,
                trace: TraceSink::default(),
                next_timer_id: 0,
                packets_sent: 0,
                packets_dropped: 0,
                events_processed: 0,
                digest: FNV_OFFSET,
                degraded_nodes: 0,
            },
            nodes: Vec::new(),
            census: Vec::new(),
        }
    }

    /// Enables packet tracing with the given event capacity.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.core.trace = TraceSink::with_capacity(capacity);
    }

    /// Read access to the trace sink.
    pub fn trace(&self) -> &TraceSink {
        &self.core.trace
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.time
    }

    /// Total packets handed to the network so far.
    pub fn packets_sent(&self) -> u64 {
        self.core.packets_sent
    }

    /// Total packets dropped (dead node, unknown address, or link loss).
    pub fn packets_dropped(&self) -> u64 {
        self.core.packets_dropped
    }

    /// Total events processed by [`Engine::step`] so far (packets, timers —
    /// including those of dead or restarted nodes, which reach no handler
    /// — and control closures). A cancelled timer is not an event.
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed
    }

    /// Timers armed and neither fired nor cancelled yet. A cancelled
    /// timer leaves the count at once, so a long-lived engine whose nodes
    /// cancel what they no longer need holds only live deadlines.
    pub fn timer_backlog(&self) -> usize {
        self.core.wheel.timer_len()
    }

    /// Every timer kind delivered to a handler so far, ascending by
    /// [`TimerToken::kind`]: `(kind, fires, idle fires)`. An idle fire
    /// is one whose handler sent no packet and armed no timer (it left
    /// the engine's sequence counter where it was) — a timer that, had
    /// its owner cancelled it, would have changed nothing but the event
    /// count. Always kept; reading it does not touch the digest.
    pub fn timer_census(&self) -> &[(u32, u64, u64)] {
        &self.census
    }

    /// Digest of every event processed so far (time, kind, and target).
    ///
    /// Two engines driven by the same seed and scenario script must report
    /// the same digest after the same amount of simulated time; the
    /// `determinism` integration test asserts exactly that, and the root
    /// `clippy.toml`'s bans exist to keep it true.
    pub fn event_digest(&self) -> u64 {
        self.core.digest
    }

    /// Mutable access to the topology (e.g. to degrade a link mid-run).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.core.topology
    }

    /// Adds a node owning `addr`, placed in `zone`. Its
    /// [`Node::on_start`] runs at the current simulated time.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is already owned by another node.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        addr: Addr,
        zone: Zone,
        node: Box<dyn Node>,
    ) -> NodeId {
        let id = NodeId(self.nodes.len());
        let prev = self.core.addr_map.insert(addr, id.0);
        assert!(prev.is_none(), "address {addr} already in use");
        // Split a per-node stream off the engine seed. The `+ 1` salt
        // keeps node 0's stream distinct from the engine-global stream
        // (which is seeded from the raw seed).
        let mut mix = self.core.seed ^ (id.0 as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let rng = Rng::seed_from_u64(crate::rng::splitmix64(&mut mix));
        self.core.meta.push(NodeMeta {
            name: name.into(),
            zone,
            alive: true,
            cut_in: false,
            cut_out: false,
            generation: 0,
            degrade_loss: 0.0,
            degrade_jitter: SimTime::ZERO,
            addrs: vec![addr],
            rng,
        });
        self.nodes.push(Some(node));
        self.core.push(
            self.core.time,
            Box::new(move |eng: &mut Engine| {
                eng.with_node(id, |node, ctx| node.on_start(ctx));
            }),
        );
        id
    }

    /// Assigns an additional address to an existing node (e.g. the edge
    /// router owning every VIP).
    ///
    /// # Panics
    ///
    /// Panics if the address is already owned.
    pub fn add_addr(&mut self, id: NodeId, addr: Addr) {
        let prev = self.core.addr_map.insert(addr, id.0);
        assert!(prev.is_none(), "address {addr} already in use");
        self.core.meta_mut(id.0).addrs.push(addr);
    }

    /// Looks up the node owning an address, if any.
    pub fn node_by_addr(&self, addr: Addr) -> Option<NodeId> {
        self.core.addr_map.get(addr).map(NodeId)
    }

    /// The node's display name; `"?"` for an id this engine never handed
    /// out (rendering a trace must not be able to take down a run).
    pub fn node_name(&self, id: NodeId) -> &str {
        self.core.meta.get(id.0).map_or("?", |m| m.name.as_str())
    }

    /// Whether the node is currently alive.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.core.meta(id.0).alive
    }

    /// Kills a node: all packets to or from it are dropped and its armed
    /// timers are suppressed, mimicking a VM crash.
    pub fn fail_node(&mut self, id: NodeId) {
        let meta = self.core.meta_mut(id.0);
        meta.alive = false;
        self.core.trace_event(id, What::NodeFailed);
    }

    /// Partitions a node from the network without killing it: packets to
    /// and/or from it are dropped, but the node keeps running and its
    /// timers keep firing — modelling a switch/NIC fault rather than a
    /// crash. `cut_in` blocks ingress (delivery-time drop, including
    /// packets already in flight), `cut_out` blocks egress. Passing both
    /// `false` is equivalent to [`Engine::heal_node`].
    pub fn partition_node_dirs(&mut self, id: NodeId, cut_in: bool, cut_out: bool) {
        let meta = self.core.meta_mut(id.0);
        meta.cut_in = cut_in;
        meta.cut_out = cut_out;
        self.core
            .trace_event(id, What::Partition { cut_in, cut_out });
    }

    /// Fully partitions a node (both directions).
    pub fn partition_node(&mut self, id: NodeId) {
        self.partition_node_dirs(id, true, true);
    }

    /// Heals a node's partition (both directions).
    pub fn heal_node(&mut self, id: NodeId) {
        self.partition_node_dirs(id, false, false);
    }

    /// Whether the node is partitioned in either direction.
    pub fn is_partitioned(&self, id: NodeId) -> bool {
        let meta = self.core.meta(id.0);
        meta.cut_in || meta.cut_out
    }

    /// Degrades every link touching `id` — the gray cousin of a
    /// partition: each packet the node sends or receives is dropped with
    /// probability `loss` and delayed by up to `jitter` extra (uniform),
    /// but the node stays reachable and keeps running. Both zero clears
    /// the degrade. When two degraded nodes share a hop the worse value
    /// of each knob applies.
    pub fn degrade_node_links(&mut self, id: NodeId, loss: f64, jitter: SimTime) {
        let loss = loss.clamp(0.0, 1.0);
        let meta = self.core.meta_mut(id.0);
        let was = meta.degrade_loss > 0.0 || meta.degrade_jitter > SimTime::ZERO;
        let active = loss > 0.0 || jitter > SimTime::ZERO;
        meta.degrade_loss = loss;
        meta.degrade_jitter = jitter;
        match (was, active) {
            (false, true) => self.core.degraded_nodes += 1,
            (true, false) => self.core.degraded_nodes -= 1,
            _ => {}
        }
        self.core
            .trace_event(id, What::LinkDegrade { loss, jitter });
    }

    /// Whether the node's links are currently degraded.
    pub fn is_link_degraded(&self, id: NodeId) -> bool {
        let meta = self.core.meta(id.0);
        meta.degrade_loss > 0.0 || meta.degrade_jitter > SimTime::ZERO
    }

    /// Restores a failed node **with fresh state**: the crashed process is
    /// replaced by `fresh`, its generation is bumped (old timers never
    /// fire), and `on_start` runs.
    pub fn restore_node(&mut self, id: NodeId, fresh: Box<dyn Node>) {
        let meta = self.core.meta_mut(id.0);
        meta.alive = true;
        meta.generation += 1;
        *self.slot(id) = Some(fresh);
        self.core.trace_event(id, What::NodeRestored);
        self.core.push(
            self.core.time,
            Box::new(move |eng: &mut Engine| {
                eng.with_node(id, |node, ctx| node.on_start(ctx));
            }),
        );
    }

    /// Schedules `f` to run against the engine at simulated time `at`
    /// (clamped to now if already past). The closure must be `Send`: it
    /// rides the event queue, and the engine as a whole is `Send` so that
    /// independent engines can run on separate threads — `Rc`/`RefCell`
    /// captures are rejected at compile time.
    pub fn schedule(&mut self, at: SimTime, f: impl FnOnce(&mut Engine) + Send + 'static) {
        let t = at.max(self.core.time);
        self.core.push(t, Box::new(f));
    }

    /// Immutable, downcast access to a node's concrete type; `None` when
    /// the id is unknown, the node is being dispatched, or the concrete
    /// type differs.
    pub fn try_node_ref<T: Node>(&self, id: NodeId) -> Option<&T> {
        let node = self.nodes.get(id.0)?.as_deref()?;
        (node as &dyn Any).downcast_ref::<T>()
    }

    /// Mutable, downcast access to a node's concrete type; `None` under
    /// the same conditions as [`Engine::try_node_ref`].
    pub fn try_node_mut<T: Node>(&mut self, id: NodeId) -> Option<&mut T> {
        let node = self.nodes.get_mut(id.0)?.as_deref_mut()?;
        (node as &mut dyn Any).downcast_mut::<T>()
    }

    /// Immutable, downcast access to a node's concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the node is absent or of a different concrete type; test
    /// and scenario code only. Hot paths use [`Engine::try_node_ref`].
    #[expect(
        clippy::expect_used,
        reason = "scenario and test accessor, documented to panic; no handler calls it"
    )]
    pub fn node_ref<T: Node>(&self, id: NodeId) -> &T {
        self.try_node_ref(id)
            .expect("node is absent or of a different concrete type")
    }

    /// Mutable, downcast access to a node's concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the node is absent or of a different concrete type; test
    /// and scenario code only. Hot paths use [`Engine::try_node_mut`].
    #[expect(
        clippy::expect_used,
        reason = "scenario and test accessor, documented to panic; no handler calls it"
    )]
    pub fn node_mut<T: Node>(&mut self, id: NodeId) -> &mut T {
        self.try_node_mut(id)
            .expect("node is absent or of a different concrete type")
    }

    /// Runs `f` against a node's concrete type with a live [`Ctx`], so
    /// scenario scripts (via [`Engine::schedule`]) can invoke node methods
    /// that send packets or arm timers.
    ///
    /// # Panics
    ///
    /// Panics if the node is of a different concrete type.
    #[expect(
        clippy::expect_used,
        reason = "scenario-script entry point, documented to panic; no handler calls it"
    )]
    pub fn with_node_ctx<T: Node>(&mut self, id: NodeId, f: impl FnOnce(&mut T, &mut Ctx<'_>)) {
        self.with_node(id, |node, ctx| {
            let t = (node.as_mut() as &mut dyn Any)
                .downcast_mut::<T>()
                .expect("node type mismatch");
            f(t, ctx);
        });
    }

    /// Runs `f` with the node taken out of its slot and a [`Ctx`] over the
    /// engine core, then puts the node back.
    fn with_node(&mut self, id: NodeId, f: impl FnOnce(&mut Box<dyn Node>, &mut Ctx<'_>)) {
        let mut node = match self.slot(id).take() {
            Some(n) => n,
            // Node slot empty (programming error) — treat as dead.
            None => return,
        };
        {
            let mut ctx = Ctx {
                core: &mut self.core,
                node: id,
            };
            f(&mut node, &mut ctx);
        }
        *self.slot(id) = Some(node);
    }

    /// Node `id`'s slot.
    #[expect(
        clippy::indexing_slicing,
        reason = "same dense NodeId indexing as meta; a slot is only None during its own node's dispatch"
    )]
    fn slot(&mut self, id: NodeId) -> &mut Option<Box<dyn Node>> {
        &mut self.nodes[id.0]
    }

    /// Processes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.step_bounded(None)
    }

    /// Processes the globally next event — the `(time, seq)` minimum
    /// across the control heap and the wheel — unless its time exceeds
    /// `limit_us`; returns `false`, with nothing popped, when nothing
    /// eligible is pending. One heap peek and one
    /// [`TimerWheel::pop_before`] per event: the wheel is asked only for
    /// an entry strictly below the heap top and at or below the limit,
    /// so it never moves its clock past the time of the event processed
    /// next (or past the limit), and no arm a handler makes is clamped.
    fn step_bounded(&mut self, limit_us: Option<u64>) -> bool {
        let heap_key = self.core.events.peek().map(|&Reverse(e)| (e.time, e.seq));
        let within_limit = match limit_us {
            Some(limit) => (limit.saturating_add(1), 0),
            None => (u64::MAX, u64::MAX),
        };
        let bound = heap_key.map_or(within_limit, |h| h.min(within_limit));
        if let Some(fired) = self.core.wheel.pop_before(bound.0, bound.1) {
            debug_assert!(
                fired.time >= self.core.time.as_micros(),
                "time went backwards"
            );
            self.core.time = SimTime::from_micros(fired.time);
            self.core.events_processed += 1;
            match fired.item {
                WheelItem::Timer {
                    node,
                    generation,
                    token,
                } => {
                    // Digest-fold BEFORE the liveness checks: timers of a
                    // dead or restarted node still advance the clock and
                    // count as events.
                    self.core.digest = fnv_fold(self.core.digest, fired.time);
                    self.core.digest = fnv_fold(self.core.digest, 2u64 ^ (fired.id << 8));
                    let node = NodeId(node);
                    let meta = self.core.meta(node.0);
                    if !meta.alive || meta.generation != generation {
                        return true;
                    }
                    let seq = self.core.seq;
                    self.with_node(node, |n, ctx| n.on_timer(ctx, token));
                    self.count_fire(token.kind, self.core.seq == seq);
                }
                WheelItem::Packet { pkt, dst } => {
                    self.core.digest = fnv_fold(self.core.digest, fired.time);
                    self.core.digest =
                        fnv_fold(self.core.digest, 1u64 ^ (pkt.dst.addr.as_u32() as u64) << 8);
                    let id = NodeId(dst as usize);
                    if !self.core.meta(id.0).alive {
                        self.core.drop_packet(id, &pkt, DropCause::DeadNode);
                        return true;
                    }
                    if self.core.meta(id.0).cut_in {
                        // Ingress-partitioned: the node is running but
                        // cannot hear the network; in-flight packets die
                        // here too. Digest already folded above, so a
                        // partition never reorders surviving events.
                        self.core.drop_packet(id, &pkt, DropCause::Partitioned);
                        return true;
                    }
                    self.core.record_packet(id, &pkt, Fate::Delivered);
                    self.with_node(id, |node, ctx| node.on_packet(ctx, pkt));
                }
            }
            return true;
        }

        // Nothing in the wheel precedes the heap top, so it is next —
        // if it is within the limit.
        if heap_key.is_none_or(|h| h >= within_limit) {
            return false;
        }
        let Some(Reverse(entry)) = self.core.events.pop() else {
            return false; // unreachable: peek said non-empty
        };
        debug_assert!(
            entry.time >= self.core.time.as_micros(),
            "time went backwards"
        );
        self.core.time = SimTime::from_micros(entry.time);
        // Bring the wheel's clock along (everything pending is at or
        // after this event), so the control's arms place at full
        // resolution.
        self.core.wheel.advance(entry.time);
        self.core.events_processed += 1;
        let payload = self
            .core
            .payloads
            .get_mut(entry.slot as usize)
            .and_then(Option::take);
        self.core.free_payloads.push(entry.slot);
        // Always `Some`: every heap entry owns its payload slot.
        if let Some(f) = payload {
            self.core.digest = fnv_fold(self.core.digest, entry.time);
            self.core.digest = fnv_fold(self.core.digest, 3u64);
            f(self);
        }
        true
    }

    /// Adds one fire of `kind` to the census.
    fn count_fire(&mut self, kind: u32, idle: bool) {
        let at = match self.census.binary_search_by_key(&kind, |&(k, _, _)| k) {
            Ok(at) => at,
            Err(at) => {
                self.census.insert(at, (kind, 0, 0));
                at
            }
        };
        if let Some(row) = self.census.get_mut(at) {
            row.1 += 1;
            row.2 += idle as u64;
        }
    }

    /// Runs until the event queue drains or the clock reaches `deadline`;
    /// the clock is left at `deadline` (or the last event time if earlier).
    pub fn run_until(&mut self, deadline: SimTime) {
        let limit = deadline.as_micros();
        while self.step_bounded(Some(limit)) {}
        if self.core.time < deadline {
            self.core.time = deadline;
            self.core.wheel.advance(limit);
        }
    }

    /// Runs for `duration` of simulated time from now.
    pub fn run_for(&mut self, duration: SimTime) {
        let deadline = self.core.time + duration;
        self.run_until(deadline);
    }

    // The sharded executor is gone (DESIGN.md, "Why there is no sharded
    // engine"). This name stays only because `bench_e2e`, frozen under
    // BENCHMARK.json's `paths`, still calls it for `netsim.shard_x2_ratio`;
    // it leaves with that metric in the next `benchmark` PR.
    #[doc(hidden)]
    pub fn run_for_sharded(&mut self, d: SimTime, _workers: usize) {
        self.run_for(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, PROTO_PING};
    use crate::{Bytes, Endpoint};

    /// Test node: replies to every ping and counts deliveries.
    struct Ponger {
        received: u64,
    }
    impl Node for Ponger {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
            self.received += 1;
            let reply = Packet::new(pkt.dst, pkt.src, pkt.protocol, Bytes::new());
            ctx.send(reply);
        }
    }

    /// Test node: pings a peer on start, counts replies, re-arms a timer.
    struct Pinger {
        peer: Addr,
        replies: u64,
        timer_fires: u64,
        cancel_next: bool,
    }
    impl Node for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let me = Endpoint::new(Addr::new(10, 0, 0, 1), 0);
            let pkt = Packet::new(me, Endpoint::new(self.peer, 0), PROTO_PING, Bytes::new());
            ctx.send(pkt);
            let id = ctx.set_timer(SimTime::from_millis(5), TimerToken::new(1));
            if self.cancel_next {
                ctx.cancel_timer(id);
            }
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {
            self.replies += 1;
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: TimerToken) {
            self.timer_fires += 1;
        }
    }

    fn two_node_engine(cancel: bool) -> (Engine, NodeId, NodeId) {
        let mut eng = Engine::with_topology(1, Topology::uniform(SimTime::from_millis(1)));
        let a = eng.add_node(
            "pinger",
            Addr::new(10, 0, 0, 1),
            Zone::Dc,
            Box::new(Pinger {
                peer: Addr::new(10, 0, 0, 2),
                replies: 0,
                timer_fires: 0,
                cancel_next: cancel,
            }),
        );
        let b = eng.add_node(
            "ponger",
            Addr::new(10, 0, 0, 2),
            Zone::Dc,
            Box::new(Ponger { received: 0 }),
        );
        (eng, a, b)
    }

    #[test]
    fn ping_pong_round_trip() {
        let (mut eng, a, b) = two_node_engine(false);
        eng.run_for(SimTime::from_millis(10));
        assert_eq!(eng.node_ref::<Ponger>(b).received, 1);
        assert_eq!(eng.node_ref::<Pinger>(a).replies, 1);
        assert_eq!(eng.node_ref::<Pinger>(a).timer_fires, 1);
        // 1 ms each way.
        assert_eq!(eng.now(), SimTime::from_millis(10));
    }

    #[test]
    fn cancelled_timer_never_fires() {
        let (mut eng, a, _) = two_node_engine(true);
        eng.run_for(SimTime::from_millis(10));
        assert_eq!(eng.node_ref::<Pinger>(a).timer_fires, 0);
    }

    /// Timer node that arms `n` timers on start and keeps their ids so a
    /// scenario script can cancel them after they fired.
    struct Armer {
        n: u64,
        ids: Vec<TimerId>,
        fires: u64,
    }
    impl Node for Armer {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for i in 0..self.n {
                let id = ctx.set_timer(SimTime::from_millis(1 + i), TimerToken::new(1));
                self.ids.push(id);
            }
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: TimerToken) {
            self.fires += 1;
        }
    }

    /// Cancelling timers that already fired must be a no-op that leaves no
    /// bookkeeping behind: the engine once grew a cancellation set entry
    /// per such call, forever.
    #[test]
    fn cancel_after_fire_is_a_noop_and_leaks_nothing() {
        let mut eng = Engine::with_topology(1, Topology::uniform(SimTime::from_millis(1)));
        let a = eng.add_node(
            "armer",
            Addr::new(10, 0, 0, 1),
            Zone::Dc,
            Box::new(Armer {
                n: 64,
                ids: Vec::new(),
                fires: 0,
            }),
        );
        eng.run_for(SimTime::from_secs(1));
        assert_eq!(eng.node_ref::<Armer>(a).fires, 64, "all timers fired");
        assert_eq!(eng.timer_backlog(), 0, "fired timers fully reclaimed");
        let ids = eng.node_ref::<Armer>(a).ids.clone();
        eng.schedule(SimTime::from_secs(2), move |eng| {
            eng.with_node_ctx::<Armer>(a, |_, ctx| {
                for id in &ids {
                    ctx.cancel_timer(*id);
                }
            });
        });
        eng.run_for(SimTime::from_secs(2));
        assert_eq!(
            eng.timer_backlog(),
            0,
            "cancelling already-fired timers must not grow bookkeeping"
        );
        assert_eq!(eng.node_ref::<Armer>(a).fires, 64, "no double fire");
    }

    /// Cancelling a pending timer frees its bookkeeping at once.
    #[test]
    fn cancelled_pending_timer_leaves_the_backlog_at_once() {
        let (mut eng, _, _) = two_node_engine(true);
        eng.run_until(SimTime::ZERO);
        assert_eq!(eng.timer_backlog(), 0, "armed and cancelled in on_start");
    }

    /// Arms two timers on start and cancels the first.
    struct CancelFirst;
    impl Node for CancelFirst {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let first = ctx.set_timer(SimTime::from_millis(5), TimerToken::new(1));
            ctx.set_timer(SimTime::from_millis(7), TimerToken::new(2));
            ctx.cancel_timer(first);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
    }

    #[test]
    fn cancelled_timer_is_neither_an_event_nor_a_digest_input() {
        let mut eng = Engine::with_topology(1, Topology::uniform(SimTime::from_millis(1)));
        eng.add_node(
            "cancel-first",
            Addr::new(10, 0, 0, 1),
            Zone::Dc,
            Box::new(CancelFirst),
        );
        eng.run_for(SimTime::from_millis(10));
        // The `on_start` control at 0 µs, then timer id 1 at 7 ms; timer
        // id 0 leaves no trace.
        let want = [(0, 3), (7_000, 2 ^ (1 << 8))]
            .iter()
            .fold(FNV_OFFSET, |d, &(t, w)| fnv_fold(fnv_fold(d, t), w));
        assert_eq!((eng.events_processed(), eng.event_digest()), (2, want));
        assert_eq!(eng.timer_census(), &[(2, 1, 1)], "only kind 2 fired");
    }

    #[test]
    fn census_tells_idle_fires_from_working_ones() {
        // The pinger's timer sends nothing and arms nothing; a roller
        // re-arms on every fire.
        let (mut eng, _, _) = two_node_engine(false);
        eng.run_for(SimTime::from_millis(10));
        assert_eq!(eng.timer_census(), &[(1, 1, 1)]);
        let mut eng = Engine::with_topology(1, Topology::uniform(SimTime::from_millis(1)));
        eng.add_node("roller", Addr::new(10, 8, 0, 1), Zone::Dc, roller(3, 0));
        eng.add_node(
            "cancel-first",
            Addr::new(10, 8, 0, 2),
            Zone::Dc,
            Box::new(CancelFirst),
        );
        eng.run_for(SimTime::from_millis(10));
        assert_eq!(
            eng.timer_census(),
            &[(1, 3, 0), (2, 1, 1)],
            "ascending by kind"
        );
    }

    #[test]
    fn dead_node_drops_packets() {
        let (mut eng, a, b) = two_node_engine(false);
        eng.fail_node(b);
        eng.run_for(SimTime::from_millis(10));
        assert_eq!(eng.node_ref::<Pinger>(a).replies, 0);
        assert!(eng.packets_dropped() >= 1);
        assert!(!eng.is_alive(b));
    }

    #[test]
    fn restore_runs_fresh_state() {
        let (mut eng, _a, b) = two_node_engine(false);
        eng.run_for(SimTime::from_millis(10));
        eng.fail_node(b);
        eng.restore_node(b, Box::new(Ponger { received: 0 }));
        assert!(eng.is_alive(b));
        assert_eq!(eng.node_ref::<Ponger>(b).received, 0);
    }

    #[test]
    fn stale_timers_suppressed_after_restore() {
        // Pinger arms a 5 ms timer at t=0; restore at t=1 ms bumps the
        // generation, so the pre-crash timer must not fire.
        let (mut eng, a, _b) = two_node_engine(false);
        eng.run_until(SimTime::from_millis(1));
        eng.fail_node(a);
        eng.restore_node(
            a,
            Box::new(Pinger {
                peer: Addr::new(10, 0, 0, 2),
                replies: 0,
                timer_fires: 0,
                cancel_next: true, // restart cancels its own new timer
            }),
        );
        eng.run_for(SimTime::from_millis(20));
        assert_eq!(eng.node_ref::<Pinger>(a).timer_fires, 0);
    }

    #[test]
    fn scheduled_closures_run_in_order() {
        // Arc<Mutex>, not Rc<RefCell>: schedule requires Send closures.
        let mut eng = Engine::with_topology(1, Topology::uniform(SimTime::from_millis(1)));
        let log: std::sync::Arc<std::sync::Mutex<Vec<u32>>> = Default::default();
        let l1 = log.clone();
        let l2 = log.clone();
        eng.schedule(SimTime::from_millis(5), move |_| {
            l1.lock().expect("uncontended").push(2);
        });
        eng.schedule(SimTime::from_millis(1), move |_| {
            l2.lock().expect("uncontended").push(1);
        });
        eng.run_for(SimTime::from_millis(10));
        assert_eq!(*log.lock().expect("uncontended"), vec![1, 2]);
    }

    #[test]
    fn determinism_same_seed_same_run() {
        let run = |seed| {
            let (mut eng, a, _) = two_node_engine(false);
            let _ = seed;
            eng.run_for(SimTime::from_millis(10));
            (eng.packets_sent(), eng.node_ref::<Pinger>(a).replies)
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    #[should_panic(expected = "already in use")]
    fn duplicate_address_panics() {
        let mut eng = Engine::new(1);
        eng.add_node(
            "a",
            Addr::new(10, 0, 0, 1),
            Zone::Dc,
            Box::new(Ponger { received: 0 }),
        );
        eng.add_node(
            "b",
            Addr::new(10, 0, 0, 1),
            Zone::Dc,
            Box::new(Ponger { received: 0 }),
        );
    }

    #[test]
    fn multi_addr_node_receives_on_all() {
        let mut eng = Engine::with_topology(1, Topology::uniform(SimTime::from_millis(1)));
        let vip = Addr::new(100, 0, 0, 1);
        let b = eng.add_node(
            "router",
            Addr::new(10, 0, 0, 2),
            Zone::Dc,
            Box::new(Ponger { received: 0 }),
        );
        eng.add_addr(b, vip);
        let _a = eng.add_node(
            "pinger",
            Addr::new(10, 0, 0, 1),
            Zone::Dc,
            Box::new(Pinger {
                peer: vip,
                replies: 0,
                timer_fires: 0,
                cancel_next: true,
            }),
        );
        eng.run_for(SimTime::from_millis(10));
        assert_eq!(eng.node_ref::<Ponger>(b).received, 1);
    }

    #[test]
    fn partitioned_node_hears_nothing_but_stays_alive() {
        let (mut eng, a, b) = two_node_engine(false);
        eng.partition_node(b);
        eng.run_for(SimTime::from_millis(10));
        assert_eq!(eng.node_ref::<Ponger>(b).received, 0);
        assert_eq!(eng.node_ref::<Pinger>(a).replies, 0);
        // Unlike a crash, the node is still alive and its timers fire.
        assert!(eng.is_alive(b));
        assert!(eng.is_partitioned(b));
        // The pinger's own timer (not network-dependent) still fired.
        assert_eq!(eng.node_ref::<Pinger>(a).timer_fires, 1);
    }

    #[test]
    fn asymmetric_node_partition_cuts_one_direction() {
        // Egress-only cut on the ponger: it hears the ping but its reply
        // dies on the way out.
        let (mut eng, a, b) = two_node_engine(false);
        eng.partition_node_dirs(b, false, true);
        eng.run_for(SimTime::from_millis(10));
        assert_eq!(eng.node_ref::<Ponger>(b).received, 1);
        assert_eq!(eng.node_ref::<Pinger>(a).replies, 0);
        eng.heal_node(b);
        assert!(!eng.is_partitioned(b));
    }

    #[test]
    fn heal_restores_delivery_in_flight_drops_stay_dropped() {
        let (mut eng, a, b) = two_node_engine(false);
        eng.partition_node(b);
        eng.run_for(SimTime::from_millis(10));
        assert_eq!(eng.node_ref::<Pinger>(a).replies, 0);
        eng.heal_node(b);
        // New traffic flows again after heal.
        eng.with_node_ctx::<Pinger>(a, |p, ctx| {
            let me = Endpoint::new(Addr::new(10, 0, 0, 1), 0);
            let pkt = Packet::new(me, Endpoint::new(p.peer, 0), PROTO_PING, Bytes::new());
            ctx.send(pkt);
        });
        eng.run_for(SimTime::from_millis(10));
        assert_eq!(eng.node_ref::<Pinger>(a).replies, 1);
    }

    #[test]
    fn duplicating_link_delivers_twice_and_traces() {
        let mut topo = Topology::uniform(SimTime::from_millis(1));
        let mut dup = topo.link(Zone::Dc, Zone::Dc);
        dup.duplicate = 1.0;
        topo.set_link(Zone::Dc, Zone::Dc, dup);
        let mut eng = Engine::with_topology(1, topo);
        eng.enable_trace(64);
        let a = eng.add_node(
            "pinger",
            Addr::new(10, 0, 0, 1),
            Zone::Dc,
            Box::new(Pinger {
                peer: Addr::new(10, 0, 0, 2),
                replies: 0,
                timer_fires: 0,
                cancel_next: true,
            }),
        );
        let b = eng.add_node(
            "ponger",
            Addr::new(10, 0, 0, 2),
            Zone::Dc,
            Box::new(Ponger { received: 0 }),
        );
        eng.run_for(SimTime::from_millis(10));
        // Ping duplicated => ponger hears it twice; each reply duplicated
        // => pinger hears (at least) twice per reply.
        assert_eq!(eng.node_ref::<Ponger>(b).received, 2);
        assert_eq!(eng.node_ref::<Pinger>(a).replies, 4);
        let dups = eng
            .trace()
            .events()
            .filter(|e| {
                matches!(
                    e.what,
                    What::Packet {
                        fate: Fate::Duplicated,
                        ..
                    }
                )
            })
            .count();
        assert!(dups >= 3, "expected duplication trace events, got {dups}");
    }

    #[test]
    fn node_name_survives_a_foreign_id() {
        // An id the engine never handed out must not panic: naming the
        // nodes of a trace can't be able to take down a run.
        let mut eng = Engine::new(1);
        let id = eng.add_node(
            "pinger",
            Addr::new(10, 0, 0, 1),
            Zone::Dc,
            Box::new(Ponger { received: 0 }),
        );
        assert_eq!(eng.node_name(id), "pinger");
        assert_eq!(eng.node_name(NodeId(7)), "?");
    }

    #[test]
    fn duplication_runs_are_deterministic() {
        let run = || {
            let mut topo = Topology::uniform(SimTime::from_millis(1));
            let mut dup = topo.link(Zone::Dc, Zone::Dc);
            dup.duplicate = 0.5;
            dup.jitter = SimTime::from_micros(200);
            topo.set_link(Zone::Dc, Zone::Dc, dup);
            let mut eng = Engine::with_topology(9, topo);
            let _ = eng.add_node(
                "pinger",
                Addr::new(10, 0, 0, 1),
                Zone::Dc,
                Box::new(Pinger {
                    peer: Addr::new(10, 0, 0, 2),
                    replies: 0,
                    timer_fires: 0,
                    cancel_next: true,
                }),
            );
            let _ = eng.add_node(
                "ponger",
                Addr::new(10, 0, 0, 2),
                Zone::Dc,
                Box::new(Ponger { received: 0 }),
            );
            eng.run_for(SimTime::from_millis(50));
            (eng.event_digest(), eng.packets_sent())
        };
        assert_eq!(run(), run());
    }

    /// Draws from its private stream on a timer of its own period
    /// (`draws` values per fire; `period` zero = never) and logs every
    /// value, so comparing logs compares the stream itself.
    struct Roller {
        period: SimTime,
        draws: usize,
        log: Vec<u64>,
    }
    impl Node for Roller {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if self.period > SimTime::ZERO {
                ctx.set_timer(self.period, TimerToken::new(1));
            }
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, t: TimerToken) {
            for _ in 0..self.draws {
                self.log.push(ctx.node_rng().next_u64());
            }
            ctx.set_timer(self.period, t);
        }
    }

    fn roller(period_ms: u64, draws: usize) -> Box<Roller> {
        Box::new(Roller {
            period: SimTime::from_millis(period_ms),
            draws,
            log: Vec::new(),
        })
    }

    /// One engine of `Roller`s, one per `(period ms, draws per fire)`,
    /// run for 100 ms; returns every node's draw log.
    fn roller_logs(seed: u64, nodes: &[(u64, usize)]) -> Vec<Vec<u64>> {
        let mut eng = Engine::with_topology(seed, Topology::uniform(SimTime::from_millis(1)));
        let ids: Vec<NodeId> = (0u8..)
            .zip(nodes)
            .map(|(i, &(ms, draws))| {
                let addr = Addr::new(10, 8, 0, i + 1);
                eng.add_node(format!("roller-{i}"), addr, Zone::Dc, roller(ms, draws))
            })
            .collect();
        eng.run_for(SimTime::from_millis(100));
        ids.iter()
            .map(|&id| eng.node_ref::<Roller>(id).log.clone())
            .collect()
    }

    #[test]
    fn node_rng_draws_do_not_depend_on_other_nodes() {
        // Node 1 fires every 3 ms and draws twice, whatever its
        // neighbours do: silent, firing on the same ticks, or firing
        // more often and drawing more.
        let alone = roller_logs(0xF00D, &[(0, 0), (3, 2), (0, 0)]);
        let same_ticks = roller_logs(0xF00D, &[(3, 2), (3, 2), (3, 2)]);
        let busy = roller_logs(0xF00D, &[(1, 5), (3, 2), (7, 3)]);
        assert_eq!(alone[1].len(), 66);
        assert_eq!(alone[1], same_ticks[1]);
        assert_eq!(alone[1], busy[1]);
    }

    #[test]
    fn node_rng_streams_are_split_by_seed_and_node() {
        let a = roller_logs(0xF00D, &[(3, 2), (3, 2)]);
        assert_ne!(a[0], a[1], "two nodes of one engine share no stream");
        assert_eq!(
            a,
            roller_logs(0xF00D, &[(3, 2), (3, 2)]),
            "same seed, same streams"
        );
        assert_ne!(
            a[0],
            roller_logs(0xBEEF, &[(3, 2), (3, 2)])[0],
            "another seed, another stream"
        );
    }

    #[test]
    fn node_rng_stream_continues_across_restore() {
        let mut eng = Engine::with_topology(0xF00D, Topology::uniform(SimTime::from_millis(1)));
        let id = eng.add_node("roller-0", Addr::new(10, 8, 0, 1), Zone::Dc, roller(3, 2));
        eng.run_for(SimTime::from_millis(40));
        let mut log = eng.node_ref::<Roller>(id).log.clone();
        eng.fail_node(id);
        eng.restore_node(id, roller(3, 2));
        eng.run_for(SimTime::from_millis(40));
        let after = &eng.node_ref::<Roller>(id).log;
        assert!(log.len() >= 20 && after.len() >= 20);
        log.extend(after);
        // A restart never replays earlier randomness: the two lives
        // together read one uninterrupted stream.
        let uninterrupted = &roller_logs(0xF00D, &[(3, 2)])[0];
        assert_eq!(log, uninterrupted[..log.len()]);
    }

    /// Records the engine time of every delivery it sees.
    #[derive(Default)]
    struct Stamp {
        seen: Vec<(SimTime, &'static str)>,
    }
    impl Node for Stamp {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _pkt: Packet) {
            self.seen.push((ctx.now(), "packet"));
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, t: TimerToken) {
            if t.kind == 1 {
                self.seen.push((ctx.now(), "timer"));
            }
        }
    }

    #[test]
    fn a_degraded_endpoint_on_an_overridden_hop_draws_link_then_endpoint() {
        // One send draws link loss, link jitter, endpoint loss, endpoint
        // jitter, in that order, from the engine stream; a replay of that
        // order on the seed must give every arrival time and the drops.
        let (seed, sends) = (0x11_4B, 64);
        let mut eng = Engine::with_topology(seed, Topology::uniform(SimTime::from_millis(1)));
        let (me, peer) = (Addr::new(10, 0, 0, 1), Addr::new(10, 0, 0, 2));
        let a = eng.add_node("sender", me, Zone::Dc, Box::new(Stamp::default()));
        let b = eng.add_node("sink", peer, Zone::Dc, Box::new(Stamp::default()));
        let link = LinkSpec {
            latency: SimTime::from_millis(2),
            jitter: SimTime::from_micros(300),
            loss: 0.25,
            duplicate: 0.0,
        };
        eng.topology_mut().apply_override(Zone::Dc, Zone::Dc, link);
        eng.degrade_node_links(b, 0.2, SimTime::from_micros(500));
        eng.with_node_ctx::<Stamp>(a, |_, ctx| {
            for _ in 0..sends {
                let pkt = Packet::new(
                    Endpoint::new(me, 0),
                    Endpoint::new(peer, 0),
                    PROTO_PING,
                    Bytes::new(),
                );
                ctx.send(pkt);
            }
        });
        eng.run_for(SimTime::from_millis(10));

        let mut rng = Rng::seed_from_u64(seed);
        let (mut want, mut link_lost, mut endpoint_lost) = (Vec::new(), 0, 0);
        for _ in 0..sends {
            if rng.gen_f64() < 0.25 {
                link_lost += 1;
                continue;
            }
            let link_jitter = rng.gen_range(0..=300u64);
            if rng.gen_f64() < 0.2 {
                endpoint_lost += 1;
                continue;
            }
            let endpoint_jitter = rng.gen_range(0..=500u64);
            want.push(SimTime::from_micros(2_000 + link_jitter + endpoint_jitter));
        }
        assert!(
            link_lost > 0 && endpoint_lost > 0,
            "the seed must lose at both stages"
        );
        let mut got: Vec<SimTime> = eng.node_ref::<Stamp>(b).seen.iter().map(|s| s.0).collect();
        got.sort();
        want.sort();
        assert_eq!(got, want);
        assert_eq!(eng.packets_dropped(), link_lost + endpoint_lost);
    }

    #[test]
    fn zero_delay_arms_after_run_until_fire_at_exactly_that_time() {
        // `run_until(t)` bounds the wheel by (t + 1, 0). If the wheel let
        // its clock reach a slot starting at t + 1 while looking for
        // something to pop, a zero-delay timer or packet armed right
        // after the run — at t — would be clamped to t + 1. So: park
        // entries in the slots around t, at every level's slot width, and
        // check for t just before, on and off those boundaries.
        use crate::wheel::{L0_SLOTS, LEVEL_SHIFT};
        let me = Addr::new(10, 0, 0, 1);
        let widths = [L0_SLOTS as u64, 1 << LEVEL_SHIFT[1], 1 << LEVEL_SHIFT[2]];
        for width in widths {
            for t in [width - 1, width, width + 77, 3 * width - 1, 3 * width] {
                let mut eng = Engine::with_topology(1, Topology::uniform(SimTime::ZERO));
                let id = eng.add_node("stamp", me, Zone::Dc, Box::new(Stamp::default()));
                eng.with_node_ctx::<Stamp>(id, |_, ctx| {
                    for later in [t + 1, t + 2, t + width, t + width + 1] {
                        ctx.set_timer(SimTime::from_micros(later), TimerToken::new(0));
                    }
                });
                let at = SimTime::from_micros(t);
                eng.run_until(at);
                eng.with_node_ctx::<Stamp>(id, |_, ctx| {
                    ctx.set_timer(SimTime::ZERO, TimerToken::new(1));
                    let ep = Endpoint::new(me, 0);
                    ctx.send(Packet::new(ep, ep, PROTO_PING, Bytes::new()));
                });
                eng.run_until(at);
                let seen = &eng.node_ref::<Stamp>(id).seen;
                assert_eq!(seen, &[(at, "timer"), (at, "packet")], "t = {t}");
                assert_eq!(eng.now(), at);
            }
        }
    }
}
