//! The Yoda instance: the L7 packet driver (paper §4.1–4.2, §6).
//!
//! A Yoda instance is **not** a proxy. It has no TCP sockets. It crafts
//! and rewrites raw segments, in two phases per flow:
//!
//! * **Connection phase** (Figure 3): answer the client SYN with a
//!   deterministic SYN-ACK (after persisting the SYN header — storage-a),
//!   buffer the HTTP header, select the backend via the rules engine, open
//!   the backend connection *reusing the client's ISN and port* with the
//!   VIP as source, persist the full flow state when the backend SYN-ACK
//!   arrives (storage-b), then forward the request.
//! * **Tunneling phase** (Figure 4): rewrite addresses/ports and translate
//!   sequence numbers by the constant `Y − S` on every subsequent packet.
//!   No payload processing, no congestion control — "leave congestion
//!   control to the client and server".
//!
//! Failure recovery (Figure 5): a packet for an unknown flow triggers a
//! TCPStore lookup; a full [`FlowRecord`](crate::flowstate::FlowRecord)
//! re-creates the tunnel, a bare
//! [`SynRecord`](crate::flowstate::SynRecord) re-enters the connection
//! phase from the retransmitted header, and a total miss drops the
//! packet.
//!
//! Four pieces: `flow` is the per-flow state machine (pure: flow + input
//! → actions), [`Durability`] is everything store-facing (client, pending
//! completions, degraded mode, write-behind), [`FlowIndex`] holds the
//! flows and their backend routes, and this file is the `Node` shell that
//! finds a packet's flow once, runs the transition, applies its actions in
//! order, and retires flows through the one exit, `retire`.

mod durability;
mod flow;
mod index;
mod probing;
mod recovery;
mod tunnel;

use std::collections::BTreeMap;

use yoda_netsim::{
    hash_pair, Addr, Bytes, Ctx, Endpoint, Histogram, Node, Packet, ServiceQueue, SimTime,
    TimerToken, PROTO_CTRL, PROTO_IPIP, PROTO_PING, PROTO_PROBE, PROTO_RPC,
};
/// MSS used when chunking the forwarded request and the certificate: the
/// endpoints' own.
pub(crate) use yoda_tcp::MSS;
use yoda_tcp::{Segment, SeqNum};
use yoda_tcpstore::{StoreClient, StoreEvent, StoreOutcome};

use yoda_l4lb::{CtrlMsg as MuxCtrl, Steering};

use crate::ctrl::{InstanceCtrl, CTRL_PORT};
use crate::prober::Prober;
use crate::rules::{RuleTable, SelectCtx};

use durability::Waiter;
pub use durability::{Durability, WRITE_BEHIND_CAP};
use flow::{Action, Counter, Ends, Env, Exit, Flow, Io, Slot, Step};
pub use index::{FlowIndex, FlowKey, Found, Leg, Pair};
use probing::{PROBE_TICK_KIND, PROBE_TIMEOUT_KIND};
use recovery::RecoverEntry;

/// Timer kind for periodic garbage collection.
const GC_KIND: u32 = 0x6C;
/// GC period.
const GC_PERIOD: SimTime = SimTime::from_secs(5);
/// Fixed user-space pipeline latency added to every forwarded packet:
/// reproduces the user-space forwarding cost that makes Yoda's Figure 9
/// "LB" component ≈8 ms over ~20 packets.
const PKT_LATENCY: SimTime = SimTime::from_micros(350);
/// Packets whose core backlog exceeds this are dropped (overload).
const OVERLOAD_BACKLOG: SimTime = SimTime::from_millis(250);
/// CPU cores (the paper's instances are 8-core VMs, §7.1).
const CORES: usize = 8;

/// The fixed TLS ClientHello stand-in an SSL client sends first (§5.2).
pub(crate) const SSL_HELLO: &[u8] = b"CLIENTHELLO\n";

/// Builds the deterministic certificate blob for an SSL VIP: a 19-byte
/// header carrying the total length, padded to `len`. Determinism is what
/// lets *any* instance "resend the entire certificate" after a failure
/// without storing anything (§5.2).
pub fn make_cert(len: u32) -> Bytes {
    let len = len.max(19);
    let head = format!("SSLCERT:{:010}\n", len);
    let pad = std::iter::repeat_n(b'c', (len as usize).saturating_sub(head.len()));
    head.bytes().chain(pad).collect()
}

/// Per-VIP configuration on an instance: the rule table plus SSL options.
#[derive(Debug, Clone, Default)]
pub(crate) struct VipConfig {
    /// The L7 rules.
    pub(crate) rules: RuleTable,
    /// SSL termination: certificate length served to clients.
    pub(crate) ssl_cert_len: Option<u32>,
}

/// Instance tunables — only those some caller sets to a second value;
/// the rest are constants beside the code that uses them.
///
/// CPU defaults are calibrated to §7.1: the paper's (Python) instance
/// saturates at ~12K req/s and ~110K pkt/s on an 8-core VM.
#[derive(Debug, Clone)]
pub struct YodaConfig {
    /// CPU time per forwarded packet.
    pub per_pkt_cpu: SimTime,
    /// Extra CPU time per new connection (header parse + rule scan).
    pub per_conn_cpu: SimTime,
    /// TCPStore replication factor K: every flow record is written to K
    /// store servers (paper evaluates K=2; K=1 is "default Memcached").
    pub store_replicas: usize,
    /// ABLATION KNOB — violate the paper's write-before-commit principle:
    /// send the SYN-ACK immediately and persist storage-a asynchronously.
    /// Shaves the storage round-trip off connection setup but re-opens
    /// the failure window the ordering exists to close (§4.2: "each
    /// instance stores all the packets it ACKes ... so that no state is
    /// lost on failures").
    pub optimistic_synack: bool,
    /// Probe tick period (`action=prequal` rules; probing only runs
    /// while at least one installed rule is prequal).
    pub probe_period: SimTime,
    /// Mux fast path: once a flow enters tunneling, hand its muxes what
    /// the instance no longer needs to see — splice entries on both legs,
    /// so steady-state packets are translated and forwarded below the
    /// instance (XLB-style flow splicing). On flows that still need
    /// HTTP/1.1 inspection the client leg carries only pure ACKs: every
    /// request byte still reaches the instance.
    pub splice: bool,
}

impl Default for YodaConfig {
    fn default() -> Self {
        YodaConfig {
            per_pkt_cpu: SimTime::from_micros(16),
            per_conn_cpu: SimTime::from_micros(300),
            store_replicas: 2,
            optimistic_synack: false,
            probe_period: SimTime::from_millis(10),
            splice: false,
        }
    }
}

/// A Yoda L7 LB instance node.
pub struct YodaInstance {
    addr: Addr,
    cfg: YodaConfig,
    muxes: Steering,
    vips: BTreeMap<Endpoint, VipConfig>,
    select_ctx: SelectCtx,
    prober: Prober,
    dur: Durability,
    cpu: ServiceQueue,
    /// Flows and their routes. A live flow is boxed, so the table's
    /// buckets, whose capacity follows the peak, hold a pointer rather
    /// than a whole flow; a drained tunnel that can only translate is
    /// kept inline as its 24-byte tombstone, and its box is freed.
    index: FlowIndex<Slot>,
    /// Packets awaiting a recovery lookup, by pair.
    recovering: BTreeMap<Pair, RecoverEntry>,
    /// The action buffer every transition writes into (reused: no
    /// per-packet allocation in steady state).
    actions: Vec<Action>,
    /// Requests served (header parsed + backend selected).
    pub requests: u64,
    /// Flows recovered from TCPStore after another instance's failure.
    pub recoveries: u64,
    /// Packets forwarded in the tunneling phase.
    pub tunneled_packets: u64,
    /// Packets dropped due to CPU overload.
    pub dropped_overload: u64,
    /// Packets dropped for lack of any matching state or rules.
    pub dropped_unknown: u64,
    /// Backend-connection establishment latency (SYN→SYN-ACK), ms.
    pub conn_latency: Histogram,
    /// Critical-path storage latency per request (storage-a + storage-b), ms.
    pub storage_latency: Histogram,
    /// HTTP/1.1 mid-connection backend switches performed.
    pub backend_switches: u64,
    /// Splice install rounds sent to the muxes (fast-path handoffs,
    /// including re-installs after a mux failover).
    pub splices_installed: u64,
    /// Times the instance entered degraded mode.
    pub degraded_entries: u64,
    /// Recovery lookups shed while degraded (the packet is dropped
    /// instead of stalling on a browning store).
    pub shed_reads: u64,
}

/// Charges CPU for one packet; returns the total processing delay, or
/// `None` if the instance is overloaded and must drop the packet.
fn charge(
    cpu: &mut ServiceQueue,
    cfg: &YodaConfig,
    now: SimTime,
    affinity: u64,
    extra: SimTime,
) -> Option<SimTime> {
    if cpu.would_exceed(now, affinity, OVERLOAD_BACKLOG) {
        return None;
    }
    let done = cpu.submit(now, cfg.per_pkt_cpu + extra, affinity);
    Some(PKT_LATENCY + done.saturating_sub(now))
}

/// Moves one open-connection count from `held` to `want`. Run around
/// every transition with the flow's [`Flow::load_backend`] before and
/// after, so the per-backend counts `LeastLoaded` reads cannot leak.
fn move_load(loads: &mut BTreeMap<Endpoint, i64>, held: Option<Endpoint>, want: Option<Endpoint>) {
    if held == want {
        return;
    }
    if let Some(l) = held.and_then(|b| loads.get_mut(&b)) {
        *l -= 1;
    }
    if let Some(b) = want {
        *loads.entry(b).or_insert(0) += 1;
    }
}

impl YodaInstance {
    /// Creates an instance bound to `addr`, using `store_servers` for
    /// TCPStore and `muxes` for SNAT egress.
    pub fn new(cfg: YodaConfig, addr: Addr, store_servers: &[Addr], muxes: Vec<Addr>) -> Self {
        YodaInstance {
            addr,
            muxes: Steering::new(muxes),
            vips: BTreeMap::new(),
            select_ctx: SelectCtx::default(),
            prober: Prober::default(),
            dur: Durability::new(cfg.store_replicas, addr, store_servers),
            cpu: ServiceQueue::new(CORES),
            cfg,
            index: FlowIndex::default(),
            recovering: BTreeMap::new(),
            actions: Vec::new(),
            requests: 0,
            recoveries: 0,
            tunneled_packets: 0,
            dropped_overload: 0,
            dropped_unknown: 0,
            conn_latency: Histogram::new(),
            storage_latency: Histogram::new(),
            backend_switches: 0,
            splices_installed: 0,
            degraded_entries: 0,
            shed_reads: 0,
        }
    }

    /// Installs (replaces) the rule table for a VIP (plain HTTP).
    pub fn install_vip(&mut self, vip: Endpoint, rules: RuleTable) {
        self.install_vip_cfg(
            vip,
            VipConfig {
                rules,
                ssl_cert_len: None,
            },
        );
    }

    /// Installs a VIP with full options (rules + SSL).
    pub(crate) fn install_vip_cfg(&mut self, vip: Endpoint, cfg: VipConfig) {
        self.vips.insert(vip, cfg);
    }

    /// Read-only access to the probe bookkeeping (tests, benches).
    pub fn prober(&self) -> &Prober {
        &self.prober
    }

    /// Canonical text of every installed VIP rule table, keyed by VIP —
    /// the convergence fingerprint chaos invariants compare across live
    /// instances and against the controller.
    pub fn vip_rules_text(&self) -> BTreeMap<Endpoint, String> {
        self.vips
            .iter()
            .map(|(vip, cfg)| (*vip, cfg.rules.to_text()))
            .collect()
    }

    /// Removes a VIP's rules (existing flows keep tunneling).
    pub(crate) fn remove_vip(&mut self, vip: Endpoint) {
        self.vips.remove(&vip);
    }

    /// Flows currently tracked: every flow from its SYN until it is
    /// retired, drained tunnels lingering to forward their final ACKs
    /// included.
    pub fn live_flows(&self) -> usize {
        self.index.len()
    }

    /// CPU utilisation since the last window reset.
    pub fn cpu_utilization(&self, now: SimTime) -> f64 {
        self.cpu.utilization(now)
    }

    /// Resets the CPU measurement window.
    pub(crate) fn reset_cpu_window(&mut self, now: SimTime) {
        self.cpu.reset_window(now);
    }

    /// Access to the embedded store client (for latency stats).
    pub fn store_client(&self) -> &StoreClient {
        self.dur.store()
    }

    /// Mutable access to the embedded store client.
    pub fn store_client_mut(&mut self) -> &mut StoreClient {
        self.dur.store_mut()
    }

    /// The store-facing component: degraded-mode state and write-behind
    /// accounting.
    pub fn durability(&self) -> &Durability {
        &self.dur
    }

    fn env(&self, now: SimTime) -> Env {
        Env {
            now,
            degraded: self.dur.is_degraded(),
            optimistic_synack: self.cfg.optimistic_synack,
            splice: self.cfg.splice,
        }
    }

    /// SSL VIPs: the certificate length a flow of `vip` is created with.
    fn cert_len(&self, vip: Endpoint) -> Option<u32> {
        self.vips.get(&vip).and_then(|v| v.ssl_cert_len)
    }

    /// Sends a crafted segment from `src` to `dst`, after the modelled
    /// processing delay. VIP-sourced packets to a backend (DC address
    /// space, 10.x) tunnel through the mux the edge router picks for the
    /// flow, so return traffic hits the same mux (SNAT path); everything
    /// else goes natively (DSR to clients).
    fn emit(
        &mut self,
        ctx: &mut Ctx<'_>,
        delay: SimTime,
        seg: Segment,
        src: Endpoint,
        dst: Endpoint,
    ) {
        let pkt = seg.into_packet(src, dst);
        let backend = matches!(dst.addr.octets(), [10, ..]);
        if src.addr.is_vip() && !dst.addr.is_vip() && dst.port != 0 && backend {
            if let Some(mux) = self.muxes.pick(src, dst) {
                // A fresh segment always has room for the IP-in-IP header.
                if let Some(outer) = pkt.encapsulate(self.addr, mux) {
                    ctx.send_after(delay, outer);
                }
                return;
            }
        }
        ctx.send_after(delay, pkt);
    }

    /// Applies the buffered actions of one transition of flow `key`, in
    /// the order the flow emitted them — sends, store ops and trace notes
    /// reach the engine exactly as the transition sequenced them.
    fn apply(&mut self, ctx: &mut Ctx<'_>, key: FlowKey) {
        let mut actions = std::mem::take(&mut self.actions);
        for action in actions.drain(..) {
            match action {
                Action::Send {
                    delay,
                    seg,
                    src,
                    dst,
                    tunneled,
                } => {
                    self.tunneled_packets += u64::from(tunneled);
                    self.emit(ctx, delay, seg, src, dst);
                }
                Action::Write(op, waiter) => self.dur.write(ctx, op, waiter),
                Action::Splice(msg) => {
                    // To the mux owning the spliced leg — the same
                    // rendezvous choice the edge router makes for that leg,
                    // so the entry lands on the mux the packets traverse.
                    let (MuxCtrl::SpliceInstall { from, to, .. }
                    | MuxCtrl::SpliceRemove { from, to }) = msg
                    else {
                        continue;
                    };
                    if let Some(mux) = self.muxes.pick(from, to) {
                        let me = Endpoint::new(self.addr, yoda_l4lb::CTRL_PORT);
                        ctx.send(msg.into_packet(me, mux));
                    }
                }
                Action::Map(backend) => self.index.map(key, backend),
                Action::Unmap(backend) => self.index.unmap(key, backend),
                Action::ConnLatency(d) => self.conn_latency.record_time_ms(d),
                Action::Count(Counter::Request) => self.requests += 1,
                Action::Count(Counter::BackendSwitch) => self.backend_switches += 1,
                Action::Count(Counter::SpliceInstall) => self.splices_installed += 1,
                Action::Count(Counter::DroppedUnknown) => self.dropped_unknown += 1,
            }
        }
        self.actions = actions;
    }

    /// The one way a flow leaves the index. Always gives the flow's
    /// open-connection count back; what else is released depends on why.
    fn retire(&mut self, ctx: &mut Ctx<'_>, key: FlowKey, why: Exit) {
        let orphan_routes = matches!(why, Exit::StoreTimeout | Exit::Stuck);
        let Some(mut slot) = self.index.retire(key, orphan_routes) else {
            return;
        };
        move_load(&mut self.select_ctx.loads, slot.load_backend(), None);
        match why {
            Exit::NoRoute => self.dropped_unknown += 1,
            Exit::BackendDown => {
                let (env, delay) = (self.env(ctx.now()), SimTime::ZERO);
                let out = &mut self.actions;
                slot.reset(key, &mut Io { env, delay, out });
                self.apply(ctx, key);
            }
            Exit::PortReuse | Exit::StoreTimeout | Exit::Drained | Exit::Stuck => {}
        }
    }

    // ------------------------------------------------------------------
    // Data path
    // ------------------------------------------------------------------

    /// One decapsulated packet. Consumes it: the decoded segment keeps the
    /// packet's body as its data, and a tunneled segment's translated
    /// header is written into the head of the packet it leaves in — the
    /// instance forwards without allocating or touching the data.
    fn handle_inner(&mut self, ctx: &mut Ctx<'_>, inner: Packet) {
        let pair = (inner.src, inner.dst);
        match Segment::from_packet(inner) {
            Some(seg) => self.handle_segment(ctx, pair, seg),
            None => self.dropped_unknown += 1,
        }
    }

    /// `seg` travelling `pair.0 → pair.1`: fresh from the wire, or parked
    /// by a recovery lookup and re-fed once the flow is rebuilt.
    fn handle_segment(&mut self, ctx: &mut Ctx<'_>, pair: Pair, seg: Segment) {
        let now = ctx.now();
        let env = self.env(now);
        let affinity = hash_pair(
            7,
            pair.0.addr.as_u32() as u64,
            ((pair.0.port as u64) << 16) | pair.1.port as u64,
        );
        let found = self.index.find(pair);
        // Only a fresh SYN to a VIP service endpoint costs connection CPU.
        let fresh = matches!(found, Found::Unknown)
            && (seg.flags.syn && !seg.flags.ack)
            && self.vips.contains_key(&pair.1);
        let extra = if fresh {
            self.cfg.per_conn_cpu
        } else {
            SimTime::ZERO
        };
        let Some(delay) = charge(&mut self.cpu, &self.cfg, now, affinity, extra) else {
            self.dropped_overload += 1;
            return;
        };
        let (key, slot, server) = match found {
            Found::Client(key, slot) => (key, slot, false),
            Found::Server(key, slot) => (key, slot, true),
            Found::Orphan => {
                self.dropped_unknown += 1;
                return;
            }
            Found::Unknown if fresh => return self.new_connection(ctx, delay, pair, seg.seq),
            // Another instance's flow: the recovery path (Figure 5).
            Found::Unknown => return self.start_recovery(ctx, pair, seg),
        };
        let out = &mut self.actions;
        let mut io = Io { env, delay, out };
        let step = match slot {
            Slot::Drained(d) if server => d.on_server(Ends::of(key), pair.0, seg, &mut io),
            Slot::Drained(d) => d.on_client(Ends::of(key), seg, &mut io),
            Slot::Live(flow) => {
                let held = flow.load_backend();
                let mut step = if server {
                    flow.on_server(pair.0, seg, &mut io)
                } else {
                    flow.on_client(seg, &mut io)
                };
                if let Step::Select(req, resume) = step {
                    // Rule selection needs the rule tables and the node
                    // RNG, so it happens here and is fed back to the flow
                    // as an input.
                    self.select_ctx.now = now;
                    let choice = self
                        .vips
                        .get_mut(&key.1)
                        .and_then(|v| v.rules.select_full(&req, &self.select_ctx, ctx.node_rng()))
                        .map(|s| (s.primary, s.mirrors));
                    step = flow.on_selected(choice, resume, &mut io);
                }
                move_load(&mut self.select_ctx.loads, held, flow.load_backend());
                if let Some(tombstone) = flow.drained() {
                    // Nothing but translation is left: keep only that.
                    *slot = Slot::Drained(tombstone);
                }
                step
            }
        };
        self.apply(ctx, key);
        match step {
            Step::Exit(why) => self.retire(ctx, key, why),
            Step::Reopen(syn) => {
                self.retire(ctx, key, Exit::PortReuse);
                self.new_connection(ctx, delay, key, syn.seq);
            }
            Step::Done | Step::Select(..) => {}
        }
    }

    fn new_connection(&mut self, ctx: &mut Ctx<'_>, delay: SimTime, key: FlowKey, isn: SeqNum) {
        let (env, cert_len) = (self.env(ctx.now()), self.cert_len(key.1));
        let out = &mut self.actions;
        let flow = Flow::open(key, cert_len, isn, &mut Io { env, delay, out });
        self.index.open(key, Slot::Live(Box::new(flow)));
        self.apply(ctx, key);
    }

    // ------------------------------------------------------------------
    // Store completions
    // ------------------------------------------------------------------

    fn store_event(&mut self, ctx: &mut Ctx<'_>, ev: StoreEvent) {
        let was_degraded = self.dur.is_degraded();
        let waiter = self.dur.settle(ctx, &ev);
        self.degraded_entries += u64::from(!was_degraded && self.dur.is_degraded());
        match waiter {
            Some(Waiter::Recover(rk)) => self.recovery_event(ctx, rk, ev),
            Some(w @ (Waiter::SynStored(key) | Waiter::FlowStored(key))) => {
                self.flow_stored(ctx, key, w, &ev)
            }
            _ => {}
        }
    }

    /// A storage-a/b write of flow `key` completed.
    fn flow_stored(&mut self, ctx: &mut Ctx<'_>, key: FlowKey, waiter: Waiter, ev: &StoreEvent) {
        if ev.outcome == StoreOutcome::TimedOut {
            // Could not persist: abandon; the client will retry and so
            // will we.
            return self.retire(ctx, key, Exit::StoreTimeout);
        }
        let (env, delay, out) = (self.env(ctx.now()), SimTime::ZERO, &mut self.actions);
        let flow_done = match self.index.get_mut(&key) {
            Some(Slot::Live(flow)) => flow.on_stored(waiter, &mut Io { env, delay, out }),
            Some(Slot::Drained(_)) | None => false,
        };
        // Critical-path storage latency: storage-a, then storage-b once
        // both of its sets have landed.
        if flow_done || matches!(waiter, Waiter::SynStored(_)) {
            self.storage_latency.record_time_ms(ev.latency);
        }
        self.apply(ctx, key);
    }

    // ------------------------------------------------------------------
    // Control plane
    // ------------------------------------------------------------------

    fn handle_ctrl(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        let Some(msg) = pkt.message().and_then(InstanceCtrl::decode) else {
            return;
        };
        match msg {
            InstanceCtrl::InstallVip {
                vip,
                rules_text,
                ssl_cert_len,
            } => {
                if let Some(rules) = RuleTable::parse(&rules_text) {
                    self.install_vip_cfg(
                        vip,
                        VipConfig {
                            rules,
                            ssl_cert_len,
                        },
                    );
                }
            }
            InstanceCtrl::RemoveVip { vip } => self.remove_vip(vip),
            InstanceCtrl::BackendDown { backend } => {
                self.select_ctx.dead.insert(backend);
                for vcfg in self.vips.values_mut() {
                    vcfg.rules.purge_backend(backend);
                }
                // Connections through a failed backend are terminated
                // (§5.2) — in key order: each retirement sends RSTs and
                // store deletes, and the wire must not show table layout.
                for key in self.index.keys_where(|f| f.backend() == Some(backend)) {
                    self.retire(ctx, key, Exit::BackendDown);
                }
            }
            InstanceCtrl::BackendUp { backend } => {
                self.select_ctx.dead.remove(&backend);
            }
            InstanceCtrl::SetMuxes { muxes } => self.muxes.set(muxes),
            InstanceCtrl::StatsRequest { seq } => {
                let reply = InstanceCtrl::StatsReply {
                    seq,
                    cpu_milli: (self.cpu_utilization(ctx.now()) * 1000.0) as u32,
                };
                self.reset_cpu_window(ctx.now());
                let me = Endpoint::new(self.addr, CTRL_PORT);
                ctx.send(reply.into_packet(me, pkt.src.addr));
            }
            InstanceCtrl::StatsReply { .. } => {}
        }
    }

    /// Periodic cleanup of drained tunnels and stuck connection-phase
    /// entries.
    fn gc(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        for key in self.index.keys_where(|f| f.expired(now).is_some()) {
            if let Some(why) = self.index.get(&key).and_then(|f| f.expired(now)) {
                self.retire(ctx, key, why);
            }
        }
    }
}

impl Node for YodaInstance {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(GC_PERIOD, TimerToken::new(GC_KIND));
        ctx.set_timer(self.cfg.probe_period, TimerToken::new(PROBE_TICK_KIND));
        self.cpu.reset_window(ctx.now());
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        match pkt.protocol {
            PROTO_IPIP => {
                if let Some(inner) = pkt.decapsulate() {
                    self.handle_inner(ctx, inner);
                }
            }
            PROTO_RPC => {
                if let Some(ev) = self.dur.on_packet(ctx, &pkt) {
                    self.store_event(ctx, ev);
                }
            }
            PROTO_CTRL => self.handle_ctrl(ctx, &pkt),
            PROTO_PROBE => self.handle_probe_reply(ctx, &pkt),
            PROTO_PING => {
                // The pong carries one freshness byte: `1` = this instance
                // holds no VIP config (it restarted since the controller
                // last provisioned it). Lets the controller catch silent
                // restarts shorter than the miss threshold — a crash the
                // ping stream alone can no longer see.
                let fresh = Bytes::copy_from_slice(&[u8::from(self.vips.is_empty())]);
                ctx.send(Packet::new(pkt.dst, pkt.src, PROTO_PING, fresh));
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        match token.kind {
            k if Durability::owns_timer_kind(k) => {
                if let Some(ev) = self.dur.on_timer(ctx, token) {
                    self.store_event(ctx, ev);
                }
            }
            GC_KIND => {
                self.gc(ctx);
                ctx.set_timer(GC_PERIOD, TimerToken::new(GC_KIND));
            }
            PROBE_TICK_KIND => self.probe_tick(ctx),
            PROBE_TIMEOUT_KIND => self.probe_timeout(ctx, token.a),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests;
