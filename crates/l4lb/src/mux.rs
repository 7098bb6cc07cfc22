//! The software Mux: per-VIP traffic splitting with flow affinity.
//!
//! A [`Mux`] receives encapsulated VIP traffic from the [`EdgeRouter`](
//! crate::router::EdgeRouter), picks the L7 instance for each connection
//! (learned flow table, falling back to rendezvous hashing over the VIP's
//! current instance list), and tunnels the packet to the instance with
//! IP-in-IP encapsulation — the same structure as Ananta's Mux.
//!
//! SNAT support: L7 instances tunnel their *server-bound* packets (whose
//! inner source is the VIP) through a mux. The mux learns the reverse
//! mapping from the encapsulation's outer source, so the server's reply
//! packets — which hash to this same mux — come back to the right
//! instance. This is how Yoda instances "use the VIP in interacting with
//! both the client and the server" (front-and-back indirection, §3).

use std::collections::{BTreeMap, BTreeSet};

use bytes::{add_be32, put_be, Bytes};
use yoda_netsim::{
    Addr, Ctx, Endpoint, FlowTable, Node, Packet, SimTime, TimerToken, IPIP_HEADER_LEN, PROTO_CTRL,
    PROTO_IPIP,
};
use yoda_tcp::{Flags, Segment, SEGMENT_HEADER_LEN};

use crate::ctrl::CtrlMsg;
use crate::{canonical_flow, rendezvous_pick};

/// Canonical connection key used by the flow table.
pub type FlowKey = (Endpoint, Endpoint);

/// Minimum spacing between flow/splice table sweeps. Sweeps run
/// opportunistically on packet arrival, not on a timer (see
/// `Mux::on_packet`), so an idle mux holds its tables until traffic
/// returns.
const MUX_SWEEP_PERIOD: SimTime = SimTime::from_secs(30);

/// How long a flow entry lingers after FIN/RST before the sweep drops it
/// (covers retransmitted teardown segments).
const FLOW_DRAIN_LINGER: SimTime = SimTime::from_secs(10);

/// Entries (flow or splice) idle longer than this are dropped by the sweep.
const FLOW_IDLE_TIMEOUT: SimTime = SimTime::from_secs(600);

#[derive(Debug, Clone)]
struct VipEntry {
    instances: Vec<Addr>,
    version: u64,
}

/// A learned flow-table entry: the owning instance plus the liveness
/// bookkeeping the sweep needs to evict it again.
#[derive(Debug, Clone, Copy)]
struct FlowEntry {
    inst: Addr,
    last_seen: SimTime,
    /// Set once FIN/RST is observed; the sweep evicts past this deadline.
    drain_at: Option<SimTime>,
}

impl FlowEntry {
    /// The entry a flow's first packet creates.
    fn learned(inst: Addr, now: SimTime, flags: Option<Flags>) -> Self {
        let mut e = FlowEntry {
            inst,
            last_seen: now,
            drain_at: None,
        };
        e.touch(now, flags);
        e
    }

    /// Refreshes the entry and tracks connection teardown: FIN/RST arms
    /// the drain deadline, a fresh SYN on a reused 4-tuple clears it.
    fn touch(&mut self, now: SimTime, flags: Option<Flags>) {
        self.last_seen = now;
        match flags {
            Some(f) if f.fin || f.rst => self.drain_at = Some(now + FLOW_DRAIN_LINGER),
            Some(f) if f.syn => self.drain_at = None,
            _ => {}
        }
    }
}

/// A directional splice fast-path entry (installed by an instance via
/// [`CtrlMsg::SpliceInstall`]): matched packets are rewritten and forwarded
/// without touching the instance.
#[derive(Debug, Clone, Copy)]
struct SpliceEntry {
    new_src: Endpoint,
    new_dst: Endpoint,
    seq_add: u32,
    ack_add: u32,
    /// Only pure ACKs ride the fast path; segments carrying bytes (or a
    /// SYN) go to the instance and leave the entry in place.
    acks_only: bool,
    last_seen: SimTime,
}

/// Cheap structural check before the in-place rewrite: the payload must
/// hold exactly one segment (header plus its declared payload length) —
/// the same framing invariant [`Segment::decode`] enforces. Malformed
/// packets skip the fast path and take the slow path unchanged.
fn splice_wellformed(pkt: &Packet) -> bool {
    match bytes::array_at::<4>(&pkt.payload, 17) {
        Some(len) => pkt.payload.len() == SEGMENT_HEADER_LEN + u32::from_be_bytes(len) as usize,
        None => false,
    }
}

/// Applies a splice entry to a well-formed TCP packet by patching the
/// segment header fields in place — ports, seq, and (when the ACK flag is
/// set) ack — without touching the payload bytes. When the buffer is
/// uniquely owned (the common case: packets in flight are moved, not
/// shared) this copies nothing; a shared buffer takes one defensive copy,
/// which keeps the encapsulation room in front like a sender's would.
fn splice_rewrite(pkt: &mut Packet, e: &SpliceEntry, has_ack: bool) {
    fn patch(h: &mut [u8], e: &SpliceEntry, has_ack: bool) {
        put_be(h, 0, &e.new_src.port.to_be_bytes());
        put_be(h, 2, &e.new_dst.port.to_be_bytes());
        add_be32(h, 4, e.seq_add);
        if has_ack {
            add_be32(h, 8, e.ack_add);
        }
    }
    match pkt.payload.try_mut() {
        Some(h) => patch(h, e, has_ack),
        None => {
            let mut own = Bytes::with_headroom(IPIP_HEADER_LEN, &[&pkt.payload]);
            if let Some(h) = own.try_mut() {
                patch(h, e, has_ack);
            }
            pkt.payload = own;
        }
    }
    pkt.src = e.new_src;
    pkt.dst = e.new_dst;
}

/// One L4 mux node.
pub struct Mux {
    addr: Addr,
    vips: BTreeMap<Addr, VipEntry>,
    flows: FlowTable<FlowKey, FlowEntry>,
    /// Exact directional (src, dst) → rewrite rules for the fast path.
    splices: FlowTable<(Endpoint, Endpoint), SpliceEntry>,
    /// When the flow/splice tables were last swept.
    last_sweep: SimTime,
    /// Packets forwarded toward instances.
    pub forwarded: u64,
    /// Packets forwarded on the splice fast path, below the instance.
    pub spliced: u64,
    /// Flows whose instance disappeared and were re-steered.
    pub resteered: u64,
    /// Packets dropped for lack of any live instance.
    pub dropped: u64,
    /// Mapping updates applied.
    pub updates_applied: u64,
}

impl Mux {
    /// Creates a mux bound to `addr`.
    pub fn new(addr: Addr) -> Self {
        Mux {
            addr,
            vips: BTreeMap::new(),
            flows: FlowTable::new(),
            splices: FlowTable::new(),
            last_sweep: SimTime::ZERO,
            forwarded: 0,
            spliced: 0,
            resteered: 0,
            dropped: 0,
            updates_applied: 0,
        }
    }

    /// Directly installs a VIP mapping (scenario scripting; the controller
    /// normally sends [`CtrlMsg::SetVipMap`] packets).
    pub fn set_vip_map(&mut self, vip: Addr, instances: Vec<Addr>, version: u64) {
        match self.vips.get(&vip) {
            Some(e) if e.version >= version => return,
            _ => {}
        }
        self.vips.insert(vip, VipEntry { instances, version });
        self.updates_applied += 1;
    }

    /// The current instance list for a VIP.
    pub fn vip_map(&self, vip: Addr) -> Option<&[Addr]> {
        self.vips.get(&vip).map(|e| e.instances.as_slice())
    }

    /// Number of learned flow-table entries.
    pub fn flow_entries(&self) -> usize {
        self.flows.len()
    }

    /// Number of installed splice fast-path entries.
    pub fn splice_entries(&self) -> usize {
        self.splices.len()
    }

    /// Which VIP this packet belongs to (dst for client→VIP, src for
    /// server→VIP replies on SNAT'd connections... the VIP side of either).
    fn vip_of(pkt: &Packet) -> Option<Addr> {
        if pkt.dst.addr.is_vip() {
            Some(pkt.dst.addr)
        } else if pkt.src.addr.is_vip() {
            Some(pkt.src.addr)
        } else {
            None
        }
    }

    fn steer(&mut self, ctx: &mut Ctx<'_>, inner: Packet) {
        let now = ctx.now();
        let flags = Segment::peek_flags(&inner);
        // Splice fast path: an exact directional match rewrites and
        // forwards below the instance. FIN/RST (or a malformed segment)
        // tears the entry down and falls through to the slow path so the
        // instance sees teardown; bytes on an acks-only entry fall through
        // and keep it.
        if let Some(e) = self.splices.get_mut(&(inner.src, inner.dst)) {
            if flags.is_some_and(|f| !f.fin && !f.rst) && splice_wellformed(&inner) {
                let carries =
                    flags.is_some_and(|f| f.syn) || inner.payload.len() > SEGMENT_HEADER_LEN;
                if !(e.acks_only && carries) {
                    e.last_seen = now;
                    let entry = *e;
                    self.spliced += 1;
                    let mut pkt = inner;
                    splice_rewrite(&mut pkt, &entry, flags.is_some_and(|f| f.ack));
                    ctx.send(pkt);
                    return;
                }
            } else {
                self.splices.remove(&(inner.src, inner.dst));
            }
        }
        let Some(vip) = Mux::vip_of(&inner) else {
            self.dropped += 1;
            return;
        };
        let key = canonical_flow(inner.src, inner.dst);
        let live: &[Addr] = self
            .vips
            .get(&vip)
            .map(|e| e.instances.as_slice())
            .unwrap_or(&[]);
        // One probe finds the learned entry, re-steers it if its instance
        // left the VIP, and refreshes it; only a flow's first packet pays
        // a second one to insert.
        let inst = match self.flows.get_mut(&key) {
            Some(e) => {
                if !live.contains(&e.inst) {
                    // Instance failed or VIP re-assigned: pick a survivor. The
                    // new instance recovers the flow from TCPStore.
                    self.resteered += 1;
                    let Some(inst) = rendezvous_pick(inner.src, inner.dst, live) else {
                        self.dropped += 1;
                        return;
                    };
                    e.inst = inst;
                }
                e.touch(now, flags);
                e.inst
            }
            None => {
                let Some(inst) = rendezvous_pick(inner.src, inner.dst, live) else {
                    self.dropped += 1;
                    return;
                };
                self.flows.insert(key, FlowEntry::learned(inst, now, flags));
                inst
            }
        };
        self.forwarded += 1;
        ctx.send(inner.encapsulate(self.addr, inst));
    }

    /// Handles an instance-originated packet (SNAT path): learn the
    /// reverse mapping and forward the inner packet onward natively.
    fn snat_out(&mut self, ctx: &mut Ctx<'_>, inner: Packet, from_instance: Addr) {
        let key = canonical_flow(inner.src, inner.dst);
        let (now, flags) = (ctx.now(), Segment::peek_flags(&inner));
        let e = self
            .flows
            .get_or_insert_with(key, || FlowEntry::learned(from_instance, now, None));
        e.inst = from_instance;
        e.touch(now, flags);
        self.forwarded += 1;
        ctx.send(inner);
    }

    /// Drops drained and idle flow entries, plus their splice entries and
    /// any splice that idled out on its own.
    fn sweep(&mut self, now: SimTime) {
        // Flows whose only recent traffic rode the fast path must survive:
        // splice hits refresh the splice entry, not the flow entry. (Both
        // closures only fill sets, so table order cannot show.)
        let mut active: BTreeSet<FlowKey> = BTreeSet::new();
        self.splices.retain(|&(from, to), e| {
            let live = now.saturating_sub(e.last_seen) < FLOW_IDLE_TIMEOUT;
            if live {
                active.insert(canonical_flow(from, to));
            }
            live
        });
        let mut dead: BTreeSet<FlowKey> = BTreeSet::new();
        self.flows.retain(|key, e| {
            let drained = e.drain_at.is_some_and(|d| now >= d);
            let idle = !active.contains(key)
                && now.saturating_sub(e.last_seen) >= FLOW_IDLE_TIMEOUT;
            if drained || idle {
                dead.insert(*key);
                return false;
            }
            true
        });
        self.splices
            .retain(|&(from, to), _| !dead.contains(&canonical_flow(from, to)));
    }
}

impl Node for Mux {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        // Opportunistic table sweep, amortised over packet arrivals
        // rather than a timer. The sweep sends nothing and the tables
        // only grow when packets arrive, so checking here costs one
        // compare per packet and no event, where a periodic timer would
        // be an event per mux per period for the whole run — mostly
        // idle fires, on quiet muxes too. A mux that hears no packets
        // sweeps nothing and holds no more than it already learned.
        let now = ctx.now();
        if now.saturating_sub(self.last_sweep) >= MUX_SWEEP_PERIOD {
            self.last_sweep = now;
            self.sweep(now);
        }
        match pkt.protocol {
            PROTO_IPIP => {
                let outer_src = pkt.src.addr;
                // The inner packet is the outer buffer with its header
                // popped: the splice fast path patches it in place, and
                // `steer` re-encapsulates over the header just read.
                let Some(inner) = pkt.decapsulate() else {
                    self.dropped += 1;
                    return;
                };
                if inner.src.addr.is_vip() && !inner.dst.addr.is_vip() {
                    // Outbound SNAT traffic tunneled from an instance.
                    self.snat_out(ctx, inner, outer_src);
                } else {
                    // VIP-bound traffic relayed by the edge router.
                    self.steer(ctx, inner);
                }
            }
            PROTO_CTRL => {
                if let Some(msg) = CtrlMsg::decode(&pkt.payload) {
                    match msg {
                        CtrlMsg::SetVipMap {
                            vip,
                            instances,
                            version,
                        } => self.set_vip_map(vip, instances, version),
                        CtrlMsg::RemoveVip { vip, version } => {
                            if self.vips.get(&vip).is_none_or(|e| e.version < version) {
                                self.vips.remove(&vip);
                                self.updates_applied += 1;
                            }
                        }
                        CtrlMsg::SetMuxes { .. } => {}
                        CtrlMsg::SpliceInstall {
                            from,
                            to,
                            new_src,
                            new_dst,
                            seq_add,
                            ack_add,
                            acks_only,
                        } => {
                            self.splices.insert(
                                (from, to),
                                SpliceEntry {
                                    new_src,
                                    new_dst,
                                    seq_add,
                                    ack_add,
                                    acks_only,
                                    last_seen: ctx.now(),
                                },
                            );
                        }
                        CtrlMsg::SpliceRemove { from, to } => {
                            self.splices.remove(&(from, to));
                        }
                    }
                }
            }
            yoda_netsim::PROTO_PING => {
                // Freshness byte (see the instance pong): `1` = no VIP
                // maps installed, i.e. the mux restarted cold since the
                // controller last pushed state to it.
                let fresh = if self.vips.is_empty() { 1u8 } else { 0u8 };
                let reply =
                    Packet::new(pkt.dst, pkt.src, pkt.protocol, Bytes::from(vec![fresh]));
                ctx.send(reply);
            }
            _ => {
                // Bare VIP packet delivered directly (tests): steer it.
                self.steer(ctx, pkt);
            }
        }
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: TimerToken) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use yoda_netsim::{Engine, SimTime, Topology, Zone, PROTO_TCP};
    use yoda_tcp::SeqNum;

    /// Sink node that records everything it receives.
    struct Sink {
        received: Vec<Packet>,
    }
    impl Node for Sink {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, pkt: Packet) {
            self.received.push(pkt);
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: TimerToken) {}
    }

    fn vip_pkt(client_port: u16) -> Packet {
        Packet::new(
            Endpoint::new(Addr::new(172, 16, 0, 1), client_port),
            Endpoint::new(Addr::new(100, 0, 0, 1), 80),
            PROTO_TCP,
            Bytes::from_static(b"payload"),
        )
    }

    struct Ctx2 {
        eng: Engine,
        mux: yoda_netsim::NodeId,
        inst1: yoda_netsim::NodeId,
        inst2: yoda_netsim::NodeId,
    }

    fn setup() -> Ctx2 {
        let mut eng = Engine::with_topology(5, Topology::uniform(SimTime::from_micros(100)));
        let mux_addr = Addr::new(10, 0, 2, 1);
        let i1 = Addr::new(10, 0, 0, 1);
        let i2 = Addr::new(10, 0, 0, 2);
        let mux = eng.add_node("mux", mux_addr, Zone::Dc, Box::new(Mux::new(mux_addr)));
        let inst1 = eng.add_node("inst1", i1, Zone::Dc, Box::new(Sink { received: vec![] }));
        let inst2 = eng.add_node("inst2", i2, Zone::Dc, Box::new(Sink { received: vec![] }));
        eng.node_mut::<Mux>(mux)
            .set_vip_map(Addr::new(100, 0, 0, 1), vec![i1, i2], 1);
        Ctx2 {
            eng,
            mux,
            inst1,
            inst2,
        }
    }

    impl Ctx2 {
        fn mux_addr(&self) -> Addr {
            Addr::new(10, 0, 2, 1)
        }
        fn mux(&self) -> &Mux {
            self.eng.node_ref::<Mux>(self.mux)
        }
        fn mux_mut(&mut self) -> &mut Mux {
            self.eng.node_mut::<Mux>(self.mux)
        }
        /// Hands `pkt` to the mux now, as if it had just arrived.
        fn deliver(&mut self, pkt: Packet) {
            self.eng
                .with_node_ctx::<Mux>(self.mux, |m, ctx| m.on_packet(ctx, pkt));
        }
    }

    /// Delivers one ping to the mux: the sweep runs opportunistically on
    /// packet arrival, so an idle-timeout test must prod it with traffic.
    fn prod_sweep(t: &mut Ctx2) {
        struct Prod {
            mux: Addr,
        }
        impl Node for Prod {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let me = Endpoint::new(Addr::new(10, 0, 9, 9), 0);
                let to = Endpoint::new(self.mux, 0);
                ctx.send(Packet::new(me, to, yoda_netsim::PROTO_PING, Bytes::new()));
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: Packet) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: TimerToken) {}
        }
        t.eng.add_node(
            "prod",
            Addr::new(10, 0, 9, 9),
            Zone::Dc,
            Box::new(Prod {
                mux: Addr::new(10, 0, 2, 1),
            }),
        );
        t.eng.run_for(SimTime::from_millis(5));
    }

    #[test]
    fn flow_affinity_and_failover() {
        let mut t = setup();
        let vip = Addr::new(100, 0, 0, 1);
        // Drive the mux handler directly (unit level).
        let mux = t.eng.node_mut::<Mux>(t.mux);
        let p = vip_pkt(40_000);
        let key = canonical_flow(p.src, p.dst);
        let live = mux.vip_map(vip).unwrap().to_vec();
        let first = rendezvous_pick(p.src, p.dst, &live).unwrap();
        // Install then re-check affinity through the public steer path by
        // simulating its decision logic.
        mux.flows.insert(
            key,
            FlowEntry {
                inst: first,
                last_seen: SimTime::ZERO,
                drain_at: None,
            },
        );
        assert!(mux.vip_map(vip).unwrap().contains(&first));
        // Remove the chosen instance: the mux must re-steer to survivor.
        let survivor: Vec<Addr> = live.iter().copied().filter(|&a| a != first).collect();
        mux.set_vip_map(vip, survivor.clone(), 2);
        assert_eq!(mux.vip_map(vip).unwrap(), survivor.as_slice());
        let _ = (t.inst1, t.inst2);
    }

    #[test]
    fn stale_updates_ignored() {
        let mut t = setup();
        let vip = Addr::new(100, 0, 0, 1);
        let mux = t.eng.node_mut::<Mux>(t.mux);
        let newer = vec![Addr::new(10, 0, 0, 9)];
        mux.set_vip_map(vip, newer.clone(), 5);
        mux.set_vip_map(vip, vec![Addr::new(10, 0, 0, 1)], 3); // stale
        assert_eq!(mux.vip_map(vip).unwrap(), newer.as_slice());
    }

    #[test]
    fn end_to_end_steering_through_engine() {
        // Build a small engine with an injector node that owns the client
        // address and sends VIP traffic via the mux (encapsulated).
        struct Injector {
            mux: Addr,
            count: u16,
        }
        impl Node for Injector {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for i in 0..self.count {
                    let pkt = vip_pkt(40_000 + i);
                    let outer = pkt.encapsulate(Addr::new(172, 16, 0, 1), self.mux);
                    ctx.send(outer);
                }
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: Packet) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: TimerToken) {}
        }
        let mut t = setup();
        let mux_addr = Addr::new(10, 0, 2, 1);
        t.eng.add_node(
            "injector",
            Addr::new(172, 16, 0, 1),
            Zone::Dc,
            Box::new(Injector {
                mux: mux_addr,
                count: 100,
            }),
        );
        t.eng.run_for(SimTime::from_millis(10));
        let r1 = t.eng.node_ref::<Sink>(t.inst1).received.len();
        let r2 = t.eng.node_ref::<Sink>(t.inst2).received.len();
        assert_eq!(r1 + r2, 100, "all packets steered");
        assert!(r1 > 10 && r2 > 10, "split across instances: {r1}/{r2}");
        // Delivered packets are IPIP-encapsulated toward the instance.
        let sample = &t.eng.node_ref::<Sink>(t.inst1).received[0];
        assert_eq!(sample.protocol, PROTO_IPIP);
        let inner = sample.clone().decapsulate().unwrap();
        assert_eq!(inner.dst.addr, Addr::new(100, 0, 0, 1));
        assert_eq!(t.eng.node_ref::<Mux>(t.mux).forwarded, 100);
        // The table learned one entry per flow — and the idle sweep returns
        // it to baseline once the flows go quiet past the idle timeout.
        assert_eq!(t.eng.node_ref::<Mux>(t.mux).flow_entries(), 100);
        t.eng.run_for(FLOW_IDLE_TIMEOUT + MUX_SWEEP_PERIOD);
        prod_sweep(&mut t);
        assert_eq!(t.eng.node_ref::<Mux>(t.mux).flow_entries(), 0);
    }

    #[test]
    fn no_instances_drops() {
        let mut t = setup();
        let vip = Addr::new(100, 0, 0, 1);
        {
            let mux = t.eng.node_mut::<Mux>(t.mux);
            mux.set_vip_map(vip, vec![], 9);
        }
        struct OneShot {
            mux: Addr,
        }
        impl Node for OneShot {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let outer = vip_pkt(1).encapsulate(Addr::new(172, 16, 0, 1), self.mux);
                ctx.send(outer);
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: Packet) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: TimerToken) {}
        }
        t.eng.add_node(
            "oneshot",
            Addr::new(172, 16, 0, 1),
            Zone::Dc,
            Box::new(OneShot {
                mux: Addr::new(10, 0, 2, 1),
            }),
        );
        t.eng.run_for(SimTime::from_millis(5));
        assert_eq!(t.eng.node_ref::<Mux>(t.mux).dropped, 1);
    }

    #[test]
    fn splice_fast_path_rewrites_and_tears_down() {
        let mut t = setup();
        let mux_addr = Addr::new(10, 0, 2, 1);
        let backend_addr = Addr::new(10, 1, 0, 9);
        let backend = t.eng.add_node(
            "backend",
            backend_addr,
            Zone::Dc,
            Box::new(Sink { received: vec![] }),
        );
        struct Driver {
            mux: Addr,
        }
        impl Node for Driver {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let client = Endpoint::new(Addr::new(172, 16, 0, 1), 40_000);
                let vip = Endpoint::new(Addr::new(100, 0, 0, 1), 80);
                let vss = Endpoint::new(Addr::new(100, 0, 0, 1), 40_000);
                let backend = Endpoint::new(Addr::new(10, 1, 0, 9), 80);
                let me = Endpoint::new(Addr::new(10, 0, 7, 1), 179);
                ctx.send(
                    CtrlMsg::SpliceInstall {
                        from: client,
                        to: vip,
                        new_src: vss,
                        new_dst: backend,
                        seq_add: 100,
                        ack_add: 0u32.wrapping_sub(50),
                        acks_only: false,
                    }
                    .into_packet(me, self.mux),
                );
                // A second entry, removed again before any traffic hits it.
                let other = Endpoint::new(Addr::new(172, 16, 0, 2), 41_000);
                ctx.send(
                    CtrlMsg::SpliceInstall {
                        from: other,
                        to: vip,
                        new_src: vss,
                        new_dst: backend,
                        seq_add: 0,
                        ack_add: 0,
                        acks_only: false,
                    }
                    .into_packet(me, self.mux),
                );
                ctx.send_after(
                    SimTime::from_micros(500),
                    CtrlMsg::SpliceRemove {
                        from: other,
                        to: vip,
                    }
                    .into_packet(me, self.mux),
                );
                let data = Segment {
                    src_port: client.port,
                    dst_port: vip.port,
                    seq: SeqNum::new(1_000),
                    ack: SeqNum::new(5_050),
                    flags: Flags::ACK,
                    window: 65_535,
                    payload: Bytes::from_static(b"steady-state body"),
                }
                .into_packet(client, vip);
                ctx.send_after(
                    SimTime::from_millis(1),
                    data.encapsulate(client.addr, self.mux),
                );
                let fin = Segment {
                    src_port: client.port,
                    dst_port: vip.port,
                    seq: SeqNum::new(1_017),
                    ack: SeqNum::new(5_050),
                    flags: Flags::FIN_ACK,
                    window: 65_535,
                    payload: Bytes::new(),
                }
                .into_packet(client, vip);
                ctx.send_after(
                    SimTime::from_millis(2),
                    fin.encapsulate(client.addr, self.mux),
                );
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: Packet) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: TimerToken) {}
        }
        t.eng.add_node(
            "driver",
            Addr::new(10, 0, 7, 1),
            Zone::Dc,
            Box::new(Driver { mux: mux_addr }),
        );
        t.eng.run_for(SimTime::from_millis(10));
        // The data segment rode the fast path: rewritten natively to the
        // backend with translated seq/ack and byte-identical payload.
        {
            let got = &t.eng.node_ref::<Sink>(backend).received;
            assert_eq!(got.len(), 1, "one spliced packet at the backend");
            assert_eq!(got[0].protocol, PROTO_TCP);
            assert_eq!(got[0].src, Endpoint::new(Addr::new(100, 0, 0, 1), 40_000));
            assert_eq!(got[0].dst, Endpoint::new(backend_addr, 80));
            let seg = Segment::from_packet(got[0].clone()).unwrap();
            assert_eq!(seg.seq, SeqNum::new(1_100));
            assert_eq!(seg.ack, SeqNum::new(5_000));
            assert_eq!(&seg.payload[..], b"steady-state body");
        }
        // The FIN tore the splice down and went to an instance via the
        // slow path.
        let mux = t.eng.node_ref::<Mux>(t.mux);
        assert_eq!(mux.spliced, 1);
        assert_eq!(mux.splice_entries(), 0);
        assert_eq!(mux.forwarded, 1);
        let slow = t.eng.node_ref::<Sink>(t.inst1).received.len()
            + t.eng.node_ref::<Sink>(t.inst2).received.len();
        assert_eq!(slow, 1, "FIN reached an instance");
        // The FIN armed the drain deadline; the sweep returns the flow
        // table to baseline.
        assert_eq!(t.eng.node_ref::<Mux>(t.mux).flow_entries(), 1);
        t.eng.run_for(MUX_SWEEP_PERIOD);
        prod_sweep(&mut t);
        assert_eq!(t.eng.node_ref::<Mux>(t.mux).flow_entries(), 0);
    }

    /// An acks-only entry (an HTTP/1.1-inspected client leg): pure ACKs
    /// ride it, bytes and SYNs go to the instance and keep it, FIN, RST
    /// and malformed segments tear it down on their way to the instance.
    #[test]
    fn acks_only_entry_carries_pure_acks_and_nothing_else() {
        let mut t = setup();
        let backend = t.eng.add_node(
            "backend",
            Addr::new(10, 1, 0, 9),
            Zone::Dc,
            Box::new(Sink { received: vec![] }),
        );
        let client = Endpoint::new(Addr::new(172, 16, 0, 1), 40_000);
        let vip = Endpoint::new(Addr::new(100, 0, 0, 1), 80);
        let install = CtrlMsg::SpliceInstall {
            from: client,
            to: vip,
            new_src: Endpoint::new(vip.addr, client.port),
            new_dst: Endpoint::new(Addr::new(10, 1, 0, 9), 80),
            seq_add: 0,
            ack_add: 0u32.wrapping_sub(50),
            acks_only: true,
        }
        .into_packet(Endpoint::new(Addr::new(10, 0, 7, 1), 179), t.mux_addr());
        let seg = |flags: Flags, payload: &'static [u8]| {
            Segment {
                src_port: client.port,
                dst_port: vip.port,
                seq: SeqNum::new(1_000),
                ack: SeqNum::new(5_050),
                flags,
                window: 65_535,
                payload: Bytes::from_static(payload),
            }
            .into_packet(client, vip)
        };
        let mut malformed = seg(Flags::ACK, b"");
        malformed.payload = malformed.payload.slice(0..SEGMENT_HEADER_LEN - 1);
        // (packet, fast path?, entry kept?)
        let cases = [
            (seg(Flags::ACK, b""), true, true),
            (seg(Flags::ACK, b"GET /b HTTP/1.1\r\n\r\n"), false, true),
            (seg(Flags::SYN, b""), false, true),
            (seg(Flags::ACK, b""), true, true),
            (seg(Flags::FIN_ACK, b""), false, false),
            (seg(Flags::RST, b""), false, false),
            (malformed, false, false),
        ];
        for (i, (pkt, fast, kept)) in cases.into_iter().enumerate() {
            t.deliver(install.clone());
            let before = (t.mux().spliced, t.mux().forwarded);
            t.deliver(pkt.encapsulate(client.addr, t.mux_addr()));
            let moved = (t.mux().spliced - before.0, t.mux().forwarded - before.1);
            let want = if fast { (1, 0) } else { (0, 1) };
            assert_eq!(moved, want, "case {i}: (spliced, forwarded)");
            assert_eq!(t.mux().splice_entries(), usize::from(kept), "case {i}");
            t.mux_mut().splices.remove(&(client, vip));
        }
        // The two pure ACKs reached the backend rewritten, nothing else did.
        t.eng.run_for(SimTime::from_millis(1));
        let got = &t.eng.node_ref::<Sink>(backend).received;
        assert_eq!(got.len(), 2);
        let seg = Segment::from_packet(got[0].clone()).unwrap();
        assert_eq!((seg.ack, seg.payload.len()), (SeqNum::new(5_000), 0));
    }

    #[test]
    fn sweep_survivors_do_not_depend_on_insertion_order() {
        // Same flows and splices, learned in opposite orders (so the two
        // tables are laid out differently), swept at the same instant:
        // the survivors must be the same set. A third of the flows have
        // drained, a third idled out, a third stay. Of the 120 spliced
        // ones, the idle flows are kept alive by a fresh splice, the
        // drained ones take their fresh splice with them, and the live
        // ones lose a splice that idled out.
        let now = FLOW_IDLE_TIMEOUT + SimTime::from_secs(100);
        let vip = Endpoint::new(Addr::new(100, 0, 0, 1), 80);
        let client =
            |i: u16| Endpoint::new(Addr::new(172, 16, (i >> 8) as u8, i as u8), 33_000 + i);
        let build = |order: &mut dyn Iterator<Item = u16>| {
            let mut mux = Mux::new(Addr::new(10, 0, 2, 1));
            for i in order {
                let (last_seen, drain_at) = match i % 3 {
                    0 => (now, Some(SimTime::from_secs(1))),
                    1 => (SimTime::from_secs(50), None),
                    _ => (now, None),
                };
                let entry = FlowEntry {
                    inst: Addr::new(10, 0, 0, 1),
                    last_seen,
                    drain_at,
                };
                mux.flows.insert(canonical_flow(client(i), vip), entry);
                if i % 50 == 1 || i % 50 == 2 {
                    let entry = SpliceEntry {
                        new_src: vip,
                        new_dst: vip,
                        seq_add: 0,
                        ack_add: 0,
                        acks_only: false,
                        last_seen: if i % 3 == 2 { SimTime::ZERO } else { now },
                    };
                    mux.splices.insert((client(i), vip), entry);
                }
            }
            mux.sweep(now);
            (
                mux.flows.sorted_keys(|_, _| true),
                mux.splices.sorted_keys(|_, _| true),
            )
        };
        let (flows, splices) = build(&mut (0..3_000));
        assert_eq!((flows.len(), splices.len()), (1_000 + 40, 40));
        assert_eq!(build(&mut (0..3_000).rev()), (flows, splices));
    }

    #[test]
    fn splice_rewrite_copies_a_shared_buffer_and_keeps_the_room() {
        let client = Endpoint::new(Addr::new(172, 16, 0, 1), 40_000);
        let vip = Endpoint::new(Addr::new(100, 0, 0, 1), 80);
        let entry = SpliceEntry {
            new_src: Endpoint::new(vip.addr, client.port),
            new_dst: Endpoint::new(Addr::new(10, 1, 0, 9), 8080),
            seq_add: 100,
            ack_add: 0u32.wrapping_sub(50),
            acks_only: false,
            last_seen: SimTime::ZERO,
        };
        let data = || {
            Segment {
                src_port: client.port,
                dst_port: vip.port,
                seq: SeqNum::new(u32::MAX - 9),
                ack: SeqNum::new(5_050),
                flags: Flags::ACK,
                window: 65_535,
                payload: Bytes::from_static(b"body"),
            }
            .into_packet(client, vip)
        };
        // Sole owner: patched where it lies.
        let mut own = data();
        let at = own.payload.as_ptr();
        splice_rewrite(&mut own, &entry, true);
        assert_eq!(own.payload.as_ptr(), at);
        // A clone is alive (a duplicated delivery): same bytes out, from
        // a copy; the clone still reads the original.
        let mut shared = data();
        let keep = shared.clone();
        splice_rewrite(&mut shared, &entry, true);
        assert_eq!(shared, own);
        assert_eq!(keep, data());
        let seg = Segment::from_packet(shared.clone()).unwrap();
        assert_eq!((seg.src_port, seg.dst_port), (40_000, 8080));
        assert_eq!((seg.seq, seg.ack), (SeqNum::new(90), SeqNum::new(5_000)));
        drop((seg, keep));
        // The copy has a sender's headroom: the next hop is in place again.
        let body = shared.payload.as_ptr();
        let outer = shared.encapsulate(Addr::new(10, 0, 2, 1), Addr::new(10, 0, 0, 1));
        assert_eq!(outer.payload[IPIP_HEADER_LEN..].as_ptr(), body);
    }

    #[test]
    fn ctrl_packet_updates_map() {
        let mut t = setup();
        let vip = Addr::new(100, 0, 0, 1);
        struct CtrlSender {
            mux: Addr,
        }
        impl Node for CtrlSender {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let msg = CtrlMsg::SetVipMap {
                    vip: Addr::new(100, 0, 0, 1),
                    instances: vec![Addr::new(10, 0, 0, 7)],
                    version: 10,
                };
                let me = Endpoint::new(Addr::new(10, 0, 4, 1), 0);
                ctx.send(msg.into_packet(me, self.mux));
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: Packet) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: TimerToken) {}
        }
        t.eng.add_node(
            "ctrl",
            Addr::new(10, 0, 4, 1),
            Zone::Dc,
            Box::new(CtrlSender {
                mux: Addr::new(10, 0, 2, 1),
            }),
        );
        t.eng.run_for(SimTime::from_millis(5));
        assert_eq!(
            t.eng.node_ref::<Mux>(t.mux).vip_map(vip).unwrap(),
            &[Addr::new(10, 0, 0, 7)]
        );
    }
}
