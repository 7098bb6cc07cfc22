//! A drained flow inside its linger (paper §4.1: a flow's state goes
//! "when the instance receives FIN-ACK"). Both FINs have passed, so the
//! instance has deleted the flow's TCPStore records, but it keeps the
//! flow's translation for `DRAIN_LINGER` (2 s) plus up to one gc period
//! (5 s), for the packets still due. On that flow:
//!
//! * the backend's ACK of the client's FIN reaches the client, translated;
//! * a SYN on the same 4-tuple (port reuse) opens a fresh flow, which
//!   completes its handshakes and tunnels with its own constants;
//! * `BackendDown` sends the client a RST and deletes the three store
//!   records once more;
//! * after linger and gc the flow is gone, and so is its reverse mapping:
//!   a late backend packet is another instance's flow to the instance,
//!   so it asks TCPStore (three reads) rather than hitting a stale entry;
//! * but a reverse mapping that a second client on the same source port
//!   took over while the flow lingered stays, and keeps carrying that
//!   client's flow.
//!
//! One instance, one store and two recording endpoints; the test crafts
//! every client and backend segment and injects it as a mux would.

use yoda::core::RuleTable;
use yoda::core::{InstanceCtrl, YodaConfig, YodaInstance, CTRL_PORT};
use yoda::netsim::{Addr, Ctx, Endpoint, Engine, Node, NodeId, Packet, SimTime, Zone};
use yoda::netsim::{Bytes, Topology};
use yoda::tcp::{Flags, Segment, SeqNum};
use yoda::tcpstore::{StoreServer, StoreServerConfig};

const INSTANCE: Addr = Addr::new(10, 0, 0, 1);
const STORE: Addr = Addr::new(10, 0, 1, 1);
const MUX: Addr = Addr::new(10, 0, 2, 1);
const C_ISN: u32 = 1_000;
const S_ISN: u32 = 5_000;
const REQ: &[u8] = b"GET /a HTTP/1.1\r\nHost: x\r\n\r\n";
const RESP: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n";

fn client() -> Endpoint {
    Endpoint::new(Addr::new(172, 16, 0, 9), 40_001)
}
fn vip() -> Endpoint {
    Endpoint::new(Addr::new(100, 0, 0, 1), 80)
}
/// The instance's side of the backend connection: the VIP and the
/// client's port.
fn vss() -> Endpoint {
    Endpoint::new(vip().addr, client().port)
}
fn backend() -> Endpoint {
    Endpoint::new(Addr::new(10, 1, 0, 1), 80)
}

fn seg(flags: Flags, seq: u32, ack: u32, payload: &[u8]) -> Segment {
    Segment {
        src_port: 0,
        dst_port: 0,
        seq: SeqNum::new(seq),
        ack: SeqNum::new(ack),
        flags,
        window: 65_535,
        payload: Bytes::copy_from_slice(payload),
    }
}

/// An endpoint that keeps every segment it receives, with its addresses.
#[derive(Default)]
struct Recorder {
    got: Vec<(Endpoint, Endpoint, Segment)>,
}

impl Node for Recorder {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, pkt: Packet) {
        let (src, dst) = (pkt.src, pkt.dst);
        if let Some(s) = Segment::from_packet(pkt) {
            self.got.push((src, dst, s));
        }
    }
}

struct Rig {
    eng: Engine,
    inst: NodeId,
    store: NodeId,
    client: NodeId,
    backend: NodeId,
    /// The ISN of the instance's SYN-ACK (`Y`).
    y: u32,
}

impl Rig {
    /// A flow tunneled to the backend, its response forwarded, then closed
    /// backend first: the client's FIN is the second, and drains the flow.
    fn drained() -> Rig {
        let mut eng = Engine::with_topology(11, Topology::uniform(SimTime::from_micros(250)));
        let cfg = YodaConfig {
            store_replicas: 1,
            ..YodaConfig::default()
        };
        let mut inst = YodaInstance::new(cfg, INSTANCE, &[STORE], vec![]);
        let rules = RuleTable::parse("name=r priority=1 match * action=split 10.1.0.1:80=1");
        inst.install_vip(vip(), rules.expect("rules parse"));
        let store = StoreServer::new(StoreServerConfig::default(), STORE);
        let store = eng.add_node("store", STORE, Zone::Dc, Box::new(store));
        let inst = eng.add_node("inst", INSTANCE, Zone::Dc, Box::new(inst));
        let client = eng.add_node(
            "client",
            client().addr,
            Zone::External,
            Box::<Recorder>::default(),
        );
        let backend = eng.add_node(
            "backend",
            backend().addr,
            Zone::Dc,
            Box::<Recorder>::default(),
        );
        let mut r = Rig {
            eng,
            inst,
            store,
            client,
            backend,
            y: 0,
        };
        r.y = r.handshake(C_ISN);
        let (req_end, resp_end) = (C_ISN + 1 + REQ.len() as u32, S_ISN + 1 + RESP.len() as u32);
        r.backend_sends(seg(Flags::ACK, S_ISN + 1, req_end, RESP));
        r.backend_sends(seg(Flags::FIN_ACK, resp_end, req_end, b""));
        let y_fin = r.y + 1 + RESP.len() as u32;
        r.client_sends(seg(Flags::FIN_ACK, req_end, y_fin + 1, b""));
        assert_eq!(
            r.last(r.backend).2.flags,
            Flags::FIN_ACK,
            "client FIN forwarded"
        );
        assert_eq!(r.inst().live_flows(), 1, "the drained flow lingers");
        r
    }

    /// SYN with ISN `isn`, request, backend handshake: the flow tunnels and
    /// its request has reached the backend. Returns the SYN-ACK's ISN.
    fn handshake(&mut self, isn: u32) -> u32 {
        self.handshake_from(client(), self.client, isn)
    }

    /// [`Rig::handshake`] from the client at `from`, recorded by `node`.
    fn handshake_from(&mut self, from: Endpoint, node: NodeId, isn: u32) -> u32 {
        self.inject(from, vip(), seg(Flags::SYN, isn, 0, b""));
        let (_, _, syn_ack) = self.last(node);
        assert_eq!(
            (syn_ack.flags, syn_ack.ack),
            (Flags::SYN_ACK, SeqNum::new(isn + 1))
        );
        let y = syn_ack.seq - SeqNum::new(0);
        self.inject(from, vip(), seg(Flags::ACK, isn + 1, y + 1, REQ));
        let (_, to, syn) = self.last(self.backend);
        assert_eq!(
            (to, syn.flags, syn.seq),
            (backend(), Flags::SYN, SeqNum::new(isn))
        );
        self.backend_sends(seg(Flags::SYN_ACK, S_ISN, isn + 1, b""));
        let (from, _, request) = self.last(self.backend);
        assert_eq!(
            (from, &request.payload[..]),
            (vss(), REQ),
            "request forwarded"
        );
        y
    }

    fn inject(&mut self, src: Endpoint, dst: Endpoint, mut s: Segment) {
        (s.src_port, s.dst_port) = (src.port, dst.port);
        let pkt = s.into_packet(src, dst).encapsulate(MUX, INSTANCE);
        let pkt = pkt.expect("a fresh segment has room");
        self.eng
            .with_node_ctx::<YodaInstance>(self.inst, |i, ctx| i.on_packet(ctx, pkt));
        self.eng.run_for(SimTime::from_millis(20));
    }
    fn client_sends(&mut self, s: Segment) {
        self.inject(client(), vip(), s);
    }
    fn backend_sends(&mut self, s: Segment) {
        self.inject(backend(), vss(), s);
    }

    /// The last segment `node` received.
    fn last(&self, node: NodeId) -> (Endpoint, Endpoint, Segment) {
        let got = &self.eng.node_ref::<Recorder>(node).got;
        got.last().cloned().expect("a segment arrived")
    }
    fn received(&self, node: NodeId) -> usize {
        self.eng.node_ref::<Recorder>(node).got.len()
    }
    fn inst(&self) -> &YodaInstance {
        self.eng.node_ref::<YodaInstance>(self.inst)
    }
    fn store(&self) -> &StoreServer {
        self.eng.node_ref::<StoreServer>(self.store)
    }
}

#[test]
fn the_backends_final_ack_reaches_the_client_translated() {
    let mut r = Rig::drained();
    let before = r.received(r.client);
    let (req_end, resp_end) = (C_ISN + 1 + REQ.len() as u32, S_ISN + 1 + RESP.len() as u32);
    r.backend_sends(seg(Flags::ACK, resp_end + 1, req_end + 1, b""));
    assert_eq!(r.received(r.client), before + 1);
    let (from, to, ack) = r.last(r.client);
    assert_eq!((from, to), (vip(), client()));
    assert_eq!((from.port, to.port), (ack.src_port, ack.dst_port));
    // Backend sequence space moved into the client's: S + 1 is Y + 1.
    let y_fin_end = r.y + 2 + RESP.len() as u32;
    assert_eq!(ack.flags, Flags::ACK);
    assert_eq!(
        (ack.seq, ack.ack),
        (SeqNum::new(y_fin_end), SeqNum::new(req_end + 1))
    );
    assert_eq!(r.inst().live_flows(), 1);
}

#[test]
fn a_syn_on_the_same_four_tuple_opens_a_fresh_flow() {
    let mut r = Rig::drained();
    let isn = 90_000;
    let y = r.handshake(isn);
    assert_eq!(r.inst().live_flows(), 1, "the fresh flow took the key");
    // The fresh flow tunnels with its own constants.
    r.backend_sends(seg(Flags::ACK, S_ISN + 1, isn + 1 + REQ.len() as u32, RESP));
    let (from, _, data) = r.last(r.client);
    assert_eq!((from, &data.payload[..]), (vip(), RESP));
    assert_eq!(data.seq, SeqNum::new(y + 1));
}

#[test]
fn backend_down_resets_the_client_and_deletes_the_records() {
    let mut r = Rig::drained();
    let deletes = r.store().deletes;
    let ctrl = Endpoint::new(Addr::new(10, 0, 4, 1), CTRL_PORT);
    let down = InstanceCtrl::BackendDown { backend: backend() };
    let pkt = down.into_packet(ctrl, INSTANCE);
    r.eng
        .with_node_ctx::<YodaInstance>(r.inst, |i, ctx| i.on_packet(ctx, pkt));
    r.eng.run_for(SimTime::from_millis(20));
    let (from, to, rst) = r.last(r.client);
    assert_eq!((from, to, rst.flags), (vip(), client(), Flags::RST));
    assert_eq!(rst.seq, SeqNum::new(r.y + 1));
    assert_eq!(
        r.store().deletes - deletes,
        3,
        "syn, flow and rflow records"
    );
    assert_eq!(r.inst().live_flows(), 0);
}

#[test]
fn after_linger_and_gc_the_flow_and_its_reverse_mapping_are_gone() {
    let mut r = Rig::drained();
    r.eng.run_for(SimTime::from_secs(8));
    assert_eq!(r.inst().live_flows(), 0);
    let (gets, dropped) = (r.store().gets, r.inst().dropped_unknown);
    r.backend_sends(seg(Flags::ACK, S_ISN + 50, C_ISN + 50, b""));
    assert_eq!(r.store().gets - gets, 3, "a recovery lookup, not a mapping");
    assert_eq!(r.inst().dropped_unknown - dropped, 1, "and a miss");
    assert_eq!(r.inst().live_flows(), 0);
}

#[test]
fn retiring_a_drained_flow_leaves_a_newer_flows_mapping_on_its_port() {
    // A second client on the same source port shares the instance's side
    // of the backend connection (the VIP and that port). Its flow takes
    // the backend while the first one lingers and re-maps that side; the
    // first flow's retirement must not drop the mapping, or the second
    // flow's backend packets would take the recovery path.
    let mut r = Rig::drained();
    let other = Endpoint::new(Addr::new(172, 16, 0, 10), client().port);
    let node = r.eng.add_node(
        "other",
        other.addr,
        Zone::External,
        Box::<Recorder>::default(),
    );
    let isn = 70_000;
    let y = r.handshake_from(other, node, isn);
    assert_eq!(r.inst().live_flows(), 2);
    // Past the first flow's linger and the next gc.
    r.eng.run_for(SimTime::from_secs(8));
    assert_eq!(r.inst().live_flows(), 1, "only the newer flow is left");
    let (gets, dropped) = (r.store().gets, r.inst().dropped_unknown);
    r.backend_sends(seg(Flags::ACK, S_ISN + 1, isn + 1 + REQ.len() as u32, RESP));
    let (from, to, data) = r.last(node);
    assert_eq!((from, to, &data.payload[..]), (vip(), other, RESP));
    assert_eq!(data.seq, SeqNum::new(y + 1));
    assert_eq!(r.store().gets - gets, 0, "no recovery lookup");
    assert_eq!(r.inst().dropped_unknown, dropped);
}
