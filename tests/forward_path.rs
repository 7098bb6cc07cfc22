//! The forwarding tier's byte discipline (DESIGN.md "Byte path"): a
//! segment's data is never copied — it rides every hop as the packet's
//! `body`, the view of the sender's buffer — and its header rides by
//! value in the packet's `head`, which every hop — router, mux, instance
//! — reads and rewrites in the packet it owns, writing an IP-in-IP header
//! into the room in front of it and dropping it again.
//!
//! Three angles:
//!
//! * a seeded differential test of the consuming codec against a
//!   copy-based one (kept here, in the test, only): same bytes out, the
//!   body never moves, a second encapsulation is refused, and rewriting
//!   one clone of a packet never changes another. Figure 4's rewrite runs
//!   on both product paths — the instance's decode / `Translation::apply`
//!   / encode and the mux's `Translation::apply_in_place` — against one
//!   reference rewrite, and both reject misframed segments untouched;
//! * link duplication in front of router → mux → instance: both copies
//!   share one body on arrival and both come out byte-identical;
//! * pointer identity through the real testbed: the data address the
//!   receiving endpoint sees is the address the sender's packet had, on
//!   the tunnel, SNAT and splice paths.

use std::collections::BTreeMap;

use yoda::core::{Testbed, TestbedConfig};
use yoda::core::{YodaConfig, YodaInstance};
use yoda::l4lb::{EdgeRouter, Mux};
use yoda::netsim::{
    Addr, Ctx, Endpoint, Engine, Head, LinkSpec, Node, Packet, Rng, SimTime, TimerToken, Topology,
    Zone, HEAD_CAP, IPIP_HEADER_LEN, PROTO_IPIP, PROTO_TCP,
};
use yoda::netsim::{Bytes, WheelItem};
use yoda::tcp::{Flags, Segment, SeqNum, Translation, SEGMENT_HEADER_LEN};

// ----------------------------------------------------------------------
// The reference: a copy-based codec. Every call serialises into fresh
// buffers; the body is copied too.
// ----------------------------------------------------------------------

/// A head holding `bytes`, built byte by byte.
fn head_of(bytes: &[u8]) -> Head {
    let mut h = Head::new();
    assert!(h.push(bytes), "{} bytes fit a head", bytes.len());
    h
}

/// A packet's bytes on the wire: its head, then its body.
fn wire(pkt: &Packet) -> Vec<u8> {
    [&pkt.head[..], &pkt.body[..]].concat()
}

fn ref_encapsulate(inner: &Packet, outer_src: Addr, outer_dst: Addr) -> Packet {
    let mut buf = Vec::with_capacity(IPIP_HEADER_LEN + inner.head.len());
    buf.extend_from_slice(&inner.src.to_bytes());
    buf.extend_from_slice(&inner.dst.to_bytes());
    buf.push(inner.protocol);
    let len = inner.head.len() + inner.body.len();
    buf.extend_from_slice(&(len as u32).to_be_bytes());
    buf.extend_from_slice(&inner.head);
    let mut outer = Packet::new(
        Endpoint::new(outer_src, 0),
        Endpoint::new(outer_dst, 0),
        PROTO_IPIP,
        Bytes::copy_from_slice(&inner.body),
    );
    outer.head = head_of(&buf);
    outer
}

fn ref_decapsulate(outer: &Packet) -> Packet {
    assert_eq!(outer.protocol, PROTO_IPIP);
    let b = &outer.head;
    let len = u32::from_be_bytes(b[13..17].try_into().unwrap()) as usize;
    assert_eq!(b.len() + outer.body.len(), IPIP_HEADER_LEN + len);
    let mut inner = Packet::new(
        Endpoint::from_bytes(b[0..6].try_into().unwrap()),
        Endpoint::from_bytes(b[6..12].try_into().unwrap()),
        b[12],
        Bytes::copy_from_slice(&outer.body),
    );
    inner.head = head_of(&b[IPIP_HEADER_LEN..]);
    inner
}

/// The 21 header bytes of `s`.
fn ref_header(s: &Segment) -> Vec<u8> {
    let mut buf = Vec::with_capacity(SEGMENT_HEADER_LEN);
    buf.extend_from_slice(&s.src_port.to_be_bytes());
    buf.extend_from_slice(&s.dst_port.to_be_bytes());
    buf.extend_from_slice(&s.seq.to_be_bytes());
    buf.extend_from_slice(&s.ack.to_be_bytes());
    let f = s.flags;
    buf.push(
        f.syn as u8
            | (f.ack as u8) << 1
            | (f.fin as u8) << 2
            | (f.rst as u8) << 3
            | (f.psh as u8) << 4,
    );
    buf.extend_from_slice(&s.window.to_be_bytes());
    buf.extend_from_slice(&(s.payload.len() as u32).to_be_bytes());
    buf
}

/// `s` on the wire from `src` to `dst`: its header, then its data.
fn ref_packet(s: &Segment, src: Endpoint, dst: Endpoint) -> Packet {
    let mut pkt = Packet::new(src, dst, PROTO_TCP, Bytes::copy_from_slice(&s.payload));
    pkt.head = head_of(&ref_header(s));
    pkt
}

fn be32(b: &[u8], at: usize) -> u32 {
    u32::from_be_bytes(b[at..at + 4].try_into().unwrap())
}

/// Figure 4 on the reference side: parse the 21-byte header out of a copy,
/// translate, serialise afresh.
fn ref_rewrite(pkt: &Packet, t: &Translation) -> Packet {
    let b = &pkt.head;
    assert_eq!(b.len(), SEGMENT_HEADER_LEN);
    let be32 = |at: usize| be32(b, at);
    let flags = b[12];
    let seg = Segment {
        src_port: t.src.port,
        dst_port: t.dst.port,
        seq: SeqNum::new(be32(4).wrapping_add(t.seq_add)),
        ack: SeqNum::new(if flags & 2 != 0 {
            be32(8).wrapping_add(t.ack_add)
        } else {
            be32(8)
        }),
        flags: Flags {
            syn: flags & 1 != 0,
            ack: flags & 2 != 0,
            fin: flags & 4 != 0,
            rst: flags & 8 != 0,
            psh: flags & 16 != 0,
        },
        window: be32(13),
        payload: Bytes::copy_from_slice(&pkt.body),
    };
    ref_packet(&seg, t.src, t.dst)
}

/// The instance's side of [`ref_rewrite`] (its tunnel): consuming
/// decode, translate, consuming encode. `None` where decode rejects.
fn tunnel_rewrite(pkt: Packet, t: &Translation) -> Option<Packet> {
    let mut seg = Segment::from_packet(pkt)?;
    t.apply(&mut seg);
    Some(seg.into_packet(t.src, t.dst))
}

fn rand_endpoint(rng: &mut Rng) -> Endpoint {
    Endpoint::new(Addr::from_u32(rng.next_u32()), rng.gen_range(0..=u16::MAX))
}

fn rand_segment(rng: &mut Rng, src: Endpoint, dst: Endpoint, bits: u8) -> Segment {
    let len = match rng.gen_range(0u8..4) {
        0 => 0,
        1 => rng.gen_range(1..40usize),
        _ => rng.gen_range(40..1500usize),
    };
    Segment {
        src_port: src.port,
        dst_port: dst.port,
        seq: SeqNum::new(rng.next_u32()),
        ack: SeqNum::new(rng.next_u32()),
        flags: Flags {
            syn: bits & 1 != 0,
            ack: bits & 2 != 0,
            fin: bits & 4 != 0,
            rst: bits & 8 != 0,
            psh: bits & 16 != 0,
        },
        window: rng.next_u32(),
        payload: (0..len).map(|_| rng.gen_range(0..=u8::MAX)).collect(),
    }
}

fn rand_translation(rng: &mut Rng) -> Translation {
    Translation {
        src: rand_endpoint(rng),
        dst: rand_endpoint(rng),
        seq_add: rng.next_u32(),
        ack_add: rng.next_u32(),
    }
}

/// 12 000 seeded chains of encapsulate / decapsulate / segment rewrite,
/// the product codec against the reference one, each rewrite on one of the
/// two product paths at random. Segments carry all 32 flag combinations
/// and random seq/ack values and constants, so about half the additions
/// wrap 2³². A packet starts as a sender emits it or with a head built
/// byte by byte, and clones of it are taken and dropped along the way.
/// After every step the two packets must be equal field for field and
/// byte for byte, the body must be the one the segment started with, and
/// every clone ever retained must still read what it read when it was
/// taken: rewriting one clone never changes another. A second
/// encapsulation of an encapsulated segment is refused (`None`), never
/// truncated. Each case ends with its segment cut short, run long, moved
/// into the body and (where it fits) in the contiguous shape (data after
/// the header, in the head), which both product paths must refuse
/// without a write.
#[test]
fn consuming_codec_matches_copying_codec() {
    const CASES: u64 = 12_000;
    // Rewrites per product path, and those whose seq / ack addition wrapped.
    let (mut by_path, mut wrapped) = ([0u64; 2], [0u64; 2]);
    let (mut steps, mut refused, mut clones_checked) = (0u64, 0u64, 0u64);
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xF0_4A4D ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let (src, dst) = (rand_endpoint(&mut rng), rand_endpoint(&mut rng));
        let seg = rand_segment(&mut rng, src, dst, (case % 32) as u8);
        let mut reference = ref_packet(&seg, src, dst);
        let data = seg.payload.as_ptr();
        let mut pkt = seg.into_packet(src, dst);
        if rng.gen_range(0u8..2) == 0 {
            pkt.head = head_of(&reference.head);
        }
        // (clone, its wire bytes when it was taken).
        let mut retained: Vec<(Packet, Vec<u8>)> = Vec::new();
        let mut depth = 0usize;
        for _ in 0..rng.gen_range(1..10usize) {
            if rng.gen_range(0u8..3) == 0 {
                retained.push((pkt.clone(), wire(&pkt)));
            }
            if rng.gen_range(0u8..4) == 0 && !retained.is_empty() {
                retained.swap_remove(rng.gen_range(0..retained.len()));
            }
            match rng.gen_range(0u8..3) {
                0 => {
                    let (a, b) = (
                        Addr::from_u32(rng.next_u32()),
                        Addr::from_u32(rng.next_u32()),
                    );
                    if depth > 0 {
                        // 21 + 17 + 17 header bytes do not fit a head.
                        assert_eq!(
                            pkt.head.room(),
                            HEAD_CAP - IPIP_HEADER_LEN - SEGMENT_HEADER_LEN
                        );
                        assert_eq!(pkt.clone().encapsulate(a, b), None, "case {case}");
                        refused += 1;
                        continue;
                    }
                    reference = ref_encapsulate(&reference, a, b);
                    pkt = pkt.encapsulate(a, b).expect("room for one");
                    depth += 1;
                }
                1 if depth > 0 => {
                    reference = ref_decapsulate(&reference);
                    pkt = pkt.decapsulate().expect("exactly framed");
                    depth -= 1;
                }
                _ if depth == 0 => {
                    let t = rand_translation(&mut rng);
                    let path = rng.gen_range(0..2usize);
                    let (h, has_ack) = (&reference.head, reference.head[12] & 2 != 0);
                    wrapped[0] += u64::from(be32(h, 4).checked_add(t.seq_add).is_none());
                    wrapped[1] += u64::from(has_ack && be32(h, 8).checked_add(t.ack_add).is_none());
                    reference = ref_rewrite(&reference, &t);
                    if path == 0 {
                        pkt = tunnel_rewrite(pkt, &t).expect("framed");
                    } else {
                        assert!(t.apply_in_place(&mut pkt), "case {case}: framed");
                    }
                    by_path[path] += 1;
                }
                _ => continue,
            }
            steps += 1;
            assert_eq!(pkt, reference, "case {case}");
            assert!(
                pkt.body.is_empty() || pkt.body.as_ptr() == data,
                "case {case}: the body moved"
            );
            for (clone, snapshot) in &retained {
                assert_eq!(&wire(clone), snapshot, "case {case}: a clone saw a write");
                clones_checked += 1;
            }
        }
        // Unwind to the segment: it still decodes to what the reference says.
        while depth > 0 {
            reference = ref_decapsulate(&reference);
            pkt = pkt.decapsulate().expect("exactly framed");
            depth -= 1;
        }
        assert_eq!(pkt, reference, "case {case}");
        assert!(Segment::from_packet(pkt).is_some());
        // Cut short, run long, in the body or contiguous, the segment is
        // refused by both product paths, and the mux's leaves the packet
        // as it was.
        let (h, body) = (&reference.head[..], &reference.body);
        let with = |head: &[u8], body: Bytes| Packet {
            head: head_of(head),
            body,
            ..reference.clone()
        };
        let tail = Bytes::copy_from_slice(&[0xAA; 3][..rng.gen_range(1..=3usize)]);
        let whole = wire(&reference);
        let mut bad = vec![
            with(&h[..rng.gen_range(0..h.len())], body.clone()),
            with(h, Bytes::from([&body[..], &tail].concat())),
            with(&[], Bytes::from(whole.clone())),
        ];
        if !body.is_empty() {
            bad.push(with(h, body.slice(..rng.gen_range(0..body.len()))));
            bad.push(with(&whole[..h.len() + 1], body.slice(1..)));
        }
        if !body.is_empty() && whole.len() <= HEAD_CAP {
            bad.push(with(&whole, Bytes::new()));
        }
        for mut bad in bad {
            let t = rand_translation(&mut rng);
            assert!(tunnel_rewrite(bad.clone(), &t).is_none(), "case {case}");
            let before = bad.clone();
            assert!(!t.apply_in_place(&mut bad), "case {case}");
            assert_eq!(bad, before, "case {case}: a misframed packet was touched");
        }
    }
    // Every branch was really exercised.
    assert!(
        by_path.iter().all(|&n| n > 4_000),
        "rewrites per path {by_path:?}"
    );
    assert!(
        wrapped.iter().all(|&n| n > 1_000),
        "wrapped seq / ack {wrapped:?}"
    );
    assert!(steps > 30_000, "steps {steps}");
    assert!(refused > 1_000, "second encapsulations refused {refused}");
    assert!(clones_checked > 10_000, "clones checked {clones_checked}");
}

/// A segment encapsulated once has no room for a second IP-in-IP header:
/// the router refuses to wrap one again and counts it as a drop, and
/// nothing truncated goes on the wire.
#[test]
fn a_segment_encapsulated_twice_is_refused() {
    let client = Endpoint::new(Addr::new(172, 16, 0, 1), 40_000);
    let vip = Endpoint::new(Addr::new(100, 0, 0, 1), 80);
    let (router_addr, mux_addr) = (Addr::new(10, 0, 3, 1), Addr::new(10, 0, 2, 1));
    let once = tagged_segment(client, vip, 1, 100)
        .into_packet(client, vip)
        .encapsulate(client.addr, vip.addr)
        .expect("room for one");
    assert_eq!(once.head.room(), 0);
    assert_eq!(once.clone().encapsulate(router_addr, mux_addr), None);
    let mut eng = Engine::with_topology(3, Topology::uniform(SimTime::from_micros(100)));
    let router = eng.add_node(
        "router",
        router_addr,
        Zone::Dc,
        Box::new(EdgeRouter::new(router_addr, vec![mux_addr])),
    );
    eng.add_addr(router, vip.addr);
    let mux = eng.add_node(
        "mux",
        mux_addr,
        Zone::Dc,
        Box::new(Sink { received: vec![] }),
    );
    let from = eng.add_node(
        "client",
        client.addr,
        Zone::External,
        Box::new(Sink { received: vec![] }),
    );
    eng.with_node_ctx::<Sink>(from, |_, ctx| ctx.send(once));
    eng.run_for(SimTime::from_millis(1));
    let r = eng.node_ref::<EdgeRouter>(router);
    assert_eq!((r.relayed, r.dropped), (0, 1));
    assert!(eng.node_ref::<Sink>(mux).received.is_empty());
}

/// What a packet in flight costs the engine: the packet, and a wheel
/// item around it (whose slab entry adds a fixed 32 bytes of deadline,
/// sequence number, id and list links).
#[test]
fn in_flight_footprint_is_bounded() {
    assert!(std::mem::size_of::<Packet>() <= 80);
    assert!(std::mem::size_of::<WheelItem>() <= 88);
}

// ----------------------------------------------------------------------
// Link duplication in front of router → mux → instance
// ----------------------------------------------------------------------

struct Sink {
    received: Vec<Packet>,
}
impl Node for Sink {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, pkt: Packet) {
        self.received.push(pkt);
    }
}

fn tagged_segment(from: Endpoint, to: Endpoint, tag: u32, len: usize) -> Segment {
    let mut body = vec![0xB5u8; len];
    body[..4].copy_from_slice(&tag.to_be_bytes());
    Segment {
        src_port: from.port,
        dst_port: to.port,
        seq: SeqNum::new(tag.wrapping_mul(1460)),
        ack: SeqNum::new(7),
        flags: Flags::ACK,
        window: 1 << 20,
        payload: Bytes::from(body),
    }
}

#[test]
fn duplicated_packets_both_arrive_intact() {
    const N: u32 = 50;
    let client = Endpoint::new(Addr::new(172, 16, 0, 1), 40_000);
    let vip = Endpoint::new(Addr::new(100, 0, 0, 1), 80);
    let (router_addr, mux_addr, inst_addr) = (
        Addr::new(10, 0, 3, 1),
        Addr::new(10, 0, 2, 1),
        Addr::new(10, 0, 0, 1),
    );
    struct Blast {
        me: Endpoint,
        vip: Endpoint,
    }
    impl Node for Blast {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for tag in 0..N {
                ctx.send(
                    tagged_segment(self.me, self.vip, tag, 1460).into_packet(self.me, self.vip),
                );
            }
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: Packet) {}
    }
    // Every packet entering the datacenter is delivered twice; the two
    // deliveries are clones, i.e. one shared buffer.
    let mut topo = Topology::uniform(SimTime::from_micros(100));
    topo.set_link(
        Zone::External,
        Zone::Dc,
        LinkSpec {
            duplicate: 1.0,
            ..LinkSpec::with_latency(SimTime::from_micros(100))
        },
    );
    let mut eng = Engine::with_topology(9, topo);
    let router = eng.add_node(
        "router",
        router_addr,
        Zone::Dc,
        Box::new(EdgeRouter::new(router_addr, vec![mux_addr])),
    );
    eng.add_addr(router, vip.addr);
    let mut mux = Mux::new(mux_addr);
    mux.set_vip_map(vip.addr, vec![inst_addr], 1);
    eng.add_node("mux", mux_addr, Zone::Dc, Box::new(mux));
    let sink = eng.add_node(
        "inst",
        inst_addr,
        Zone::Dc,
        Box::new(Sink { received: vec![] }),
    );
    eng.add_node(
        "client",
        client.addr,
        Zone::External,
        Box::new(Blast { me: client, vip }),
    );
    eng.run_for(SimTime::from_millis(10));

    let got = &eng.node_ref::<Sink>(sink).received;
    assert_eq!(
        got.len() as u32,
        2 * N,
        "both copies of every packet arrive"
    );
    let mut per_tag: BTreeMap<u32, Vec<*const u8>> = BTreeMap::new();
    for outer in got {
        let inner = outer.clone().decapsulate().expect("mux encapsulated");
        assert_eq!(inner.head.len(), SEGMENT_HEADER_LEN);
        let tag = u32::from_be_bytes(inner.body[..4].try_into().unwrap());
        let original = ref_packet(&tagged_segment(client, vip, tag, 1460), client, vip);
        assert_eq!(
            outer,
            &ref_encapsulate(&original, mux_addr, inst_addr),
            "tag {tag}"
        );
        per_tag.entry(tag).or_default().push(outer.body.as_ptr());
    }
    // Two copies of every packet, over one body.
    assert!(per_tag.len() as u32 == N);
    assert!(per_tag.values().all(|at| at.len() == 2 && at[0] == at[1]));
}

// ----------------------------------------------------------------------
// Pointer identity through the real testbed
// ----------------------------------------------------------------------

const REQUEST: &[u8] = b"GET / HTTP/1.0\r\n\r\n";
const ROUNDS: u32 = 48;
const SYN_RETRY: u32 = 0x5E7;

/// A raw endpoint: the handshake by hand, then a ping-pong of tagged
/// full-size segments. It records where the data of every tagged
/// segment it emitted lived (`sent`) and where the data of every
/// tagged segment it received lives (`seen`). It keeps no handle on
/// anything it sent — a retained clone would (correctly) force a copy.
struct Peer {
    me: Endpoint,
    /// The client's target; `None` for the backend, which answers.
    vip: Option<Endpoint>,
    isn: SeqNum,
    next_seq: SeqNum,
    connected: bool,
    tags: u32,
    sent: BTreeMap<u32, usize>,
    seen: BTreeMap<u32, usize>,
}

impl Peer {
    fn new(me: Endpoint, vip: Option<Endpoint>, isn: u32, tag_base: u32) -> Peer {
        Peer {
            me,
            vip,
            isn: SeqNum::new(isn),
            next_seq: SeqNum::new(isn),
            connected: false,
            tags: tag_base,
            sent: BTreeMap::new(),
            seen: BTreeMap::new(),
        }
    }

    fn emit(&mut self, ctx: &mut Ctx<'_>, to: Endpoint, ack: SeqNum, flags: Flags, payload: Bytes) {
        let seg = Segment {
            src_port: self.me.port,
            dst_port: to.port,
            seq: self.next_seq,
            ack,
            flags,
            window: 1 << 20,
            payload,
        };
        self.next_seq = seg.seq_end();
        ctx.send(seg.into_packet(self.me, to));
    }

    fn emit_tagged(&mut self, ctx: &mut Ctx<'_>, to: Endpoint, ack: SeqNum) {
        let tag = self.tags;
        self.tags += 1;
        let mut seg = tagged_segment(self.me, to, tag, 1460);
        (seg.seq, seg.ack) = (self.next_seq, ack);
        self.next_seq = seg.seq_end();
        let pkt = seg.into_packet(self.me, to);
        self.sent.insert(tag, pkt.body.as_ptr() as usize);
        ctx.send(pkt);
    }
}

impl Node for Peer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.vip.is_some() {
            // After policy installation and the controller's VIP-map pushes.
            ctx.set_timer(SimTime::from_millis(50), TimerToken::new(SYN_RETRY));
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerToken) {
        let Some(vip) = self.vip else { return };
        if !self.connected {
            self.next_seq = self.isn;
            self.emit(ctx, vip, SeqNum::new(0), Flags::SYN, Bytes::new());
            ctx.set_timer(SimTime::from_millis(100), TimerToken::new(SYN_RETRY));
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let from = pkt.src;
        let Some(seg) = Segment::from_packet(pkt) else {
            return;
        };
        let to = self.vip.unwrap_or(from);
        if seg.flags.syn {
            if seg.flags.ack && !self.connected {
                // Client: the SYN-ACK. Ride the request on the ACK.
                self.connected = true;
                self.emit(
                    ctx,
                    to,
                    seg.seq + 1,
                    Flags::ACK,
                    Bytes::from_static(REQUEST),
                );
            } else if !seg.flags.ack {
                // Backend: the instance's SYN (client ISN, client port).
                self.next_seq = self.isn;
                self.emit(ctx, to, seg.seq + 1, Flags::SYN_ACK, Bytes::new());
            }
            return;
        }
        if seg.payload.is_empty() {
            return;
        }
        if &seg.payload[..] == REQUEST {
            // Backend: the forwarded request opens the ping-pong.
            self.emit_tagged(ctx, to, seg.seq_end());
            return;
        }
        let tag = u32::from_be_bytes(seg.payload[..4].try_into().unwrap());
        self.seen.insert(tag, seg.payload.as_ptr() as usize);
        if self.sent.len() < ROUNDS as usize {
            self.emit_tagged(ctx, to, seg.seq_end());
        }
    }
}

struct Identity {
    /// Tagged segments each way whose payload address survived the trip.
    client_to_backend: usize,
    backend_to_client: usize,
    tunneled: u64,
    spliced: u64,
}

/// One ping-pong through a one-instance testbed; `splice` turns the mux
/// fast path on. A spliced run also mirrors the request to a second
/// backend that never answers: a mirrored flow is not inspected for
/// further HTTP/1.1 requests, so once the answering backend settles the
/// race both legs are spliced in full, the client's data included.
fn run_ping_pong(splice: bool) -> Identity {
    let yoda = YodaConfig {
        splice,
        ..YodaConfig::default()
    };
    let mut tb = Testbed::build(TestbedConfig {
        seed: 0x1D,
        num_instances: 1,
        num_stores: 2,
        num_backends: 1,
        num_muxes: 2,
        num_services: 1,
        pages_per_site: 4,
        yoda,
        ..TestbedConfig::default()
    });
    let vip = tb.vips[0];
    let backend_ep = Endpoint::new(Addr::new(10, 1, 0, 99), 80);
    let client_ep = Endpoint::new(Addr::new(172, 16, 9, 9), 42_001);
    let action = if splice {
        let silent = Endpoint::new(Addr::new(10, 1, 0, 98), 80);
        format!("mirror {backend_ep} {silent}")
    } else {
        format!("split {backend_ep}=1")
    };
    tb.set_policy_at(
        vip,
        &format!("name=pp priority=1 match * action={action}"),
        SimTime::from_millis(1),
    );
    let backend = tb.engine.add_node(
        "raw-backend",
        backend_ep.addr,
        Zone::Dc,
        Box::new(Peer::new(backend_ep, None, 9_000, 0x2000_0000)),
    );
    let client = tb.engine.add_node(
        "raw-client",
        client_ep.addr,
        Zone::Dc,
        Box::new(Peer::new(client_ep, Some(vip), 5_000, 0x1000_0000)),
    );
    tb.engine.run_for(SimTime::from_millis(500));
    let (c, b) = (
        tb.engine.node_ref::<Peer>(client),
        tb.engine.node_ref::<Peer>(backend),
    );
    assert_eq!(c.sent.len() as u32, ROUNDS, "client finished its rounds");
    assert_eq!(b.sent.len() as u32, ROUNDS, "backend finished its rounds");
    // Every tagged segment arrived ...
    assert_eq!(
        c.sent.keys().collect::<Vec<_>>(),
        b.seen.keys().collect::<Vec<_>>()
    );
    assert_eq!(
        b.sent.keys().collect::<Vec<_>>(),
        c.seen.keys().collect::<Vec<_>>()
    );
    // ... and count those that arrived in the buffer they left in.
    let same = |sent: &BTreeMap<u32, usize>, seen: &BTreeMap<u32, usize>| {
        sent.iter()
            .filter(|(tag, at)| seen.get(tag) == Some(at))
            .count()
    };
    Identity {
        client_to_backend: same(&c.sent, &b.seen),
        backend_to_client: same(&b.sent, &c.seen),
        tunneled: tb
            .engine
            .node_ref::<YodaInstance>(tb.instances[0])
            .tunneled_packets,
        spliced: tb
            .muxes
            .iter()
            .map(|&m| tb.engine.node_ref::<Mux>(m).spliced)
            .sum(),
    }
}

/// backend → router → mux → instance → client (tunnel, DSR) and
/// client → router → mux → instance → mux → backend (SNAT): four and five
/// hops, header rewrites at every one, and the payload never moves.
#[test]
fn tunneled_payload_is_never_copied() {
    let id = run_ping_pong(false);
    assert_eq!(id.spliced, 0);
    assert!(
        id.tunneled >= 2 * ROUNDS as u64,
        "went through the instance: {}",
        id.tunneled
    );
    assert_eq!(
        id.backend_to_client, ROUNDS as usize,
        "tunnel path copied a payload"
    );
    assert_eq!(
        id.client_to_backend, ROUNDS as usize,
        "SNAT path copied a payload"
    );
}

/// With splicing on, steady-state packets turn around at the mux
/// (decapsulate, patch ports/seq/ack in place, forward natively).
#[test]
fn spliced_payload_is_never_copied() {
    let id = run_ping_pong(true);
    assert!(
        id.spliced >= 2 * (ROUNDS as u64 - 4),
        "rode the fast path: {}",
        id.spliced
    );
    assert_eq!(
        id.backend_to_client, ROUNDS as usize,
        "splice path copied a payload"
    );
    assert_eq!(
        id.client_to_backend, ROUNDS as usize,
        "splice path copied a payload"
    );
}
