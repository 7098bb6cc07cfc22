//! The forwarding tier's buffer discipline (DESIGN.md "Byte path"): a
//! packet's bytes are written once, by the sending TCP endpoint, and every
//! hop after that — router, mux, instance — rewrites headers in place, in
//! the room the sender reserved and each decapsulation frees again.
//!
//! Three angles:
//!
//! * a seeded differential test of the consuming codec against the old
//!   copy-based one (kept here, in the test, only): same bytes out for
//!   unique, shared and room-less buffers, and a retained clone never
//!   sees a mutation;
//! * link duplication in front of router → mux → instance: both copies
//!   share one buffer on arrival and both come out byte-identical;
//! * pointer identity through the real testbed: the payload address the
//!   receiving endpoint sees is the address the sender's packet had, on
//!   the tunnel, SNAT and splice paths.

use std::collections::BTreeMap;

use bytes::Bytes;
use yoda::core::testbed::{Testbed, TestbedConfig};
use yoda::core::{YodaConfig, YodaInstance};
use yoda::l4lb::{EdgeRouter, Mux};
use yoda::netsim::{
    Addr, Ctx, Endpoint, Engine, LinkSpec, Node, Packet, Rng, SimTime, TimerToken, Topology, Zone,
    IPIP_HEADER_LEN, PROTO_IPIP, PROTO_TCP,
};
use yoda::tcp::{Flags, Segment, SeqNum, SEGMENT_HEADER_LEN};

// ----------------------------------------------------------------------
// The reference: the copy-based codec the product code used to have.
// Every call serialises into a fresh, exactly-sized buffer.
// ----------------------------------------------------------------------

fn ref_encapsulate(inner: &Packet, outer_src: Addr, outer_dst: Addr) -> Packet {
    let mut buf = Vec::with_capacity(IPIP_HEADER_LEN + inner.payload.len());
    buf.extend_from_slice(&inner.src.to_bytes());
    buf.extend_from_slice(&inner.dst.to_bytes());
    buf.push(inner.protocol);
    buf.extend_from_slice(&(inner.payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(&inner.payload);
    Packet::new(
        Endpoint::new(outer_src, 0),
        Endpoint::new(outer_dst, 0),
        PROTO_IPIP,
        Bytes::from(buf),
    )
}

fn ref_decapsulate(outer: &Packet) -> Packet {
    assert_eq!(outer.protocol, PROTO_IPIP);
    let b = &outer.payload;
    let len = u32::from_be_bytes(b[13..17].try_into().unwrap()) as usize;
    assert_eq!(b.len(), IPIP_HEADER_LEN + len);
    Packet::new(
        Endpoint::from_bytes(b[0..6].try_into().unwrap()),
        Endpoint::from_bytes(b[6..12].try_into().unwrap()),
        b[12],
        Bytes::copy_from_slice(&b[IPIP_HEADER_LEN..]),
    )
}

fn ref_segment_bytes(s: &Segment) -> Bytes {
    let mut buf = Vec::with_capacity(SEGMENT_HEADER_LEN + s.payload.len());
    buf.extend_from_slice(&s.src_port.to_be_bytes());
    buf.extend_from_slice(&s.dst_port.to_be_bytes());
    buf.extend_from_slice(&s.seq.raw().to_be_bytes());
    buf.extend_from_slice(&s.ack.raw().to_be_bytes());
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
    buf.extend_from_slice(&s.payload);
    Bytes::from(buf)
}

/// Figure 4 on the reference side: parse the 21-byte header out of a copy,
/// translate, serialise afresh.
fn ref_rewrite(pkt: &Packet, t: &Translate) -> Packet {
    let b = &pkt.payload;
    let be32 = |at: usize| u32::from_be_bytes(b[at..at + 4].try_into().unwrap());
    let flags = b[12];
    let seg = Segment {
        src_port: t.src.port,
        dst_port: t.dst.port,
        seq: SeqNum::new(be32(4).wrapping_add(t.seq_add)),
        ack: SeqNum::new(if flags & 2 != 0 {
            be32(8).wrapping_sub(t.ack_sub)
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
        payload: Bytes::copy_from_slice(&b[SEGMENT_HEADER_LEN..]),
    };
    Packet::new(t.src, t.dst, PROTO_TCP, ref_segment_bytes(&seg))
}

/// What `Tunnel::forward` does to a segment, as data.
struct Translate {
    src: Endpoint,
    dst: Endpoint,
    seq_add: u32,
    ack_sub: u32,
}

/// The product side of [`ref_rewrite`]: consuming decode, translate,
/// consuming encode.
fn rewrite(pkt: Packet, t: &Translate) -> Packet {
    let mut seg = Segment::from_packet(pkt).expect("a TCP packet the test built");
    seg.src_port = t.src.port;
    seg.dst_port = t.dst.port;
    seg.seq = SeqNum::new(seg.seq.raw().wrapping_add(t.seq_add));
    if seg.flags.ack {
        seg.ack = SeqNum::new(seg.ack.raw().wrapping_sub(t.ack_sub));
    }
    seg.into_packet(t.src, t.dst)
}

fn rand_endpoint(rng: &mut Rng) -> Endpoint {
    Endpoint::new(Addr::from_u32(rng.next_u32()), rng.gen_range(0..=u16::MAX))
}

fn rand_segment(rng: &mut Rng, src: Endpoint, dst: Endpoint) -> Segment {
    let bits: u8 = rng.gen_range(0u8..32);
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

/// 12 000 seeded chains of encapsulate / decapsulate / segment rewrite,
/// the product codec against the reference one. Buffers start in each of
/// the three shapes that matter — sender-shaped (unique, one header of
/// room), room-less (hand-built) and shared (a clone is alive) — and
/// clones are taken and dropped along the way. After every step the two
/// packets must be equal field for field and byte for byte, and every
/// clone ever retained must still read what it read when it was taken.
#[test]
fn consuming_codec_matches_copying_codec() {
    const CASES: u64 = 12_000;
    let (mut in_place, mut copied, mut copied_under_clone) = (0u64, 0u64, 0u64);
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xF0_4A4D ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let (src, dst) = (rand_endpoint(&mut rng), rand_endpoint(&mut rng));
        let seg = rand_segment(&mut rng, src, dst);
        let mut reference = Packet::new(src, dst, PROTO_TCP, ref_segment_bytes(&seg));
        // (clone, what it read when it was taken)
        let mut retained: Vec<(Bytes, Vec<u8>)> = Vec::new();
        let mut pkt = match rng.gen_range(0u8..3) {
            // What a TCP stack emits: its own buffer, room in front.
            0 => seg.into_packet(src, dst),
            // Hand-built: unique but no room anywhere.
            1 => Packet::new(src, dst, PROTO_TCP, Bytes::from(reference.payload.to_vec())),
            // A view into the middle of somebody else's buffer: there is
            // room in front, but those bytes belong to `whole`.
            _ => {
                let whole = Bytes::with_headroom(0, &[&[0xEE; 64], &reference.payload, b"tail"]);
                let view = whole.slice(64..64 + reference.payload.len());
                retained.push((whole.clone(), whole.to_vec()));
                Packet::new(src, dst, PROTO_TCP, view)
            }
        };
        let mut depth = 0usize;
        for _ in 0..rng.gen_range(1..10usize) {
            if rng.gen_range(0u8..4) == 0 {
                retained.push((pkt.payload.clone(), pkt.payload.to_vec()));
            }
            if rng.gen_range(0u8..4) == 0 && !retained.is_empty() {
                retained.swap_remove(rng.gen_range(0..retained.len()));
            }
            let body = pkt.payload.as_ptr() as usize;
            // Does a retained clone share the packet's current buffer? A
            // live clone pins its allocation, so no other buffer can sit
            // at these addresses; and the packet's view only ever narrows
            // inside what the clone saw until a copy moves it elsewhere.
            let shared = retained.iter().any(|(c, _)| {
                let lo = c.as_ptr() as usize;
                (lo..lo + c.len()).contains(&body)
            });
            let moved = match rng.gen_range(0u8..3) {
                0 => {
                    let (a, b) = (
                        Addr::from_u32(rng.next_u32()),
                        Addr::from_u32(rng.next_u32()),
                    );
                    reference = ref_encapsulate(&reference, a, b);
                    pkt = pkt.encapsulate(a, b);
                    depth += 1;
                    pkt.payload.as_ptr() as usize + IPIP_HEADER_LEN != body
                }
                1 if depth > 0 => {
                    reference = ref_decapsulate(&reference);
                    pkt = pkt.decapsulate().expect("exactly framed");
                    depth -= 1;
                    assert_eq!(pkt.payload.as_ptr() as usize, body + IPIP_HEADER_LEN);
                    continue;
                }
                _ if depth == 0 => {
                    let t = Translate {
                        src: rand_endpoint(&mut rng),
                        dst: rand_endpoint(&mut rng),
                        seq_add: rng.next_u32(),
                        ack_sub: rng.next_u32(),
                    };
                    reference = ref_rewrite(&reference, &t);
                    pkt = rewrite(pkt, &t);
                    pkt.payload.as_ptr() as usize != body
                }
                _ => continue,
            };
            match (moved, shared) {
                (false, true) => panic!("case {case}: wrote in place under a live clone"),
                (false, false) => in_place += 1,
                (true, true) => copied_under_clone += 1,
                (true, false) => copied += 1,
            }
            assert_eq!(pkt, reference, "case {case}");
            for (clone, snapshot) in &retained {
                assert_eq!(
                    &clone[..],
                    &snapshot[..],
                    "case {case}: a clone saw a write"
                );
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
        for (clone, snapshot) in &retained {
            assert_eq!(
                &clone[..],
                &snapshot[..],
                "case {case}: a clone saw a write"
            );
        }
    }
    // Every branch was really exercised.
    assert!(in_place > 5_000, "in place {in_place}");
    assert!(copied > 1_000, "copied (no room) {copied}");
    assert!(
        copied_under_clone > 1_000,
        "copied (shared) {copied_under_clone}"
    );
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
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: TimerToken) {}
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
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: TimerToken) {}
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
    let mut per_tag: BTreeMap<u32, u32> = BTreeMap::new();
    for outer in got {
        let inner = outer.clone().decapsulate().expect("mux encapsulated");
        let tag = u32::from_be_bytes(inner.payload[SEGMENT_HEADER_LEN..][..4].try_into().unwrap());
        let original = Packet::new(
            client,
            vip,
            PROTO_TCP,
            ref_segment_bytes(&tagged_segment(client, vip, tag, 1460)),
        );
        assert_eq!(
            outer,
            &ref_encapsulate(&original, mux_addr, inst_addr),
            "tag {tag}"
        );
        *per_tag.entry(tag).or_default() += 1;
    }
    assert!(per_tag.len() as u32 == N && per_tag.values().all(|&n| n == 2));
}

// ----------------------------------------------------------------------
// Pointer identity through the real testbed
// ----------------------------------------------------------------------

const REQUEST: &[u8] = b"GET / HTTP/1.0\r\n\r\n";
const ROUNDS: u32 = 48;
const SYN_RETRY: u32 = 0x5E7;

/// A raw endpoint: the handshake by hand, then a ping-pong of tagged
/// full-size segments. It records where the payload of every tagged
/// segment it emitted lived (`sent`) and where the payload of every
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
        self.sent
            .insert(tag, pkt.payload.as_ptr() as usize + SEGMENT_HEADER_LEN);
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

fn run_ping_pong(yoda: YodaConfig) -> Identity {
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
    tb.set_policy_at(
        vip,
        &format!("name=pp priority=1 match * action=split {backend_ep}=1"),
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
    let id = run_ping_pong(YodaConfig::default());
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
    let id = run_ping_pong(YodaConfig {
        splice: true,
        http11_inspect: false,
        ..YodaConfig::default()
    });
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
