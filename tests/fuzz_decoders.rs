//! Decoder robustness: every wire-format parser in the workspace must
//! reject (not panic on) arbitrary garbage, truncations, and bit flips.
//! The packet decoders (`Segment::peek`/`from_packet`,
//! `Translation::apply_in_place`, `Packet::decapsulate`, and every
//! message decoder behind `Packet::message`) take the bytes split at every
//! point a head can hold (0..=`HEAD_CAP` bytes) between a packet's `head`
//! and its `body`, and must accept exactly the one wire shape of each
//! protocol: a TCP segment's header alone in the head and its data in the
//! body, an IP-in-IP header at the front of the head in front of whatever
//! the inner packet holds, and a message entirely in the body.
//!
//! Runs on the in-tree deterministic PRNG — every run fuzzes the same
//! inputs, so a failure here always reproduces.

use std::fmt::Debug;

use yoda::core::InstanceCtrl;
use yoda::core::{FlowRecord, SynRecord};
use yoda::core::{Rule, RuleTable};
use yoda::http::{ProbeReply, ProbeRequest};
use yoda::l4lb::CtrlMsg;
use yoda::netsim::{
    Addr, Endpoint, Head, Packet, Protocol, HEAD_CAP, IPIP_HEADER_LEN, PROTO_IPIP, PROTO_PING,
    PROTO_RPC, PROTO_TCP,
};
use yoda::netsim::{Bytes, Rng};
use yoda::tcp::{Segment, Translation, SEGMENT_HEADER_LEN};
use yoda::tcpstore::{StoreRequest, StoreResponse};

const SRC: Endpoint = Endpoint::new(Addr::new(172, 16, 0, 1), 40_000);
const DST: Endpoint = Endpoint::new(Addr::new(100, 0, 0, 1), 80);

/// `wire` split into a packet's head (its first `at` bytes, at most
/// [`HEAD_CAP`]) and body.
fn split(protocol: Protocol, wire: &[u8], at: usize) -> Packet {
    let at = at.min(HEAD_CAP).min(wire.len());
    let mut pkt = Packet::new(SRC, DST, protocol, Bytes::copy_from_slice(&wire[at..]));
    pkt.head = Head::new();
    assert!(pkt.head.push(&wire[..at]));
    pkt
}

/// Every head length a packet of `wire` can have.
fn splits(wire: &[u8]) -> std::ops::RangeInclusive<usize> {
    0..=wire.len().min(HEAD_CAP)
}

fn be32(b: &[u8], at: usize) -> Option<usize> {
    Some(u32::from_be_bytes(b.get(at..at + 4)?.try_into().ok()?) as usize)
}

/// The reference framing of a TCP packet: the header alone in the head,
/// and a body of the length it declares.
fn is_segment(pkt: &Packet) -> bool {
    pkt.protocol == PROTO_TCP
        && pkt.head.len() == SEGMENT_HEADER_LEN
        && be32(&pkt.head, 17) == Some(pkt.body.len())
}

/// The reference framing of an IP-in-IP packet: the inner header at the
/// front of the head, declaring the rest of the head and the body.
fn is_ipip(pkt: &Packet) -> bool {
    pkt.protocol == PROTO_IPIP
        && pkt.head.len() >= IPIP_HEADER_LEN
        && be32(&pkt.head, 13) == Some(pkt.head.len() + pkt.body.len() - IPIP_HEADER_LEN)
}

/// Runs every message decoder on `pkt` through [`Packet::message`]: none
/// may panic, and each accepts only a message entirely in the body —
/// exactly what it accepts of the whole wire bytes, when the head is
/// empty, and nothing otherwise.
fn check_message_decoders(pkt: &Packet) {
    let whole = Bytes::from([&pkt.head[..], &pkt.body[..]].concat());
    let canonical = pkt.head.is_empty();
    assert_eq!(pkt.message().is_some(), canonical, "message {pkt:?}");
    fn same<T: PartialEq + Debug>(pkt: &Packet, whole: &Bytes, decode: fn(&Bytes) -> Option<T>) {
        let want = decode(whole).filter(|_| pkt.head.is_empty());
        assert_eq!(pkt.message().and_then(decode), want, "{pkt:?}");
    }
    same(pkt, &whole, StoreRequest::decode);
    same(pkt, &whole, StoreResponse::decode);
    same(pkt, &whole, CtrlMsg::decode);
    same(pkt, &whole, InstanceCtrl::decode);
    same(pkt, &whole, |m| ProbeRequest::decode(m));
    same(pkt, &whole, |m| ProbeReply::decode(m));
}

/// Runs every packet decoder on `pkt`: none may panic, and each accepts
/// exactly what the reference framing accepts. A segment that decodes
/// re-encodes to itself, and `apply_in_place` rewrites it as `apply`
/// does, body untouched; one that does not is left as it was. Returns
/// whether the segment decoders accepted.
fn check_packet_decoders(pkt: &Packet, t: &Translation) -> bool {
    let seg = Segment::from_packet(pkt.clone());
    assert_eq!(seg.is_some(), is_segment(pkt), "from_packet {pkt:?}");
    assert_eq!(
        Segment::peek(pkt).is_some(),
        is_segment(pkt),
        "peek {pkt:?}"
    );
    let mut patched = pkt.clone();
    let accepted = t.apply_in_place(&mut patched);
    assert_eq!(accepted, is_segment(pkt), "apply_in_place {pkt:?}");
    match seg {
        Some(mut seg) => {
            // Flag bits the header does not define are not kept.
            let ends = (
                Endpoint::new(pkt.src.addr, seg.src_port),
                Endpoint::new(pkt.dst.addr, seg.dst_port),
            );
            let again = seg.clone().into_packet(ends.0, ends.1);
            assert_eq!(again.body, pkt.body);
            assert_eq!(Segment::from_packet(again).as_ref(), Some(&seg));
            assert_eq!(patched.body.as_ptr(), pkt.body.as_ptr(), "the body moved");
            // The patch is the patched packet's own: `pkt` is as it was.
            assert_eq!(Segment::peek(pkt), Segment::peek(&patched));
            t.apply(&mut seg);
            assert_eq!((patched.src, patched.dst), (t.src, t.dst));
            assert_eq!(Segment::from_packet(patched), Some(seg));
        }
        None => assert_eq!(&patched, pkt),
    }
    let inner = pkt.clone().decapsulate();
    assert_eq!(inner.is_some(), is_ipip(pkt), "decapsulate {pkt:?}");
    if let Some(inner) = inner {
        check_packet_decoders(&inner, t);
    }
    accepted
}

fn translation(rng: &mut Rng) -> Translation {
    let mut ep = || Endpoint::new(Addr::from_u32(rng.next_u32()), rng.gen_range(0..=u16::MAX));
    let (src, dst) = (ep(), ep());
    Translation {
        src,
        dst,
        seq_add: rng.next_u32(),
        ack_add: rng.next_u32(),
    }
}

/// No decoder panics on arbitrary byte strings.
#[test]
fn decoders_never_panic_on_garbage() {
    let mut rng = Rng::seed_from_u64(0xDEC0DE);
    for _ in 0..512 {
        let len = rng.gen_range(0..600usize);
        let raw: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=u8::MAX)).collect();
        let t = translation(&mut rng);
        for protocol in [PROTO_TCP, PROTO_IPIP, PROTO_PING, PROTO_RPC] {
            let at = rng.gen_range(splits(&raw));
            check_packet_decoders(&split(protocol, &raw, at), &t);
            check_message_decoders(&split(protocol, &raw, at));
        }
        let b = Bytes::from(raw);
        let _ = StoreRequest::decode(&b);
        let _ = StoreResponse::decode(&b);
        let _ = CtrlMsg::decode(&b);
        let _ = InstanceCtrl::decode(&b);
        let _ = SynRecord::decode(&b);
        let _ = FlowRecord::decode(&b);
    }
}

/// Bit-flipped valid messages either still decode or are rejected —
/// never a panic, and length fields cannot cause out-of-bounds reads.
/// Segments are flipped in their wire bytes, bare and encapsulated, and
/// split between head and body at every point a head can hold: only the
/// canonical split of an intact length field decodes. Messages are
/// flipped and split the same way: only an empty head decodes.
#[test]
fn decoders_survive_bit_flips() {
    let seg = Segment {
        src_port: 40000,
        dst_port: 80,
        seq: yoda::tcp::SeqNum::new(12345),
        ack: yoda::tcp::SeqNum::new(678),
        flags: yoda::tcp::Flags::ACK,
        window: 65535,
        payload: Bytes::from_static(b"GET / HTTP/1.0\r\n\r\n"),
    };
    let req = StoreRequest {
        req_id: 7,
        op: yoda::tcpstore::StoreOp::Set,
        key: Bytes::from_static(b"flow:x"),
        value: Bytes::from_static(b"value-bytes"),
    };
    let pkt = seg.clone().into_packet(SRC, DST);
    let bare = [&pkt.head[..], &pkt.body[..]].concat();
    let outer = pkt.encapsulate(SRC.addr, DST.addr).unwrap();
    let wrapped = [&outer.head[..], &outer.body[..]].concat();
    let mut rng = Rng::seed_from_u64(0xF11B);
    let t = translation(&mut rng);
    // Every split of the intact segment: the canonical one alone decodes,
    // to the segment, bare and inside its encapsulation.
    for (protocol, wire, canonical) in [
        (PROTO_TCP, &bare, SEGMENT_HEADER_LEN),
        (PROTO_IPIP, &wrapped, IPIP_HEADER_LEN + SEGMENT_HEADER_LEN),
    ] {
        for at in splits(wire) {
            let pkt = split(protocol, wire, at);
            check_packet_decoders(&pkt, &t);
            let inner = match protocol {
                PROTO_IPIP => pkt.decapsulate(),
                _ => Some(pkt),
            };
            let decoded = inner.and_then(Segment::from_packet);
            assert_eq!(decoded.is_some(), at == canonical, "split at {at}");
            assert!(decoded.is_none_or(|d| d == seg));
        }
    }
    // Exhaustive single-bit flips over the first 64 bytes (the proptest
    // original sampled this space; exhaustive is both cheaper and total).
    let mut accepted = 0;
    for flip_byte in 0usize..64 {
        for flip_bit in 0u8..8 {
            for (protocol, wire) in [(PROTO_TCP, &bare), (PROTO_IPIP, &wrapped)] {
                let mut enc = wire.clone();
                let idx = flip_byte % enc.len();
                enc[idx] ^= 1 << flip_bit;
                let at = rng.gen_range(splits(&enc));
                check_packet_decoders(&split(protocol, &enc, at), &t);
                let canonical = enc.len() - seg.payload.len();
                accepted += check_packet_decoders(&split(protocol, &enc, canonical), &t) as u32;
            }

            let mut enc = req.encode().to_vec();
            let idx = flip_byte % enc.len();
            enc[idx] ^= 1 << flip_bit;
            for at in [0, rng.gen_range(splits(&enc))] {
                check_message_decoders(&split(PROTO_RPC, &enc, at));
            }
        }
    }
    // A flip outside the length field leaves the bare segment framed.
    assert!(accepted > 300, "{accepted} flipped segments decoded");
}

/// The splice-install/revoke control variants specifically: truncations,
/// overlong payloads, and tag-prefixed garbage all decode to `None` (or a
/// valid message for benign flips) — never a panic. These messages are
/// emitted by instances at tunnel setup and parsed on the mux hot path,
/// so decoder robustness is part of the fast path's safety story.
#[test]
fn splice_ctrl_variants_reject_malformed() {
    let install = CtrlMsg::SpliceInstall {
        from: yoda::netsim::Endpoint::new(yoda::netsim::Addr::new(172, 16, 0, 9), 40_001),
        to: yoda::netsim::Endpoint::new(yoda::netsim::Addr::new(100, 0, 0, 1), 80),
        xlate: Translation {
            src: yoda::netsim::Endpoint::new(yoda::netsim::Addr::new(100, 0, 0, 1), 40_001),
            dst: yoda::netsim::Endpoint::new(yoda::netsim::Addr::new(10, 1, 0, 7), 80),
            seq_add: 0xfeed_f00d,
            ack_add: 0x0bad_cafe,
        },
        acks_only: true,
    };
    let remove = CtrlMsg::SpliceRemove {
        from: yoda::netsim::Endpoint::new(yoda::netsim::Addr::new(10, 1, 0, 7), 80),
        to: yoda::netsim::Endpoint::new(yoda::netsim::Addr::new(100, 0, 0, 1), 40_001),
    };
    for msg in [install, remove] {
        let enc = msg.encode();
        assert_eq!(CtrlMsg::decode(&enc).as_ref(), Some(&msg));
        // Every truncation point rejects.
        for cut in 0..enc.len() {
            let _ = CtrlMsg::decode(&enc.slice(0..cut));
            if cut > 0 {
                assert!(CtrlMsg::decode(&enc.slice(0..cut)).is_none(), "cut={cut}");
            }
        }
        // Overlong payloads reject (strict length check).
        for extra in 1..4usize {
            let mut long = enc.to_vec();
            long.extend(vec![0xAAu8; extra]);
            assert!(CtrlMsg::decode(&Bytes::from(long)).is_none());
        }
    }
    // Tag-prefixed garbage: correct length, arbitrary bytes — must parse
    // into *some* message or reject, never panic. (The install body is 33
    // bytes: four endpoints, two constants and the acks-only flag, which
    // reads any non-zero byte as true.)
    let mut rng = Rng::seed_from_u64(0x5EED_5EED);
    for tag in [4u8, 5u8] {
        let body_len = if tag == 4 { 33 } else { 12 };
        for _ in 0..256 {
            let mut raw = vec![tag];
            raw.extend((0..body_len).map(|_| rng.gen_range(0..=u8::MAX)));
            let decoded = CtrlMsg::decode(&Bytes::from(raw));
            assert!(decoded.is_some(), "well-sized tag {tag} body must decode");
        }
        // And at every wrong length, including empty.
        for len in (0..body_len + 4).filter(|&l| l != body_len) {
            let mut raw = vec![tag];
            raw.extend((0..len).map(|_| rng.gen_range(0..=u8::MAX)));
            assert!(CtrlMsg::decode(&Bytes::from(raw)).is_none());
        }
    }
}

/// Rule/DSL parsers reject arbitrary text without panicking.
#[test]
fn text_parsers_never_panic() {
    let mut rng = Rng::seed_from_u64(0x7E47);
    for _ in 0..512 {
        let len = rng.gen_range(0..300usize);
        let text: String = (0..len)
            .map(|_| {
                if rng.gen_bool(0.05) {
                    '\n'
                } else {
                    rng.gen_range(b' '..=b'~') as char
                }
            })
            .collect();
        let _ = Rule::parse(&text);
        let _ = RuleTable::parse(&text);
    }
}
