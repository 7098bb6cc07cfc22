//! Decoder robustness: every wire-format parser in the workspace must
//! reject (not panic on) arbitrary garbage, truncations, and bit flips.
//!
//! Runs on the in-tree deterministic PRNG — every run fuzzes the same
//! inputs, so a failure here always reproduces.

use bytes::Bytes;
use yoda::core::flowstate::{FlowRecord, SynRecord};
use yoda::core::rules::{Rule, RuleTable};
use yoda::core::InstanceCtrl;
use yoda::l4lb::CtrlMsg;
use yoda::netsim::rng::Rng;
use yoda::netsim::Packet;
use yoda::tcp::{Segment, Translation};
use yoda::tcpstore::{StoreRequest, StoreResponse};
use yoda::trace::Trace;

/// No decoder panics on arbitrary byte strings.
#[test]
fn decoders_never_panic_on_garbage() {
    let mut rng = Rng::seed_from_u64(0xDEC0DE);
    for _ in 0..512 {
        let len = rng.gen_range(0..600usize);
        let raw: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=u8::MAX)).collect();
        let b = Bytes::from(raw);
        let _ = Segment::decode(b.clone());
        let _ = Packet::decode(b.clone());
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
    // Exhaustive single-bit flips over the first 64 bytes (the proptest
    // original sampled this space; exhaustive is both cheaper and total).
    for flip_byte in 0usize..64 {
        for flip_bit in 0u8..8 {
            let mut enc = seg.clone().encode().to_vec();
            let idx = flip_byte % enc.len();
            enc[idx] ^= 1 << flip_bit;
            let _ = Segment::decode(Bytes::from(enc));

            let mut enc = req.encode().to_vec();
            let idx = flip_byte % enc.len();
            enc[idx] ^= 1 << flip_bit;
            let _ = StoreRequest::decode(&Bytes::from(enc));
        }
    }
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

/// Rule/DSL and trace parsers reject arbitrary text without panicking.
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
        let _ = Trace::from_csv(&text);
    }
}
