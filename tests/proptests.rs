//! Randomized property tests on the core invariants.
//!
//! These were originally `proptest` strategies; they now run on the
//! in-tree deterministic PRNG so the workspace builds with no registry
//! dependencies and every failure replays from the fixed seed below.

use bytes::Bytes;
use yoda::assign::{solve_greedy, AssignInput, Assignment, VipSpec};
use yoda::core::glob_match;
use yoda::core::syn_ack_isn;
use yoda::core::{FlowRecord, SynRecord};
use yoda::netsim::Rng;
use yoda::netsim::{Addr, Endpoint, Histogram, Packet, HEAD_CAP, PROTO_TCP};
use yoda::tcp::{Flags, Segment, SeqNum, SEGMENT_HEADER_LEN};
use yoda::tcpstore::HashRing;

const CASES: usize = 256;

fn rng_for(test: &str) -> Rng {
    // Per-test stream: same cases every run, different cases per test.
    let mut seed = 0xFEED_F00Du64;
    for b in test.bytes() {
        seed = seed.wrapping_mul(31).wrapping_add(b as u64);
    }
    Rng::seed_from_u64(seed)
}

fn arb_endpoint(rng: &mut Rng) -> Endpoint {
    Endpoint::new(Addr::from_u32(rng.next_u32()), rng.gen_range(0..=u16::MAX))
}

/// Sequence translation (Figure 4) is a bijection: applying the Y−S
/// offset and then its inverse is the identity for any seq number,
/// including across the 2³² wrap.
#[test]
fn seq_translation_bijective() {
    let mut rng = rng_for("seq_translation_bijective");
    for _ in 0..CASES {
        let yn = SeqNum::new(rng.next_u32());
        let sn = SeqNum::new(rng.next_u32());
        let delta = yn.offset_from(sn);
        let inv = sn.offset_from(yn);
        let xx = SeqNum::new(rng.next_u32());
        assert_eq!(xx.translate(delta).translate(inv), xx);
        // The offsets are negatives of each other mod 2^32.
        assert_eq!(delta.wrapping_add(inv), 0);
    }
}

/// Modular comparison is a strict total order on any window < 2^31.
#[test]
fn seq_ordering_consistent() {
    let mut rng = rng_for("seq_ordering_consistent");
    for _ in 0..CASES {
        let x = SeqNum::new(rng.next_u32());
        let d = rng.gen_range(1u32..(1 << 30));
        let y = x + d;
        assert!(x.lt(y));
        assert!(!y.lt(x));
        assert!(x.in_range(x, y));
        assert!(!y.in_range(x, y));
        assert_eq!(y - x, d);
    }
}

/// Flow-state records round-trip through their wire encoding.
#[test]
fn flow_record_roundtrip() {
    let mut rng = rng_for("flow_record_roundtrip");
    for _ in 0..CASES {
        let client = arb_endpoint(&mut rng);
        let vip = arb_endpoint(&mut rng);
        let backend = arb_endpoint(&mut rng);
        let c_isn = rng.next_u32();
        let s_isn = rng.next_u32();
        let rec = FlowRecord {
            client,
            vip,
            backend,
            client_isn: SeqNum::new(c_isn),
            server_isn: SeqNum::new(s_isn),
        };
        assert_eq!(FlowRecord::decode(&rec.encode()), Some(rec));
        let syn = SynRecord {
            client,
            vip,
            client_isn: SeqNum::new(c_isn),
        };
        assert_eq!(SynRecord::decode(&syn.encode()), Some(syn));
    }
}

/// TCP segments round-trip through their packet, including through
/// encapsulation, and the packet's bytes re-split between head and body
/// at a random head length decode only at the canonical split (the header
/// alone in the head).
#[test]
fn segment_roundtrip() {
    let mut rng = rng_for("segment_roundtrip");
    for _ in 0..CASES {
        let src_port = rng.gen_range(0..=u16::MAX);
        let dst_port = rng.gen_range(0..=u16::MAX);
        let flag_bits: u8 = rng.gen_range(0u8..32);
        let payload: Vec<u8> = (0..rng.gen_range(0..2000usize))
            .map(|_| rng.gen_range(0..=u8::MAX))
            .collect();
        let seg = Segment {
            src_port,
            dst_port,
            seq: SeqNum::new(rng.next_u32()),
            ack: SeqNum::new(rng.next_u32()),
            flags: Flags {
                syn: flag_bits & 1 != 0,
                ack: flag_bits & 2 != 0,
                fin: flag_bits & 4 != 0,
                rst: flag_bits & 8 != 0,
                psh: flag_bits & 16 != 0,
            },
            window: rng.next_u32(),
            payload: Bytes::from(payload),
        };
        let src = Endpoint::new(Addr::new(1, 2, 3, 4), src_port);
        let dst = Endpoint::new(Addr::new(5, 6, 7, 8), dst_port);
        let pkt = seg.clone().into_packet(src, dst);
        assert_eq!(Segment::from_packet(pkt.clone()).as_ref(), Some(&seg));
        // Re-split at any head length.
        let wire = [&pkt.head[..], &pkt.body[..]].concat();
        let at = match rng.gen_range(0u8..3) {
            0 => SEGMENT_HEADER_LEN,
            _ => rng.gen_range(0..=wire.len().min(HEAD_CAP)),
        };
        let mut resplit = Packet::new(src, dst, PROTO_TCP, Bytes::copy_from_slice(&wire[at..]));
        assert!(resplit.head.push(&wire[..at]));
        let decoded = Segment::from_packet(resplit);
        assert_eq!(decoded.is_some(), at == SEGMENT_HEADER_LEN, "split at {at}");
        assert!(decoded.is_none_or(|d| d == seg));
        // Through IP-in-IP encapsulation as well, once: there is no room
        // for a second.
        let outer = pkt
            .encapsulate(Addr::new(9, 9, 9, 9), Addr::new(8, 8, 8, 8))
            .expect("room for one");
        assert_eq!(
            outer.clone().encapsulate(Addr::new(7, 7, 7, 7), src.addr),
            None
        );
        let inner = outer.decapsulate().expect("decaps");
        assert_eq!(Segment::from_packet(inner), Some(seg));
    }
}

/// The deterministic SYN-ACK ISN is a pure function of the connection
/// endpoints (any instance regenerates it identically).
#[test]
fn isn_deterministic() {
    let mut rng = rng_for("isn_deterministic");
    for _ in 0..CASES {
        let client = arb_endpoint(&mut rng);
        let vip = arb_endpoint(&mut rng);
        assert_eq!(syn_ack_isn(client, vip), syn_ack_isn(client, vip));
    }
}

/// Glob matching agrees with a simple recursive reference implementation.
#[test]
fn glob_matches_reference() {
    fn reference(p: &[char], t: &[char]) -> bool {
        match (p.first(), t.first()) {
            (None, None) => true,
            (Some('*'), _) => reference(&p[1..], t) || (!t.is_empty() && reference(p, &t[1..])),
            (Some('?'), Some(_)) => reference(&p[1..], &t[1..]),
            (Some(pc), Some(tc)) if pc == tc => reference(&p[1..], &t[1..]),
            _ => false,
        }
    }
    let mut rng = rng_for("glob_matches_reference");
    const PAT_ALPHABET: [char; 4] = ['a', 'b', '*', '?'];
    const TXT_ALPHABET: [char; 2] = ['a', 'b'];
    for _ in 0..CASES * 4 {
        let pattern: String = (0..rng.gen_range(0..=8usize))
            .map(|_| PAT_ALPHABET[rng.gen_range(0..PAT_ALPHABET.len())])
            .collect();
        let text: String = (0..rng.gen_range(0..=8usize))
            .map(|_| TXT_ALPHABET[rng.gen_range(0..TXT_ALPHABET.len())])
            .collect();
        let pc: Vec<char> = pattern.chars().collect();
        let tc: Vec<char> = text.chars().collect();
        assert_eq!(
            glob_match(&pattern, &text),
            reference(&pc, &tc),
            "pattern={pattern:?} text={text:?}"
        );
    }
}

/// Consistent hashing: replicas are distinct, deterministic, and removing
/// one server never remaps a key whose replicas all survive.
#[test]
fn hashring_stability() {
    let mut rng = rng_for("hashring_stability");
    let servers: Vec<Addr> = (1..=8).map(|i| Addr::new(10, 0, 1, i)).collect();
    let ring = HashRing::new(&servers, 64);
    let removed = servers[3];
    let survivors: Vec<Addr> = servers.iter().copied().filter(|&s| s != removed).collect();
    let ring2 = HashRing::new(&survivors, 64);
    let (mut reps, mut again) = (Vec::new(), Vec::new());
    for _ in 0..CASES * 8 {
        let k: u64 = rng.next_u64();
        let kb = k.to_be_bytes();
        ring.replicas(&kb, 2, &mut reps);
        assert_eq!(reps.len(), 2);
        assert_ne!(reps[0], reps[1]);
        ring.replicas(&kb, 2, &mut again);
        assert_eq!(reps, again);
        if !reps.contains(&removed) {
            // Primary placement survives the unrelated removal.
            assert_eq!(ring2.primary(&kb), ring.primary(&kb));
        }
    }
}

/// The greedy assignment always satisfies every Figure 7 constraint it
/// claims to (the validator is the oracle).
#[test]
fn greedy_output_always_valid() {
    let mut rng = rng_for("greedy_output_always_valid");
    for _ in 0..64 {
        let n = rng.gen_range(1..40usize);
        let vips: Vec<VipSpec> = (0..n)
            .map(|_| {
                let traffic = rng.gen_range(1.0f64..900.0);
                VipSpec {
                    traffic,
                    rules: rng.gen_range(10u64..400),
                    replicas: rng.gen_range(1usize..4),
                    oversub: rng.gen_range(0.0f64..0.6),
                    connections: traffic,
                }
            })
            .collect();
        let migration_limit = if rng.gen_bool(0.5) {
            Some(rng.gen_range(0.05f64..0.5))
        } else {
            None
        };
        let input = AssignInput {
            vips,
            max_instances: 150,
            traffic_capacity: 1_000.0,
            rule_capacity: 2_000,
            migration_limit,
            previous: None,
        };
        if let Ok(out) = solve_greedy(&input, None) {
            assert!(input.validate(&out.assignment).is_ok());
            assert!(out.assignment.num_instances() >= input.lower_bound());
        }
    }
}

/// Migration accounting: moving from an assignment to itself migrates
/// nothing; to a disjoint one migrates everything.
#[test]
fn migration_fraction_bounds() {
    for n in 1usize..20 {
        let vips: Vec<VipSpec> = (0..n)
            .map(|i| VipSpec {
                traffic: 10.0 + i as f64,
                rules: 10,
                replicas: 1,
                oversub: 0.0,
                connections: 5.0 + i as f64,
            })
            .collect();
        let a = Assignment::new((0..n).map(|i| vec![i]).collect());
        let b = Assignment::new((0..n).map(|i| vec![i + n]).collect());
        assert_eq!(a.migrated_fraction(&a, &vips), 0.0);
        assert!((a.migrated_fraction(&b, &vips) - 1.0).abs() < 1e-9);
    }
}

/// Histogram percentiles are order statistics: bounded by min/max and
/// monotone in p.
#[test]
fn histogram_percentiles_monotone() {
    let mut rng = rng_for("histogram_percentiles_monotone");
    for _ in 0..64 {
        let n = rng.gen_range(1..200usize);
        let mut h = Histogram::new();
        for _ in 0..n {
            h.record(rng.gen_range(0.0f64..1e6));
        }
        let lo = h.min().expect("n >= 1");
        let hi = h.max().expect("n >= 1");
        let mut prev = lo;
        for p in [10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = h.percentile(p).expect("n >= 1");
            assert!(v >= lo && v <= hi);
            assert!(v >= prev);
            prev = v;
        }
    }
}
