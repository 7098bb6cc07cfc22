//! Randomized property tests on the core invariants.
//!
//! These were originally `proptest` strategies; they now run on the
//! in-tree deterministic PRNG so the workspace builds with no registry
//! dependencies and every failure replays from the fixed seed below.

use bytes::Bytes;
use yoda::assign::{solve_greedy, AssignInput, Assignment, GreedyConfig, VipSpec};
use yoda::core::flowstate::{FlowRecord, SynRecord};
use yoda::core::isn::syn_ack_isn;
use yoda::core::rules::glob_match;
use yoda::netsim::rng::Rng;
use yoda::netsim::{Addr, Endpoint, Histogram, Packet, PROTO_TCP};
use yoda::tcp::{Flags, Segment, SeqNum};
use yoda::tcpstore::HashRing;
use yoda::trace::{Trace, TraceConfig};

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

/// TCP segments round-trip, including through packet encapsulation.
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
        let decoded = Segment::decode(seg.clone().encode());
        assert_eq!(decoded.as_ref(), Some(&seg));
        // Through IP-in-IP encapsulation as well.
        let src = Endpoint::new(Addr::new(1, 2, 3, 4), src_port);
        let dst = Endpoint::new(Addr::new(5, 6, 7, 8), dst_port);
        let pkt = Packet::new(src, dst, PROTO_TCP, seg.clone().encode());
        let outer = pkt.encapsulate(Addr::new(9, 9, 9, 9), Addr::new(8, 8, 8, 8));
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
    for _ in 0..CASES * 8 {
        let k: u64 = rng.next_u64();
        let kb = k.to_be_bytes();
        let reps = ring.replicas(&kb, 2);
        assert_eq!(reps.len(), 2);
        assert_ne!(reps[0], reps[1]);
        assert_eq!(&reps, &ring.replicas(&kb, 2));
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
        if let Ok(out) = solve_greedy(&input, &GreedyConfig::default()) {
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

/// Trace CSV round-trips its structure for arbitrary sizes.
#[test]
fn trace_csv_roundtrip() {
    let mut rng = rng_for("trace_csv_roundtrip");
    for _ in 0..16 {
        let t = Trace::generate(&TraceConfig {
            num_vips: rng.gen_range(1..20usize),
            bins: rng.gen_range(1..30usize),
            seed: rng.next_u64(),
            ..TraceConfig::default()
        });
        let parsed = Trace::from_csv(&t.to_csv()).expect("parses");
        assert_eq!(parsed.vips.len(), t.vips.len());
        for (a, b) in t.vips.iter().zip(&parsed.vips) {
            assert_eq!(a.rules, b.rules);
            assert_eq!(a.traffic.len(), b.traffic.len());
        }
    }
}

/// Simplex feasibility: every solution the LP solver returns satisfies
/// the constraints it was given (within tolerance), for random bounded
/// programs.
#[test]
fn simplex_solutions_are_feasible() {
    use yoda::assign::simplex::Cmp;
    use yoda::assign::LinearProgram;
    let mut rng = rng_for("simplex_solutions_are_feasible");
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..5);
        let c: Vec<f64> = (0..4).map(|_| rng.gen_range(-3.0f64..3.0)).collect();
        let mut lp = LinearProgram::new(n);
        lp.set_objective(&c[..n]);
        // Box the variables so the program is never unbounded.
        for v in 0..n {
            let mut row = vec![0.0; n];
            row[v] = 1.0;
            lp.add_constraint(&row, Cmp::Le, 50.0);
        }
        let mut cons = Vec::new();
        for _ in 0..rng.gen_range(1usize..6) {
            let coeffs: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0f64..5.0)).collect();
            let cmp = if rng.gen_bool(0.5) { Cmp::Le } else { Cmp::Ge };
            let rhs = rng.gen_range(0.5f64..20.0);
            lp.add_constraint(&coeffs, cmp, rhs);
            cons.push((coeffs, cmp, rhs));
        }
        match lp.solve() {
            Ok(sol) => {
                for (coeffs, cmp, rhs) in cons {
                    let lhs: f64 = coeffs.iter().zip(&sol.x).map(|(a, x)| a * x).sum();
                    match cmp {
                        Cmp::Le => assert!(lhs <= rhs + 1e-6, "{lhs} </= {rhs}"),
                        Cmp::Ge => assert!(lhs >= rhs - 1e-6, "{lhs} >/= {rhs}"),
                        Cmp::Eq => assert!((lhs - rhs).abs() < 1e-6),
                    }
                }
                for &x in &sol.x {
                    assert!(x >= -1e-9, "negative variable {x}");
                }
            }
            Err(_) => {} // Infeasible/limit: nothing to check.
        }
    }
}
