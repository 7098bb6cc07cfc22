//! Sequence-number arithmetic at the 2³² boundary.
//!
//! Yoda's whole tunneling scheme (paper Figure 4) is a fixed offset
//! `delta = C − S` applied modulo 2³² to every forwarded segment. These
//! tests pin the wrap behaviour down hard: ordering, ranges, translation
//! round-trips, and ISN generation must all compose correctly when a
//! flow's sequence space straddles the wrap point — a case that shows up
//! in production roughly once per 4 GiB transferred per connection.

use yoda::core::syn_ack_isn;
use yoda::netsim::{Addr, Endpoint};
use yoda::tcp::SeqNum;

const WRAP_NEIGHBOURHOOD: [u32; 9] = [
    0,
    1,
    2,
    u32::MAX - 2,
    u32::MAX - 1,
    u32::MAX,
    1 << 31,
    (1 << 31) - 1,
    (1 << 31) + 1,
];

#[test]
fn addition_wraps_through_the_boundary() {
    assert_eq!(SeqNum::new(u32::MAX) + 1, SeqNum::new(0));
    assert_eq!(SeqNum::new(u32::MAX - 1) + 5, SeqNum::new(3));
    let mut s = SeqNum::new(u32::MAX - 3);
    s += 10;
    assert_eq!(s, SeqNum::new(6));
}

#[test]
fn subtraction_measures_distance_across_the_boundary() {
    // 3 − (MAX−1) ≡ 5 (the short way around the circle).
    assert_eq!(SeqNum::new(3) - SeqNum::new(u32::MAX - 1), 5);
    assert_eq!(SeqNum::new(0) - SeqNum::new(u32::MAX), 1);
    assert_eq!(SeqNum::new(0) - SeqNum::new(0), 0);
}

#[test]
fn modular_ordering_across_the_boundary() {
    let before = SeqNum::new(u32::MAX - 10);
    let after = SeqNum::new(10);
    assert!(before.lt(after), "MAX-10 is before 10 after a wrap");
    assert!(after.gt(before));
    assert!(before.le(before));
    assert!(before.ge(before));
    // Ordering is only defined within a half-circle; exactly 2³¹ apart is
    // the ambiguous antipode and must not claim both directions.
    let x = SeqNum::new(0);
    let anti = SeqNum::new(1 << 31);
    assert!(!(x.lt(anti) && anti.lt(x)), "antipode ordered both ways");
}

#[test]
fn in_range_spanning_the_boundary() {
    let lo = SeqNum::new(u32::MAX - 100);
    let hi = SeqNum::new(100);
    assert!(SeqNum::new(u32::MAX).in_range(lo, hi));
    assert!(SeqNum::new(0).in_range(lo, hi));
    assert!(SeqNum::new(50).in_range(lo, hi));
    assert!(!SeqNum::new(200).in_range(lo, hi));
    assert!(!SeqNum::new(u32::MAX - 200).in_range(lo, hi));
}

/// Figure 4's per-segment translation: seq' = seq + delta must be a
/// bijection that round-trips for every delta, including ones that push
/// sequences through the wrap.
#[test]
fn translation_roundtrips_through_the_boundary() {
    for &raw in &WRAP_NEIGHBOURHOOD {
        let seq = SeqNum::new(raw);
        for &other in &WRAP_NEIGHBOURHOOD {
            let delta = SeqNum::new(other).offset_from(seq);
            let there = seq.translate(delta);
            assert_eq!(there, SeqNum::new(other), "translate lands on target");
            let back = there.translate(0u32.wrapping_sub(delta));
            assert_eq!(back, seq, "inverse delta returns to start");
        }
    }
}

/// A simulated 4-GiB-plus transfer: advancing by MSS-sized steps from
/// just below the wrap point stays monotone in modular order throughout.
#[test]
fn long_transfer_stays_monotone_across_the_wrap() {
    let mss = 1460u32;
    let mut seq = SeqNum::new(u32::MAX - 10 * mss);
    let mut prev = seq;
    for _ in 0..100 {
        seq += mss;
        assert!(prev.lt(seq), "stream went backwards at {prev} -> {seq}");
        assert_eq!(seq - prev, mss);
        prev = seq;
    }
    // (u32::MAX - 10 MSS) + 100 MSS, modulo 2³².
    assert_eq!(seq, SeqNum::new(90 * mss - 1), "walked through the wrap");
}

#[test]
fn isn_is_deterministic_and_distinct_per_flow() {
    let vip = Endpoint::new(Addr::new(100, 0, 0, 1), 80);
    let c1 = Endpoint::new(Addr::new(172, 16, 0, 1), 40_000);
    let c2 = Endpoint::new(Addr::new(172, 16, 0, 1), 40_001);
    // Stateless regeneration (§4.1): any instance, any time, same ISN.
    assert_eq!(syn_ack_isn(c1, vip), syn_ack_isn(c1, vip));
    // Neighbouring flows must not share sequence spaces.
    assert_ne!(syn_ack_isn(c1, vip), syn_ack_isn(c2, vip));
    assert_ne!(
        syn_ack_isn(c1, vip),
        syn_ack_isn(c1, Endpoint::new(Addr::new(100, 0, 0, 2), 80))
    );
}

/// ISN-relative arithmetic survives the wrap: the handshake's `isn + 1`,
/// the tunnel delta, and acknowledgement distances all behave when the
/// generated ISN lies at the top of sequence space.
#[test]
fn isn_arithmetic_across_the_boundary() {
    // Exhaustively scan client ports until the keyed hash emits ISNs in
    // the top and bottom 2²⁰ of the circle, then exercise both extremes.
    let vip = Endpoint::new(Addr::new(100, 0, 0, 1), 443);
    let zero = SeqNum::new(0);
    let mut high = None;
    let mut low = None;
    for port in 1024..u16::MAX {
        let client = Endpoint::new(Addr::new(172, 16, 3, 9), port);
        let isn = syn_ack_isn(client, vip);
        if isn.in_range(zero - (1 << 20), zero) {
            high.get_or_insert(isn);
        }
        if isn.in_range(zero, zero + (1 << 20)) {
            low.get_or_insert(isn);
        }
        if high.is_some() && low.is_some() {
            break;
        }
    }
    let (high, low) = (
        high.expect("an ISN near the top of sequence space"),
        low.expect("an ISN near the bottom of sequence space"),
    );
    // SYN-ACK consumes one sequence number even at the very top.
    assert_eq!(SeqNum::new(u32::MAX) + 1, zero);
    // A delta between a high and a low ISN translates both ways.
    let delta = low.offset_from(high);
    assert_eq!(high.translate(delta), low);
    assert_eq!(low.translate(0u32.wrapping_sub(delta)), high);
    // Advancing a top-of-space ISN by a response worth of bytes wraps
    // into low sequence numbers while staying after the ISN.
    let advanced = high + (1 << 21);
    assert!(high.lt(advanced));
}
