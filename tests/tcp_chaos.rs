//! Adversarial-delivery property tests for the TCP state machine: under
//! random segment reordering, duplication, and bounded loss (with timer-
//! driven retransmission), the receiver always reassembles exactly the
//! bytes that were sent. Safety is checked after every round, not only at
//! the end: every segment the sender emits carries the stream's bytes at
//! its sequence offset (so a retransmitted byte equals the original), and
//! what the receiver has handed out is a prefix of the stream.
//!
//! Runs on the in-tree deterministic PRNG with fixed seeds — every run
//! exercises the same case set, so failures always reproduce.

use yoda::netsim::{Addr, Endpoint, SimTime};
use yoda::netsim::{Bytes, Rng};
use yoda::tcp::{Segment, SeqNum, SocketState, TcpSocket};

/// `data` cut into chunks of 1 B to 3 KB, queued back to back, so segments
/// and retransmissions span chunk edges. Drawn from a stream of its own:
/// the delivery chaos of a seed is the same however the data is cut.
fn chunked(data: &[u8], seed: u64) -> Vec<Bytes> {
    let mut rng = Rng::seed_from_u64(seed ^ 0xC4_0A5C);
    let mut chunks = Vec::new();
    let mut rest = data;
    while !rest.is_empty() {
        let (chunk, tail) = rest.split_at(rng.gen_range(1..=3000usize).min(rest.len()));
        chunks.push(Bytes::copy_from_slice(chunk));
        rest = tail;
    }
    chunks
}

/// Panics unless `seg`'s payload is the stream's bytes at its offset from
/// `first`, the sequence number of the stream's first byte.
fn assert_carries_stream(seg: &Segment, first: SeqNum, data: &[u8], case: &str) {
    let off = (seg.seq - first) as usize;
    let want = data.get(off..off + seg.payload.len());
    assert_eq!(
        want,
        Some(&seg.payload[..]),
        "{case}: segment at stream offset {off} does not carry the sent bytes"
    );
}

/// Drives a client→server transfer where every in-flight segment batch is
/// shuffled, possibly duplicated, and possibly dropped; lost data is
/// recovered by firing the retransmission timers.
fn chaotic_transfer(data: &[u8], seed: u64, loss_pct: u64) -> Vec<u8> {
    let c_ep = Endpoint::new(Addr::new(172, 16, 0, 1), 40000);
    let s_ep = Endpoint::new(Addr::new(10, 1, 0, 1), 80);
    let mut rng = Rng::seed_from_u64(seed);
    let mut now = SimTime::ZERO;
    let iss = SeqNum::new(7);
    let (mut client, syn) = TcpSocket::connect(c_ep, s_ep, iss, now);
    let (mut server, synack) =
        TcpSocket::accept(s_ep, c_ep, &syn, SeqNum::new(77), now).expect("syn");
    let mut to_server: Vec<Segment> = Vec::new();
    client.on_segment(&synack, now, &mut to_server);
    client.send_vectored(chunked(data, seed), now, &mut to_server);
    let (mut received, mut slices) = (Vec::new(), Vec::new());
    // Alternate delivery rounds with chaos until both sides go idle and
    // all data arrived (or a safety cap).
    for round in 0..10_000 {
        let case = format!("seed {seed:#x} round {round}");
        // Impair the client->server batch, once each of its segments is
        // known to carry the right bytes.
        let mut batch = std::mem::take(&mut to_server);
        for seg in &batch {
            assert_carries_stream(seg, iss + 1, data, &case);
        }
        if batch.len() > 1 {
            for i in (1..batch.len()).rev() {
                let j = rng.gen_range(0..=i);
                batch.swap(i, j);
            }
        }
        let mut to_client = Vec::new();
        for seg in batch {
            if rng.gen_range(0..100u64) < loss_pct {
                continue; // lost
            }
            if rng.gen_range(0..100u64) < 10 {
                // Duplicate delivery.
                server.on_segment(&seg, now, &mut to_client);
            }
            server.on_segment(&seg, now, &mut to_client);
        }
        server.take_data(&mut slices);
        for slice in slices.drain(..) {
            received.extend_from_slice(&slice);
        }
        assert!(
            data.starts_with(&received),
            "{case}: delivered bytes are not a prefix of the sent stream"
        );
        for seg in to_client {
            if rng.gen_range(0..100u64) < loss_pct {
                continue;
            }
            client.on_segment(&seg, now, &mut to_server);
        }
        if to_server.is_empty() {
            if received.len() >= data.len() {
                break;
            }
            // Quiescent with missing data: fire the earliest timer.
            now = client
                .next_deadline()
                .unwrap_or(now + SimTime::from_secs(1))
                .max(now + SimTime::from_millis(1));
            client.on_timer(now, &mut to_server);
            if to_server.is_empty() && client.state() == SocketState::Reset {
                break;
            }
        }
    }
    for seg in &to_server {
        assert_carries_stream(seg, iss + 1, data, &format!("seed {seed:#x} last round"));
    }
    received
}

/// Reordering + duplication alone never corrupts or loses data.
#[test]
fn reordered_duplicated_delivery_is_exact() {
    let mut meta = Rng::seed_from_u64(0xC4A0_5001);
    for case in 0..24 {
        let len = meta.gen_range(1usize..40_000);
        let seed = meta.next_u64();
        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let got = chaotic_transfer(&data, seed, 0);
        assert_eq!(got, data, "case {case}: len={len} seed={seed:#x}");
    }
}

/// With 20% loss in both directions, retransmission recovers every byte,
/// in order, exactly once.
#[test]
fn lossy_delivery_recovers_exactly() {
    let mut meta = Rng::seed_from_u64(0xC4A0_5002);
    for case in 0..24 {
        let len = meta.gen_range(1usize..20_000);
        let seed = meta.next_u64();
        let data: Vec<u8> = (0..len).map(|i| (i.wrapping_mul(31) % 251) as u8).collect();
        let got = chaotic_transfer(&data, seed, 20);
        assert_eq!(got, data, "case {case}: len={len} seed={seed:#x}");
    }
}
