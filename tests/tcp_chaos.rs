//! Adversarial-delivery property tests for the TCP state machine: under
//! random segment reordering, duplication, and bounded loss (with timer-
//! driven retransmission), the receiver always reassembles exactly the
//! bytes that were sent.
//!
//! Runs on the in-tree deterministic PRNG with fixed seeds — every run
//! exercises the same case set, so failures always reproduce.

use yoda::netsim::rng::Rng;
use yoda::netsim::{Addr, Endpoint, SimTime};
use yoda::tcp::{Segment, SeqNum, SocketState, TcpSocket};

/// Drives a client→server transfer where every in-flight segment batch is
/// shuffled, possibly duplicated, and possibly dropped; lost data is
/// recovered by firing the retransmission timers.
fn chaotic_transfer(data: &[u8], seed: u64, loss_pct: u64) -> Vec<u8> {
    let c_ep = Endpoint::new(Addr::new(172, 16, 0, 1), 40000);
    let s_ep = Endpoint::new(Addr::new(10, 1, 0, 1), 80);
    let mut rng = Rng::seed_from_u64(seed);
    let mut now = SimTime::ZERO;
    let (mut client, syn) = TcpSocket::connect(c_ep, s_ep, SeqNum::new(7), now);
    let (mut server, synack) =
        TcpSocket::accept(s_ep, c_ep, &syn, SeqNum::new(77), now).expect("syn");
    let mut to_server: Vec<Segment> = Vec::new();
    client.on_segment(&synack, now, &mut to_server);
    client.send(bytes::Bytes::copy_from_slice(data), now, &mut to_server);
    let mut received = Vec::new();
    // Alternate delivery rounds with chaos until both sides go idle and
    // all data arrived (or a safety cap).
    for round in 0..10_000 {
        // Impair the client->server batch.
        let mut batch = std::mem::take(&mut to_server);
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
        received.extend_from_slice(&server.take_data());
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
        let _ = round;
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
