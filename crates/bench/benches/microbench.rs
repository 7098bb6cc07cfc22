//! Microbenchmarks for the hot paths of the Yoda data plane and the
//! assignment solvers, on a small in-tree harness (no criterion: the
//! build is hermetic, see DESIGN.md "Determinism invariants").
//!
//! * `rule_lookup/*` — the Figure 6 linear rule scan at several table
//!   sizes (same quantity the `fig6_rule_latency` binary reports).
//! * `flow_codec` — encode/decode of the TCPStore flow-state records
//!   (runs on every connection setup).
//! * `seq_translate` — the per-packet tunneling-phase header rewrite.
//! * `forward_hop_1460b` — one whole instance hop on a full-size segment:
//!   decapsulate, decode, translate, re-encode, re-encapsulate, each
//!   hop's output feeding the next as on the wire.
//! * `hash_ring` — K-replica selection in the TCPStore client, into the
//!   buffer the client reuses.
//! * `store_rpc_codec` — encode and decode of a 2-replica `set` request
//!   for a flow record and of its response (every connection set-up
//!   sends two of each per record).
//! * `assign/*` — greedy assignment at trace scale and the exact B&B on a
//!   small instance.
//! * `tcp_transfer` — a 442 KB object (the catalog's largest) moved
//!   between two in-memory sockets with every data segment acknowledged
//!   on its own, so ~300 ACKs each find most of the object still unacked:
//!   the shape whose cost was quadratic while the send buffer was copied
//!   per ACK. As inside a `TcpStack`, the sockets emit into two reused out
//!   buffers, every segment crosses the wire codec (`into_packet`, then
//!   `from_packet`), and the receiver reads into one reused vector. Also
//!   printed per payload byte.
//! * `flow_lookup_hit/*`, `flow_lookup_miss/*`, `flow_insert_remove/*` —
//!   the `FlowTable` every per-packet lookup goes through, keyed by
//!   `(Endpoint, Endpoint)`, at 5,000 live flows (one mux) and 50,000 (the
//!   whole tier on the open-loop workload). The same loops over a
//!   `BTreeMap` are in EXPERIMENTS.md "Flow tables".
//!
//! Run with `cargo bench -p yoda-bench`. Wall-clock timing lives only in
//! this binary; simulation code must never read the host clock.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use yoda_assign::{solve_greedy, AssignInput, VipSpec};
use yoda_core::FlowRecord;
use yoda_core::{Rule, RuleTable, SelectCtx};
use yoda_http::HttpRequest;
use yoda_netsim::Rng;
use yoda_netsim::{Addr, Endpoint, FlowTable, Packet, SimTime};
use yoda_tcp::{Segment, SeqNum, TcpSocket};
use yoda_tcpstore::{StoreOp, StoreRequest, StoreResponse, StoreStatus};

/// Times `f` over enough iterations to fill ~200 ms, after a short
/// warmup, prints mean ns/iter and returns it.
fn bench(name: &str, mut f: impl FnMut()) -> f64 {
    // Warmup and calibration: estimate per-iter cost from 16 iterations.
    let t0 = Instant::now();
    for _ in 0..16 {
        f();
    }
    let per_iter = t0.elapsed().as_nanos().max(1) / 16;
    let iters = (200_000_000 / per_iter).clamp(16, 2_000_000) as u64;
    let t1 = Instant::now();
    for _ in 0..iters {
        f();
    }
    let mean = t1.elapsed().as_nanos() as f64 / iters as f64;
    println!("{name:32} {mean:>12.1} ns/iter   ({iters} iters)");
    mean
}

fn rule_table(n: usize) -> RuleTable {
    let rules = (0..n)
        .map(|i| {
            let backend = format!("10.1.{}.{}:80", (i / 250) % 250, i % 250 + 1);
            Rule::parse(&format!(
                "name=r{i} priority=1 match url=/obj{i}/* action=split {backend}=1"
            ))
            .expect("valid rule")
        })
        .collect();
    RuleTable::from_rules(rules)
}

fn bench_rule_lookup() {
    for &n in &[1_000usize, 10_000] {
        let mut table = rule_table(n);
        let ctx = SelectCtx::default();
        let mut rng = Rng::seed_from_u64(1);
        bench(&format!("rule_lookup/{n}_rules"), || {
            let obj = rng.gen_range(0..n);
            let req = HttpRequest::get(format!("/obj{obj}/x.jpg"));
            black_box(table.select(&req, &ctx, &mut rng));
        });
    }
}

fn bench_flow_codec() {
    let record = FlowRecord {
        client: Endpoint::new(Addr::new(172, 16, 0, 1), 40000),
        vip: Endpoint::new(Addr::new(100, 0, 0, 1), 80),
        backend: Endpoint::new(Addr::new(10, 1, 0, 3), 80),
        client_isn: SeqNum::new(0xDEADBEEF),
        server_isn: SeqNum::new(0x12345678),
    };
    bench("flow_codec_roundtrip", || {
        let enc = black_box(&record).encode();
        black_box(FlowRecord::decode(&enc));
    });
}

fn bench_seq_translate() {
    // The per-packet work of the tunneling phase: decode header fields,
    // apply the Y−S offset, re-encode.
    let seg = Segment {
        src_port: 80,
        dst_port: 40000,
        seq: SeqNum::new(1_000_000),
        ack: SeqNum::new(2_000_000),
        flags: yoda_tcp::Flags::ACK,
        window: 65535,
        payload: bytes::Bytes::from(vec![0u8; 1460]),
    };
    let delta = 0x55AA55AAu32;
    let src = Endpoint::new(Addr::new(100, 0, 0, 1), 80);
    let dst = Endpoint::new(Addr::new(172, 16, 0, 1), 40000);
    bench("seq_translate_packet", || {
        let mut out = seg.clone();
        out.seq += delta;
        out.src_port = 80;
        out.dst_port = 40000;
        black_box(out.into_packet(src, dst));
    });
}

fn bench_forward_hop() {
    // What the tunneling instance does to every data packet (Figure 4),
    // codec included: pop the IP-in-IP header, decode the segment,
    // translate seq/ack/ports, write the segment header back, push the
    // IP-in-IP header for the next hop. Loop-carried — the packet one hop
    // emits is the packet the next one receives — so the data is the
    // sender's view throughout, as it is on the simulated wire.
    let client = Endpoint::new(Addr::new(172, 16, 0, 1), 40000);
    let vip = Endpoint::new(Addr::new(100, 0, 0, 1), 80);
    let (mux, inst) = (Addr::new(10, 0, 2, 1), Addr::new(10, 0, 0, 1));
    let seg = Segment {
        src_port: client.port,
        dst_port: vip.port,
        seq: SeqNum::new(1_000_000),
        ack: SeqNum::new(2_000_000),
        flags: yoda_tcp::Flags::ACK,
        window: 65535,
        payload: Bytes::from(vec![0u8; 1460]),
    };
    let delta = 0x55AA55AAu32;
    let mut wire = seg.into_packet(client, vip).encapsulate(mux, inst);
    bench("forward_hop_1460b", || {
        let inner = wire.take().and_then(Packet::decapsulate).expect("ipip");
        let (src, dst) = (inner.src, inner.dst);
        let mut seg = Segment::from_packet(inner).expect("tcp");
        seg.seq += delta;
        seg.ack = seg.ack - delta;
        seg.src_port = src.port;
        seg.dst_port = dst.port;
        wire = black_box(seg.into_packet(src, dst).encapsulate(inst, mux));
    });
}

fn bench_hash_ring() {
    let servers: Vec<Addr> = (1..=10).map(|i| Addr::new(10, 0, 1, i)).collect();
    let ring = yoda_tcpstore::HashRing::new(&servers, 64);
    let (mut i, mut replicas) = (0u64, Vec::new());
    bench("hash_ring_2_replicas", || {
        i += 1;
        let key = i.to_be_bytes();
        ring.replicas(&key, 2, &mut replicas);
        black_box(&replicas);
    });
}

fn bench_store_rpc_codec() {
    let client = Endpoint::new(Addr::new(172, 16, 0, 1), 40000);
    let vip = Endpoint::new(Addr::new(100, 0, 0, 1), 80);
    let record = FlowRecord {
        client,
        vip,
        backend: Endpoint::new(Addr::new(10, 1, 0, 3), 80),
        client_isn: SeqNum::new(0xDEADBEEF),
        server_isn: SeqNum::new(0x12345678),
    };
    let (key, value) = (FlowRecord::key(client, vip), record.encode());
    let mut req_id = 0u64;
    bench("store_rpc_codec", || {
        req_id += 1;
        let req = StoreRequest {
            req_id,
            op: StoreOp::Set,
            key: key.clone(),
            value: value.clone(),
        };
        let wire = black_box(req.encode());
        let got = StoreRequest::decode(&wire).expect("request");
        let resp = StoreResponse {
            req_id: got.req_id,
            op: got.op,
            status: StoreStatus::Ok,
            value: Bytes::new(),
        };
        let wire = black_box(resp.encode());
        black_box(StoreResponse::decode(&wire).expect("response"));
    });
}

fn bench_assign() {
    let vips: Vec<VipSpec> = (0..110)
        .map(|i| VipSpec {
            traffic: 50.0 + (i % 23) as f64 * 400.0,
            rules: 50 + (i % 9) as u64 * 150,
            replicas: 1 + i % 4,
            oversub: 0.25,
            connections: 100.0,
        })
        .collect();
    let input = AssignInput {
        vips,
        max_instances: 256,
        traffic_capacity: 12_000.0,
        rule_capacity: 2_000,
        migration_limit: None,
        previous: None,
    };
    bench("assign_greedy_110_vips", || {
        let _ = black_box(solve_greedy(&input.clone(), None));
    });
}

fn bench_tcp_transfer() {
    const OBJECT: usize = yoda_http::site::MAX_OBJECT_BYTES;
    let object = Bytes::from(vec![7u8; OBJECT]);
    let mean = bench("tcp_transfer_442kb", || {
        let a_ep = Endpoint::new(Addr::new(10, 0, 0, 1), 1000);
        let b_ep = Endpoint::new(Addr::new(10, 0, 0, 2), 80);
        let t = SimTime::ZERO;
        let (mut cl, syn) = TcpSocket::connect(a_ep, b_ep, SeqNum::new(1), t);
        let (mut sv, synack) = TcpSocket::accept(b_ep, a_ep, &syn, SeqNum::new(2), t).expect("syn");
        let (mut out, mut acks, mut rx) = (Vec::new(), Vec::new(), Vec::new());
        let wire = |seg: Segment, from, to| Segment::from_packet(seg.into_packet(from, to));
        cl.on_segment(&synack, t, &mut out);
        cl.send(object.clone(), t, &mut out);
        let mut to_server: VecDeque<Segment> = out.drain(..).collect();
        let mut delivered = 0;
        // One segment at a time, its ACK straight back: the sender sees an
        // ACK per segment while the rest of the object is still queued.
        while let Some(seg) = to_server.pop_front() {
            sv.on_segment(&wire(seg, a_ep, b_ep).expect("tcp"), t, &mut acks);
            for ack in acks.drain(..) {
                cl.on_segment(&wire(ack, b_ep, a_ep).expect("tcp"), t, &mut out);
            }
            to_server.extend(out.drain(..));
            sv.take_data(&mut rx);
            delivered += black_box(&rx).iter().map(Bytes::len).sum::<usize>();
            rx.clear();
        }
        assert_eq!(delivered, OBJECT);
    });
    println!(
        "{:32} {:>12.3} ns/byte",
        "  per payload byte",
        mean / OBJECT as f64
    );
}

/// `n` flows as the open-loop workload makes them: a handful of client
/// hosts walking their ephemeral ports toward one VIP. `port_base` picks
/// the window, so two calls give disjoint key sets over the same hosts.
fn flow_keys(n: usize, port_base: u16) -> Vec<(Endpoint, Endpoint)> {
    let vip = Endpoint::new(Addr::new(100, 0, 0, 1), 80);
    (0..n)
        .map(|i| {
            let host = Addr::new(172, 16, 0, 1 + (i % 8) as u8);
            (Endpoint::new(host, port_base + (i / 8) as u16), vip)
        })
        .collect()
}

fn bench_flow_table() {
    for &n in &[5_000usize, 50_000] {
        let live = flow_keys(n, 33_000);
        let absent = flow_keys(n, 53_000);
        let mut table = FlowTable::new();
        for (i, k) in live.iter().enumerate() {
            table.insert(*k, i as u64);
        }
        let mut rng = Rng::seed_from_u64(1);
        bench(&format!("flow_lookup_hit/{n}"), || {
            let k = &live[rng.gen_range(0..n)];
            black_box(table.get(black_box(k)));
        });
        bench(&format!("flow_lookup_miss/{n}"), || {
            let k = &absent[rng.gen_range(0..n)];
            black_box(table.get(black_box(k)));
        });
        // A connection's life at a full table: learned, then swept.
        bench(&format!("flow_insert_remove/{n}"), || {
            let k = absent[rng.gen_range(0..n)];
            table.insert(k, 0);
            black_box(table.remove(&k));
        });
        assert_eq!(table.len(), n);
    }
}

fn main() {
    bench_rule_lookup();
    bench_flow_codec();
    bench_seq_translate();
    bench_forward_hop();
    bench_hash_ring();
    bench_store_rpc_codec();
    bench_assign();
    bench_tcp_transfer();
    bench_flow_table();
}
