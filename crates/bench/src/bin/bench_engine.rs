//! Engine hot-loop microbenchmark: events/sec and ns/event for the
//! `yoda-netsim` discrete-event core, the quantity every figure binary is
//! ultimately bottlenecked on.
//!
//! Four scenarios, each isolating one hot path of the engine (the whole
//! stack is `bench_e2e`'s job — long runs, per-layer attribution — and
//! its one pinned digest lives in `tests/determinism.rs`):
//!
//! * `pingpong_mesh`  — pure packet dispatch: N nodes bounce pings around
//!   a ring, so every event is a heap pop + address route + node call.
//! * `timer_churn`    — timer arm/cancel/fire: each node keeps a fan of
//!   staggered timers alive, cancelling half of them (which then never
//!   pop) right after arming them.
//! * `trace_ring`     — the ping-pong mesh with tracing enabled, isolating
//!   the per-event trace-record cost (node-name interning).
//! * `dc_jitter_mesh` — the event queue under the full stack's mix: the
//!   mesh on the testbed's datacenter link (250 µs + U[0, 50] µs, so
//!   deadlines scatter instead of arriving in same-tick waves), with
//!   ≈ 15 % of events timers armed 100 ms–30 s out that fire into
//!   nothing and a few thousand of them pending — the shape of
//!   `bench_e2e`'s `api_open` before its dead timers were cancelled,
//!   without the layers above it.
//!
//! The simulation content is fully deterministic (each scenario prints its
//! `event_digest`, which must be identical across hosts and across engine
//! refactors); only the wall-clock measurements vary. Results are written
//! as JSON, to `--update <path>` or stdout. In full mode every scenario's
//! digest is additionally asserted against the constants below, the ones
//! `BENCH_engine.json` carries.
//!
//! ```text
//! bench_engine [--smoke] [--only SCENARIO] [--update BENCH_engine.json]
//! ```
//!
//! `--only` restricts the run to one scenario (exact name) — for
//! profiling a single hot path without the others polluting the samples.

use std::fmt::Write as _;
use std::time::Instant;

use bytes::Bytes;
use yoda_bench::{arg_flag, arg_str};
use yoda_netsim::{
    Addr, Ctx, Endpoint, Engine, Node, Packet, SimTime, TimerToken, Topology, Zone, PROTO_PING,
};

/// One node of the ping-pong mesh: pings `fanout` successors on start,
/// then replies to every ping forever, keeping a fixed population of
/// packets in flight.
struct Seeder {
    index: u32,
    ring: u32,
    fanout: u32,
}

impl Node for Seeder {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let me = Endpoint::new(mesh_addr(self.index), 0);
        for k in 1..=self.fanout {
            let peer = Endpoint::new(mesh_addr((self.index + k) % self.ring), 0);
            ctx.send(Packet::new(me, peer, PROTO_PING, Bytes::new()));
        }
    }
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let reply = Packet::new(pkt.dst, pkt.src, pkt.protocol, Bytes::new());
        ctx.send(reply);
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: TimerToken) {}
}

/// Timer-churn node: every tick re-arms a fan of staggered timers and
/// cancels half of them before they can fire.
struct Churner {
    period: SimTime,
    fan: u64,
}

impl Node for Churner {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.period, TimerToken::new(0));
    }
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        if token.kind != 0 {
            return; // a surviving fan timer: nothing to do
        }
        for i in 0..self.fan {
            let delay = self.period + SimTime::from_micros(17 * i);
            let id = ctx.set_timer(delay, TimerToken::new(1).with_a(i));
            if i % 2 == 0 {
                ctx.cancel_timer(id);
            }
        }
        ctx.set_timer(self.period, TimerToken::new(0));
    }
}

/// One node of the jittered mesh: a [`Seeder`] that also arms a
/// far-future timer on 3 of every 17 packets, so ≈ 15 % of steady-state
/// events are timer fires (which do nothing, like the full stack's
/// lazily re-checked deadlines).
struct JitterSeeder {
    seeder: Seeder,
    packets: u64,
}

impl Node for JitterSeeder {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.seeder.on_start(ctx);
    }
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        self.packets += 1;
        if self.packets % 17 < 3 {
            let rng = ctx.node_rng();
            // Mostly RTO-scale deadlines; 1 in 64 an idle-timeout-scale one.
            let delay_us = if rng.gen_range(0..64u32) == 0 {
                rng.gen_range(1_000_000..30_000_000u64)
            } else {
                rng.gen_range(100_000..200_000u64)
            };
            ctx.set_timer(SimTime::from_micros(delay_us), TimerToken::new(0));
        }
        self.seeder.on_packet(ctx, pkt);
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: TimerToken) {}
}

fn mesh_addr(i: u32) -> Addr {
    Addr::new(10, 20, (i / 250) as u8, (i % 250 + 1) as u8)
}

/// Committed full-mode digests (see `BENCH_engine.json`): every full run
/// must land exactly here.
const PINGPONG_DIGEST_FULL: u64 = 0xb9f7_9de3_8943_a8cd;
const CHURN_DIGEST_FULL: u64 = 0x0503_8156_1d8d_bca6;
const JITTER_DIGEST_FULL: u64 = 0xe738_f2c8_7569_7e56;

struct Measurement {
    name: &'static str,
    events: u64,
    elapsed_ns: u128,
    digest: u64,
}

impl Measurement {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / (self.elapsed_ns as f64 / 1e9)
    }
    fn ns_per_event(&self) -> f64 {
        self.elapsed_ns as f64 / self.events as f64
    }
}

/// Runs `build` + `run_for(duration)` `repeats` times, keeping the fastest
/// wall-clock run. The digest must agree across repeats — a mismatch
/// means the engine is nondeterministic and the numbers are garbage.
fn measure(
    name: &'static str,
    repeats: u32,
    duration: SimTime,
    build: impl Fn() -> Engine,
) -> Measurement {
    let mut best: Option<Measurement> = None;
    for _ in 0..repeats {
        let mut eng = build();
        // Setup events (on_start controls and first sends) are untimed.
        eng.run_for(SimTime::from_millis(50));
        let base_events = eng.events_processed();
        let t0 = Instant::now();
        eng.run_for(duration);
        let elapsed_ns = t0.elapsed().as_nanos().max(1);
        let m = Measurement {
            name,
            events: eng.events_processed() - base_events,
            elapsed_ns,
            digest: eng.event_digest(),
        };
        if let Some(prev) = &best {
            assert_eq!(
                prev.digest, m.digest,
                "{name}: digest varies across repeats — engine is nondeterministic"
            );
            assert_eq!(prev.events, m.events, "{name}: event count varies");
        }
        if best.as_ref().is_none_or(|b| m.elapsed_ns < b.elapsed_ns) {
            best = Some(m);
        }
    }
    best.expect("at least one repeat")
}

fn pingpong_mesh(nodes: u32, fanout: u32) -> Engine {
    // No jitter and no loss: the RNG is never consulted, so every event is
    // pure dispatch cost.
    let mut eng = Engine::with_topology(7, Topology::uniform(SimTime::from_millis(1)));
    for i in 0..nodes {
        eng.add_node(
            format!("mesh-{i}"),
            mesh_addr(i),
            Zone::Dc,
            Box::new(Seeder {
                index: i,
                ring: nodes,
                fanout,
            }),
        );
    }
    // Half the mesh also owns a VIP-style alias so the address table sees
    // a realistic multi-address load.
    for i in 0..nodes / 2 {
        let id = eng
            .node_by_addr(mesh_addr(i))
            .expect("mesh node registered");
        eng.add_addr(id, Addr::new(100, 20, (i / 250) as u8, (i % 250 + 1) as u8));
    }
    eng
}

fn dc_jitter_mesh(nodes: u32, fanout: u32) -> Engine {
    let mut eng = Engine::with_topology(7, Topology::azure_testbed());
    for i in 0..nodes {
        eng.add_node(
            format!("jitter-{i}"),
            mesh_addr(i),
            Zone::Dc,
            Box::new(JitterSeeder {
                seeder: Seeder {
                    index: i,
                    ring: nodes,
                    fanout,
                },
                packets: 0,
            }),
        );
    }
    eng
}

fn timer_churn(nodes: u32, fan: u64) -> Engine {
    let mut eng = Engine::with_topology(7, Topology::uniform(SimTime::from_millis(1)));
    for i in 0..nodes {
        eng.add_node(
            format!("churn-{i}"),
            mesh_addr(i),
            Zone::Dc,
            Box::new(Churner {
                period: SimTime::from_micros(500 + 13 * i as u64),
                fan,
            }),
        );
    }
    eng
}

fn trace_ring(nodes: u32, fanout: u32) -> Engine {
    let mut eng = pingpong_mesh(nodes, fanout);
    eng.enable_trace(1 << 16);
    eng
}

fn json_report(mode: &str, results: &[Measurement]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"bench_engine\",");
    let _ = writeln!(s, "  \"schema\": 6,");
    let _ = writeln!(s, "  \"mode\": \"{mode}\",");
    let _ = writeln!(s, "  \"scenarios\": [");
    for (i, m) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"events\": {}, \"events_per_sec\": {:.0}, \"ns_per_event\": {:.1}, \"digest\": \"{:#018x}\"}}{comma}",
            m.name,
            m.events,
            m.events_per_sec(),
            m.ns_per_event(),
            m.digest,
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

fn main() {
    let smoke = arg_flag("smoke");
    let (repeats, secs) = if smoke { (1, 1) } else { (3, 4) };
    let duration = SimTime::from_secs(secs);

    let only = arg_str("only");
    let wanted = |name: &str| only.as_deref().is_none_or(|o| o == name);
    let mut results = Vec::new();
    if wanted("pingpong_mesh") {
        results.push(measure("pingpong_mesh", repeats, duration, || {
            pingpong_mesh(512, 4)
        }));
    }
    if wanted("timer_churn") {
        results.push(measure("timer_churn", repeats, duration, || {
            timer_churn(64, 16)
        }));
    }
    if wanted("trace_ring") {
        results.push(measure("trace_ring", repeats, duration, || {
            trace_ring(512, 4)
        }));
    }
    if wanted("dc_jitter_mesh") {
        results.push(measure("dc_jitter_mesh", repeats, duration, || {
            dc_jitter_mesh(16, 4)
        }));
    }
    for m in &results {
        if !smoke {
            let committed = match m.name {
                "pingpong_mesh" | "trace_ring" => PINGPONG_DIGEST_FULL,
                "timer_churn" => CHURN_DIGEST_FULL,
                _ => JITTER_DIGEST_FULL,
            };
            assert_eq!(
                m.digest, committed,
                "{} diverged from the committed baseline digest",
                m.name
            );
        }
        eprintln!(
            "{:16} {:>10} events  {:>12.0} events/s  {:>8.1} ns/event  digest {:#018x}",
            m.name,
            m.events,
            m.events_per_sec(),
            m.ns_per_event(),
            m.digest,
        );
    }

    let report = json_report(if smoke { "smoke" } else { "full" }, &results);
    match arg_str("update") {
        Some(path) => {
            std::fs::write(&path, &report).expect("write bench report");
            eprintln!("wrote {path}");
        }
        None => print!("{report}"),
    }
}
