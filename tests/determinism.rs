//! The simulation must be a pure function of its seed: two engines built
//! from the same config and driven through the same scenario must process
//! the *identical* event sequence. The engine folds every processed event
//! (time + kind + destination) into an FNV-1a digest; comparing digests
//! across runs catches any nondeterminism — hash-order iteration, ambient
//! randomness, wall-clock reads — no matter where it hides.
//!
//! This is the dynamic companion to `yoda-tidy`'s static determinism
//! rules: tidy forbids the known sources, this test catches the unknown
//! ones.

use yoda::core::testbed::{Testbed, TestbedConfig};
use yoda::http::{BrowserClient, BrowserConfig};
use yoda::netsim::SimTime;

/// Runs a full scenario — control-plane settling, browsers fetching
/// through muxes/instances/backends/TCPStore, an instance failure with
/// recovery — and returns the engine's event digest plus a few load-
/// bearing end-state numbers.
fn run_scenario(seed: u64) -> (u64, u64, u64, u64) {
    let mut tb = Testbed::build(TestbedConfig {
        seed,
        num_instances: 2,
        num_stores: 3,
        num_backends: 4,
        num_muxes: 2,
        num_services: 2,
        pages_per_site: 30,
        ..TestbedConfig::default()
    });
    tb.engine.run_for(SimTime::from_secs(1));
    let b0 = tb.add_browser(
        0,
        BrowserConfig {
            processes: 4,
            max_pages: Some(3),
            ..BrowserConfig::default()
        },
    );
    let b1 = tb.add_browser(
        1,
        BrowserConfig {
            processes: 3,
            max_pages: Some(2),
            ..BrowserConfig::default()
        },
    );
    // An instance failure mid-traffic exercises the recovery machinery,
    // which leans on timer ordering and TCPStore quorum scheduling.
    tb.fail_instance_at(0, SimTime::from_millis(2500));
    tb.engine.run_for(SimTime::from_secs(60));
    let completed = tb.engine.node_ref::<BrowserClient>(b0).completed
        + tb.engine.node_ref::<BrowserClient>(b1).completed;
    (
        tb.engine.event_digest(),
        tb.engine.packets_sent(),
        tb.engine.now().as_micros(),
        completed,
    )
}

/// Same seed ⇒ bit-identical event trace (and therefore end state).
#[test]
fn same_seed_same_event_trace() {
    let first = run_scenario(0xD15EA5E);
    let second = run_scenario(0xD15EA5E);
    assert_eq!(
        first, second,
        "two runs with one seed diverged: (digest, packets, time, completed)"
    );
    // The scenario must actually have exercised the system for the digest
    // comparison to mean anything.
    assert!(first.1 > 1_000, "scenario too small: {} packets", first.1);
    assert!(first.3 > 0, "no page fetches completed");
}

/// Different seeds ⇒ different traces (the digest actually discriminates).
#[test]
fn different_seed_different_event_trace() {
    let a = run_scenario(1);
    let b = run_scenario(2);
    assert_ne!(a.0, b.0, "digest failed to distinguish different seeds");
}

/// The one full-stack digest pinned in code (the golden below is a toy
/// ring): browsers, TCP, muxes, Yoda instances with a prequal policy so
/// the probe path runs too, stores and controller. A change that moves
/// it changes the event sequence, not just its speed — on purpose only,
/// by the procedure in DESIGN.md "Digests".
#[test]
fn full_stack_matches_pinned_digest() {
    let mut tb = Testbed::build(TestbedConfig {
        seed: 0xBEEF,
        num_instances: 3,
        num_spares: 0,
        num_stores: 2,
        num_backends: 8,
        num_muxes: 2,
        num_services: 2,
        pages_per_site: 8,
        ..TestbedConfig::default()
    });
    let backends: Vec<String> = tb.service_backends[0].iter().map(|b| b.to_string()).collect();
    let rules = format!("name=pq-0 priority=1 match * action=prequal {}", backends.join(" "));
    tb.set_policy_at(tb.vips[0], &rules, SimTime::from_millis(100));
    for service in 0..2 {
        tb.add_browser(
            service,
            BrowserConfig {
                processes: 2,
                ..BrowserConfig::default()
            },
        );
    }
    tb.engine.run_for(SimTime::from_millis(50));
    let setup_events = tb.engine.events_processed();
    tb.engine.run_for(SimTime::from_secs(4));
    assert_eq!(
        (tb.engine.event_digest(), tb.engine.events_processed() - setup_events),
        (0x3c07_e32f_2357_1930, 23_598),
        "full-stack event sequence diverged (digest, events after the 50 ms setup)"
    );
}

// ---------------------------------------------------------------------------
// Golden digest: pins the engine's event sequence across refactors
// ---------------------------------------------------------------------------

mod golden {
    use yoda::netsim::{
        Addr, Ctx, Endpoint, Engine, Node, Packet, SimTime, TimerId, TimerToken, Topology, Zone,
        PROTO_PING,
    };

    /// A node that exercises every event class the engine has: packets
    /// (forwarded around a ring with RNG-chosen hops), timers (periodic
    /// re-arm, same-tick collisions, and a cancelled one), and — driven
    /// from the harness below — control closures, node failure, and
    /// generation-bumping restore.
    struct Mixer {
        index: u32,
        ring: u32,
        hops_left: u32,
        fires: u32,
        cancelled: Option<TimerId>,
    }

    impl Mixer {
        fn peer(&self, offset: u32) -> Endpoint {
            let target = (self.index + offset) % self.ring;
            Endpoint::new(Addr::new(10, 9, 0, (target + 1) as u8), 0)
        }
        fn me(&self) -> Endpoint {
            Endpoint::new(Addr::new(10, 9, 0, (self.index + 1) as u8), 0)
        }
    }

    impl Node for Mixer {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let pkt = Packet::new(self.me(), self.peer(1), PROTO_PING, bytes::Bytes::new());
            ctx.send(pkt);
            // Two timers landing on the same microsecond tick, plus one
            // cancelled before it can fire.
            ctx.set_timer(SimTime::from_millis(3), TimerToken::new(1));
            ctx.set_timer(SimTime::from_millis(3), TimerToken::new(2));
            let id = ctx.set_timer(SimTime::from_millis(4), TimerToken::new(3));
            self.cancelled = Some(id);
            if self.index % 2 == 0 {
                if let Some(id) = self.cancelled {
                    ctx.cancel_timer(id);
                }
            }
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _pkt: Packet) {
            if self.hops_left == 0 {
                return;
            }
            self.hops_left -= 1;
            let offset = 1 + (ctx.rng().gen_range(0..3) as u32);
            let pkt = Packet::new(self.me(), self.peer(offset), PROTO_PING, bytes::Bytes::new());
            ctx.send(pkt);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
            self.fires += 1;
            if token.kind == 1 && self.fires < 8 {
                ctx.set_timer(SimTime::from_millis(2), TimerToken::new(1));
                let pkt =
                    Packet::new(self.me(), self.peer(2), PROTO_PING, bytes::Bytes::new());
                ctx.send(pkt);
            }
        }
    }

    fn fresh(index: u32, ring: u32) -> Box<Mixer> {
        Box::new(Mixer {
            index,
            ring,
            hops_left: 40,
            fires: 0,
            cancelled: None,
        })
    }

    fn run_mixed_workload() -> (u64, u64, u64, u64) {
        const RING: u32 = 8;
        let mut eng = Engine::with_topology(99, Topology::uniform(SimTime::from_micros(700)));
        let mut ids = Vec::new();
        for i in 0..RING {
            let id = eng.add_node(
                format!("mixer-{i}"),
                Addr::new(10, 9, 0, (i + 1) as u8),
                Zone::Dc,
                fresh(i, RING),
            );
            ids.push(id);
        }
        // Control events interleaved with traffic: a crash mid-run, a
        // generation-bumping restore (stale timers must be suppressed),
        // and a scripted extra packet.
        let victim = ids[2];
        eng.schedule(SimTime::from_millis(9), move |eng| eng.fail_node(victim));
        eng.schedule(SimTime::from_millis(14), move |eng| {
            eng.restore_node(victim, fresh(2, RING));
        });
        eng.schedule(SimTime::from_millis(21), move |eng| {
            eng.with_node_ctx::<Mixer>(victim, |node, ctx| {
                let pkt =
                    Packet::new(node.me(), node.peer(1), PROTO_PING, bytes::Bytes::new());
                ctx.send(pkt);
            });
        });
        eng.run_for(SimTime::from_millis(200));
        (
            eng.event_digest(),
            eng.packets_sent(),
            eng.events_processed(),
            eng.now().as_micros(),
        )
    }

    /// Golden constants: the event sequence of the engine before the
    /// hot-path overhaul (BTreeMap addr routing + single BinaryHeap),
    /// minus its cancelled timers, which since cancellation removes them
    /// are no events — five here, the only move since: same 362
    /// packets, 448 → 443 events. An engine refactor must reproduce this
    /// sequence bit-for-bit. A change that moves it changes what the
    /// engine does, and may land only as a deliberate re-baseline that
    /// names what moved and why (DESIGN.md "Digests").
    const GOLDEN_DIGEST: u64 = 0xeea3_1288_682a_00d8;
    const GOLDEN_PACKETS: u64 = 362;
    const GOLDEN_EVENTS: u64 = 443;

    #[test]
    fn mixed_workload_matches_golden_digest() {
        let (digest, packets, events, now) = run_mixed_workload();
        assert_eq!(now, 200_000, "run_for leaves the clock at the deadline");
        assert_eq!(
            (digest, packets, events),
            (GOLDEN_DIGEST, GOLDEN_PACKETS, GOLDEN_EVENTS),
            "event sequence diverged from the golden fixture \
             (digest, packets_sent, events_processed)"
        );
    }
}
