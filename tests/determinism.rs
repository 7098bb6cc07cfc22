//! The simulation must be a pure function of its seed: two engines built
//! from the same config and driven through the same scenario must process
//! the *identical* event sequence. The engine folds every processed event
//! (time + kind + destination) into an FNV-1a digest; comparing digests
//! across runs catches any nondeterminism — hash-order iteration, ambient
//! randomness, wall-clock reads — no matter where it hides.
//!
//! This is the dynamic companion to the static determinism rules: the
//! root `clippy.toml` forbids the known sources (hash-order maps, wall
//! clock, environment, host I/O) and `Ctx` offers handlers no RNG but
//! their own node's stream; this test catches the unknown ones.

use yoda::chaos::{run_seed, ChaosPlan, ChaosScenario, FaultKind};
use yoda::core::{Testbed, TestbedConfig};
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
    let backends: Vec<String> = tb.service_backends[0]
        .iter()
        .map(|b| b.to_string())
        .collect();
    let rules = format!(
        "name=pq-0 priority=1 match * action=prequal {}",
        backends.join(" ")
    );
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
        (
            tb.engine.event_digest(),
            tb.engine.events_processed() - setup_events
        ),
        (0x3c07_e32f_2357_1930, 23_598),
        "full-stack event sequence diverged (digest, events after the 50 ms setup)"
    );
}

/// One chaos run pinned in code: survivable seed 2006 draws a WAN fault
/// and a `LinkDegrade`, so its sends go through a link override and a
/// degraded endpoint as well as the base hop. The pin holds the link
/// model's draw order (DESIGN.md "Link model").
#[test]
fn chaos_seed_2006_matches_pinned_digest() {
    let report = run_seed(2006, &ChaosScenario::survivable());
    let draws = |f: fn(&FaultKind) -> bool| report.plan.faults.iter().any(|x| f(&x.kind));
    assert!(
        draws(|k| matches!(k, FaultKind::LinkDegrade { .. }))
            && draws(|k| {
                matches!(
                    k,
                    FaultKind::WanLossBurst { .. }
                        | FaultKind::WanLatencySpike { .. }
                        | FaultKind::WanPartition { .. }
                )
            }),
        "seed 2006 no longer draws both impairment paths\n{}",
        report.plan
    );
    assert_eq!(
        (report.digest, report.events),
        (0xfa6b_c24d_4fb3_6922, 197_634),
        "chaos seed 2006 event sequence diverged (digest, events)"
    );
}

/// FNV-1a over `text`'s bytes.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One hash over the fault lists of `seeds`, in order.
fn plans_hash(seeds: &[u64], survivable: bool) -> u64 {
    let text: String = seeds
        .iter()
        .map(|&s| format!("{:?}\n", ChaosPlan::generate(s, survivable).faults))
        .collect();
    fnv1a(&text)
}

/// Every plan `tests/chaos_matrix.rs` runs, pinned group by group: the
/// survivable seeds 0–19, the splicing seeds 500–504, the first 20 plans
/// from seed 2000 on that draw a gray fault, and the unconstrained seeds
/// 1000–1004. A change to the generator that moves one of them changes
/// which faults the matrices inject.
#[test]
fn chaos_matrix_plans_match_pinned_hashes() {
    let is_gray = |k: &FaultKind| {
        matches!(
            k,
            FaultKind::NodeSlowdown { .. }
                | FaultKind::LinkDegrade { .. }
                | FaultKind::AsymmetricPartition { .. }
        )
    };
    let gray: Vec<u64> = (2000..4000)
        .filter(|&s| {
            ChaosPlan::generate(s, true)
                .faults
                .iter()
                .any(|f| is_gray(&f.kind))
        })
        .take(20)
        .collect();
    assert_eq!(
        gray.len(),
        20,
        "seed range 2000..4000 yielded too few gray plans"
    );
    let survivable: Vec<u64> = (0..20).collect();
    let splice: Vec<u64> = (500..505).collect();
    let unconstrained: Vec<u64> = (1000..1005).collect();
    assert_eq!(
        [
            plans_hash(&survivable, true),
            plans_hash(&splice, true),
            plans_hash(&gray, true),
            plans_hash(&unconstrained, false),
        ],
        [
            0xcafe_9107_008b_40c1,
            0xe675_b2f2_a0cf_b577,
            0x3a31_a25c_15ae_0d0e,
            0xd3eb_b64b_2d94_2945,
        ],
        "a chaos matrix plan moved (survivable, splice, gray, unconstrained)"
    );
}

/// Survivable seeds 8 and 17 together crash and restore an instance, a
/// store, a mux and a backend, and partition an instance both ways and
/// one way: their event sequences pin how the orchestrator schedules
/// every crash, restart, partition and heal.
#[test]
fn chaos_seeds_8_and_17_match_pinned_digests() {
    let kinds: Vec<FaultKind> = [8, 17]
        .iter()
        .flat_map(|&s| ChaosPlan::generate(s, true).faults)
        .map(|f| f.kind)
        .collect();
    let draws = |f: fn(&FaultKind) -> bool| kinds.iter().any(f);
    assert!(
        draws(|k| matches!(k, FaultKind::InstanceCrash { .. }))
            && draws(|k| matches!(k, FaultKind::StoreCrash { .. }))
            && draws(|k| matches!(k, FaultKind::MuxCrash { .. }))
            && draws(|k| matches!(k, FaultKind::BackendCrash { .. }))
            && draws(|k| matches!(k, FaultKind::InstancePartition { .. }))
            && draws(|k| matches!(k, FaultKind::AsymmetricPartition { .. })),
        "seeds 8 and 17 no longer crash every role and partition an instance: {kinds:?}"
    );
    let sc = ChaosScenario::survivable();
    let runs: Vec<(u64, u64)> = [8, 17]
        .iter()
        .map(|&s| {
            let r = run_seed(s, &sc);
            (r.digest, r.events)
        })
        .collect();
    assert_eq!(
        runs,
        [
            (0xf8ad_c6f6_1090_931e, 185_546),
            (0x6de4_6cbe_6fae_548b, 199_536),
        ],
        "chaos seeds 8 and 17 event sequences diverged (digest, events)"
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
            let pkt = Packet::new(
                self.me(),
                self.peer(1),
                PROTO_PING,
                yoda::netsim::Bytes::new(),
            );
            ctx.send(pkt);
            // Two timers landing on the same microsecond tick, plus one
            // cancelled before it can fire.
            ctx.set_timer(SimTime::from_millis(3), TimerToken::new(1));
            ctx.set_timer(SimTime::from_millis(3), TimerToken::new(2));
            let id = ctx.set_timer(SimTime::from_millis(4), TimerToken::new(3));
            self.cancelled = Some(id);
            if self.index.is_multiple_of(2) {
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
            let offset = 1 + (ctx.node_rng().gen_range(0..3) as u32);
            let pkt = Packet::new(
                self.me(),
                self.peer(offset),
                PROTO_PING,
                yoda::netsim::Bytes::new(),
            );
            ctx.send(pkt);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
            self.fires += 1;
            if token.kind == 1 && self.fires < 8 {
                ctx.set_timer(SimTime::from_millis(2), TimerToken::new(1));
                let pkt = Packet::new(
                    self.me(),
                    self.peer(2),
                    PROTO_PING,
                    yoda::netsim::Bytes::new(),
                );
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
                let pkt = Packet::new(
                    node.me(),
                    node.peer(1),
                    PROTO_PING,
                    yoda::netsim::Bytes::new(),
                );
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

    /// Golden constants: this fixture's event sequence. An engine
    /// refactor must reproduce it bit-for-bit. A change that moves it
    /// changes what the engine does, and may land only as a deliberate
    /// re-baseline that names what moved and why (DESIGN.md "Digests"
    /// lists every move).
    const GOLDEN_DIGEST: u64 = 0x5048_d16a_8391_bea5;
    const GOLDEN_PACKETS: u64 = 356;
    const GOLDEN_EVENTS: u64 = 437;

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
