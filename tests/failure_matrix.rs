//! Failure-injection matrix: kill a Yoda instance at a sweep of times so
//! the crash lands in every phase of Figure 3/5 — during storage-a,
//! between SYN-ACK and the header, during the backend handshake, during
//! storage-b, and throughout the tunneling phase. The paper's invariant:
//! with at least one live instance and a TCPStore quorum, **no
//! established flow is ever broken**.

use yoda::core::testbed::{Testbed, TestbedConfig};
use yoda::core::{YodaConfig, YodaInstance};
use yoda::http::{BrowserClient, BrowserConfig, OriginServer};
use yoda::l4lb::rendezvous_pick;
use yoda::netsim::{Addr, Endpoint, NodeId, SimTime, What, Zone};

/// Runs one flow with an instance failure at `fail_ms` (absolute), and
/// returns (completed, broken, recovered).
fn run_with_failure_at(fail_ms: u64) -> (u64, u64, u64) {
    let mut tb = Testbed::build(TestbedConfig {
        seed: 5,
        num_instances: 2,
        num_stores: 3,
        num_backends: 4,
        num_muxes: 2,
        num_services: 1,
        pages_per_site: 10,
        ..TestbedConfig::default()
    });
    // Let the control plane settle before the client starts at t=1s; the
    // flow's phases then happen at deterministic offsets from 1s.
    tb.engine.run_for(SimTime::from_secs(1));
    let browser = tb.add_browser(
        0,
        BrowserConfig {
            processes: 2,
            max_pages: Some(2),
            http_timeout: SimTime::from_secs(30),
            ..BrowserConfig::default()
        },
    );
    // Fail both? No: fail instance 0 only; instance 1 must take over.
    tb.fail_instance_at(0, SimTime::from_millis(fail_ms));
    tb.engine.run_for(SimTime::from_secs(120));
    let recovered = tb
        .instances
        .iter()
        .filter(|&&i| tb.engine.is_alive(i))
        .map(|&i| tb.engine.node_ref::<YodaInstance>(i).recoveries)
        .sum();
    let b = tb.engine.node_ref::<BrowserClient>(browser);
    (b.completed, b.broken_flows, recovered)
}

#[test]
fn no_flow_breaks_wherever_the_failure_lands() {
    // The flow timeline (WAN RTT ≈ 130 ms): SYN arrives ~1.065 s,
    // storage-a ~1.0656 s, SYN-ACK sent, header arrives ~1.196 s, backend
    // handshake + storage-b ~1.198 s, tunneling until ~1.5-3 s, then more
    // pages. Sweep the kill time across all of it.
    let mut any_recovery = false;
    for fail_ms in (1040..1400).step_by(30).chain([1500, 1800, 2500, 4000]) {
        let (completed, broken, recovered) = run_with_failure_at(fail_ms);
        assert_eq!(
            broken, 0,
            "failure at {fail_ms} ms broke a flow (completed {completed})"
        );
        assert!(completed > 0, "failure at {fail_ms} ms: nothing completed");
        any_recovery |= recovered > 0;
    }
    assert!(any_recovery, "the sweep never exercised TCPStore recovery");
}

/// Mirrors the instance sweep for TCPStore: kill replica server 0 at a
/// sweep of times across every flow phase, then an instance 200 ms
/// later, so whatever flow state was written to the dead replica must
/// be recovered from its surviving partner (§6: keys are not
/// re-replicated; reads fall back).
#[test]
fn no_flow_breaks_wherever_the_store_kill_lands() {
    for fail_ms in (1040..1400).step_by(60).chain([1800, 2500]) {
        let mut tb = Testbed::build(TestbedConfig {
            seed: 11,
            num_instances: 2,
            num_stores: 3,
            num_backends: 4,
            num_muxes: 2,
            num_services: 1,
            pages_per_site: 10,
            ..TestbedConfig::default()
        });
        tb.engine.run_for(SimTime::from_secs(1));
        let browser = tb.add_browser(
            0,
            BrowserConfig {
                processes: 2,
                max_pages: Some(2),
                http_timeout: SimTime::from_secs(30),
                ..BrowserConfig::default()
            },
        );
        tb.fail_store_at(0, SimTime::from_millis(fail_ms));
        tb.fail_instance_at(0, SimTime::from_millis(fail_ms + 200));
        tb.engine.run_for(SimTime::from_secs(120));
        let b = tb.engine.node_ref::<BrowserClient>(browser);
        assert_eq!(
            b.broken_flows, 0,
            "store kill at {fail_ms} ms broke a flow (completed {})",
            b.completed
        );
        assert_eq!(b.pages_completed, 4, "store kill at {fail_ms} ms");
    }
}

/// Mirrors the instance sweep for the L4 layer: kill mux 0 at a sweep
/// of times across every flow phase. Re-hashed flows land on surviving
/// muxes; any that reach a different Yoda instance recover through
/// TCPStore — no flow may break, whichever phase the kill lands in.
#[test]
fn no_flow_breaks_wherever_the_mux_kill_lands() {
    for fail_ms in (1040..1400).step_by(60).chain([1800, 2500]) {
        let mut tb = Testbed::build(TestbedConfig {
            seed: 12,
            num_instances: 2,
            num_stores: 3,
            num_backends: 4,
            num_muxes: 3,
            num_services: 1,
            pages_per_site: 10,
            ..TestbedConfig::default()
        });
        tb.engine.run_for(SimTime::from_secs(1));
        let browser = tb.add_browser(
            0,
            BrowserConfig {
                processes: 2,
                max_pages: Some(2),
                http_timeout: SimTime::from_secs(30),
                ..BrowserConfig::default()
            },
        );
        tb.fail_mux_at(0, SimTime::from_millis(fail_ms));
        tb.engine.run_for(SimTime::from_secs(120));
        let b = tb.engine.node_ref::<BrowserClient>(browser);
        assert_eq!(
            b.broken_flows, 0,
            "mux kill at {fail_ms} ms broke a flow (completed {})",
            b.completed
        );
        assert_eq!(b.pages_completed, 4, "mux kill at {fail_ms} ms");
    }
}

#[test]
fn flows_survive_store_server_failure() {
    // §6: when a Memcached server fails its keys are not re-replicated;
    // reads fall back to the surviving replica (K=2).
    let mut tb = Testbed::build(TestbedConfig {
        seed: 6,
        num_instances: 3,
        num_stores: 3,
        num_backends: 4,
        num_muxes: 2,
        num_services: 1,
        pages_per_site: 10,
        ..TestbedConfig::default()
    });
    tb.engine.run_for(SimTime::from_secs(1));
    let browser = tb.add_browser(
        0,
        BrowserConfig {
            processes: 4,
            max_pages: Some(2),
            ..BrowserConfig::default()
        },
    );
    // Kill one store server early, and an instance later so recovery must
    // read from the surviving replicas.
    let store = tb.stores[0];
    tb.engine
        .schedule(SimTime::from_millis(1500), move |eng| eng.fail_node(store));
    tb.fail_instance_at(0, SimTime::from_millis(2500));
    tb.engine.run_for(SimTime::from_secs(120));
    let b = tb.engine.node_ref::<BrowserClient>(browser);
    assert_eq!(b.broken_flows, 0, "store failure must not break flows");
    assert_eq!(b.pages_completed, 8);
}

#[test]
fn flows_survive_mux_failure() {
    // §9: "L4 LB has built-in resilience to instance failures". A dead
    // mux's flows re-hash to surviving muxes; any flow that lands on a
    // different Yoda instance recovers through TCPStore.
    let mut tb = Testbed::build(TestbedConfig {
        seed: 8,
        num_instances: 3,
        num_stores: 3,
        num_backends: 4,
        num_muxes: 3,
        num_services: 1,
        pages_per_site: 10,
        ..TestbedConfig::default()
    });
    tb.engine.run_for(SimTime::from_secs(1));
    let browser = tb.add_browser(
        0,
        BrowserConfig {
            processes: 4,
            max_pages: Some(2),
            ..BrowserConfig::default()
        },
    );
    let mux = tb.muxes[0];
    tb.engine.schedule(SimTime::from_millis(2000), move |eng| {
        eng.fail_node(mux);
    });
    tb.engine.run_for(SimTime::from_secs(120));
    let b = tb.engine.node_ref::<BrowserClient>(browser);
    assert_eq!(b.broken_flows, 0, "mux failure must not break flows");
    assert_eq!(b.pages_completed, 8);
}

#[test]
fn backend_failure_terminates_its_flows_quickly() {
    // §5.2: when a backend dies, its connections are terminated (the
    // clients see a reset, not a 30 s hang) and new requests avoid it.
    let mut tb = Testbed::build(TestbedConfig {
        seed: 10,
        num_instances: 2,
        num_stores: 2,
        num_backends: 4,
        num_muxes: 2,
        num_services: 1,
        pages_per_site: 10,
        ..TestbedConfig::default()
    });
    tb.engine.run_for(SimTime::from_secs(1));
    // Long downloads so flows are mid-flight at the failure.
    let largest = tb
        .catalog
        .site(0)
        .objects
        .iter()
        .max_by_key(|o| o.size)
        .map(|o| o.path.clone())
        .expect("objects");
    let browser = tb.add_browser(
        0,
        BrowserConfig {
            processes: 8,
            max_pages: Some(2),
            fixed_object: Some(largest),
            http_timeout: SimTime::from_secs(30),
            retries: 1,
            ..BrowserConfig::default()
        },
    );
    tb.fail_backend_at(0, SimTime::from_millis(2500));
    tb.engine.run_for(SimTime::from_secs(120));
    let b = tb.engine.node_mut::<BrowserClient>(browser);
    // Flows through the dead backend were reset and retried; nothing hung
    // to the HTTP timeout and everything eventually completed.
    assert_eq!(b.timeouts, 0, "no flow may hang to the HTTP timeout");
    assert_eq!(b.broken_flows, 0);
    assert_eq!(b.pages_completed, 16);
    assert!(b.resets > 0, "mid-flight flows got reset notifications");
    assert!(b.request_latencies.max().unwrap_or(0.0) < 25_000.0);
}

// ----------------------------------------------------------------------
// The spliced shape, failed at every step (ROADMAP item 1(i))
// ----------------------------------------------------------------------

/// Fetches the spliced-flow sweep plans.
const SPLICED_FETCHES: u64 = 2;
/// The in-DC browser's address (outside 10/8: the instance takes 10.x
/// for backends).
const SWEEP_CLIENT: Addr = Addr::new(172, 16, 1, 1);

/// The `bulk_splice` shape on one connection at a time: an in-DC browser
/// fetching the largest object with `splice` and HTTP/1.1 inspection on,
/// so the server leg rides the mux in full and the client leg acks-only.
/// The control plane has settled and the browser was just added: the
/// next event starts it.
fn spliced_bed() -> (Testbed, NodeId) {
    let mut tb = Testbed::build(TestbedConfig {
        seed: 13,
        num_instances: 2,
        num_stores: 3,
        num_backends: 4,
        num_muxes: 3,
        num_services: 1,
        pages_per_site: 10,
        yoda: YodaConfig {
            splice: true,
            ..YodaConfig::default()
        },
        ..TestbedConfig::default()
    });
    tb.engine.run_for(SimTime::from_secs(1));
    let site = tb.catalog.site(0);
    let largest = site.objects.iter().max_by_key(|o| o.size).expect("objects");
    let cfg = BrowserConfig {
        processes: 1,
        max_pages: Some(SPLICED_FETCHES),
        fixed_object: Some(largest.path.clone()),
        site: 0,
        target: tb.vips[0],
        host: "service0.test".to_string(),
        http_timeout: SimTime::from_secs(30),
        ..BrowserConfig::default()
    };
    let browser = BrowserClient::new(cfg, SWEEP_CLIENT, tb.catalog.clone());
    let id = tb
        .engine
        .add_node("browser", SWEEP_CLIENT, Zone::Dc, Box::new(browser));
    (tb, id)
}

/// Steps until the browser has finished every fetch, one way or the
/// other (or two simulated minutes passed); returns the steps taken.
/// Every bed starts at the same instant, so `engine.now()` afterwards is
/// comparable across runs.
fn run_out(tb: &mut Testbed, browser: NodeId) -> u64 {
    let deadline = tb.engine.now() + SimTime::from_secs(120);
    let mut steps = 0;
    loop {
        let b = tb.engine.node_ref::<BrowserClient>(browser);
        if b.completed + b.broken_flows >= SPLICED_FETCHES || tb.engine.now() > deadline {
            return steps;
        }
        assert!(tb.engine.step(), "the engine ran dry");
        steps += 1;
    }
}

/// Runs the sweep's reference flow once, traced: its length in events,
/// its completion time, and its victims. Per fetch's connection those
/// are the serving instance (`rendezvous_pick` over the instances, the
/// mux's miss path), the client-leg mux and the server-leg mux
/// (`rendezvous_pick` over the muxes, the router's and the instance's
/// choice) — each node once, under the first role it plays.
fn spliced_probe() -> (u64, SimTime, Vec<(&'static str, NodeId)>) {
    let (mut tb, browser) = spliced_bed();
    tb.engine.enable_trace(1 << 20);
    let n = run_out(&mut tb, browser);
    let b = tb.engine.node_ref::<BrowserClient>(browser);
    assert_eq!((b.completed, b.broken_flows), (SPLICED_FETCHES, 0));
    // Each fetch's (client, backend) pair, from the backend legs on the
    // wire: (vip, client port) → backend.
    let vip = tb.vips[0];
    let mut flows: Vec<(Endpoint, Endpoint)> = Vec::new();
    for ev in tb.engine.trace().events() {
        let What::Packet { src, dst, .. } = ev.what else {
            continue;
        };
        let to_backend = src.addr == vip.addr && tb.service_backends[0].contains(&dst);
        if to_backend && !flows.iter().any(|(c, _)| c.port == src.port) {
            flows.push((Endpoint::new(SWEEP_CLIENT, src.port), dst));
        }
    }
    assert_eq!(
        flows.len() as u64,
        SPLICED_FETCHES,
        "one connection per fetch"
    );
    let pick = |a, b, among: &[Addr], ids: &[NodeId]| {
        let winner = rendezvous_pick(a, b, among).expect("candidates");
        ids[among
            .iter()
            .position(|&x| x == winner)
            .expect("a candidate")]
    };
    let mut victims: Vec<(&'static str, NodeId)> = Vec::new();
    for (client, backend) in flows {
        let vss = Endpoint::new(vip.addr, client.port);
        for victim in [
            (
                "serving instance",
                pick(client, vip, &tb.instance_addrs, &tb.instances),
            ),
            (
                "client-leg mux",
                pick(client, vip, &tb.mux_addrs, &tb.muxes),
            ),
            (
                "server-leg mux",
                pick(backend, vss, &tb.mux_addrs, &tb.muxes),
            ),
        ] {
            if !victims.iter().any(|v| v.1 == victim.1) {
                victims.push(victim);
            }
        }
    }
    (n, tb.engine.now(), victims)
}

/// Fails `victim` after `k` steps of the reference flow and runs it out:
/// every fetch completes, no flow breaks, and every byte the backends
/// served reached the client exactly once. Returns how much later than
/// the reference (`done`) the fetches completed.
fn spliced_kill_at(k: u64, victim: NodeId, done: SimTime) -> SimTime {
    let (mut tb, browser) = spliced_bed();
    for _ in 0..k {
        assert!(tb.engine.step(), "the engine ran dry");
    }
    tb.engine.fail_node(victim);
    run_out(&mut tb, browser);
    let b = tb.engine.node_ref::<BrowserClient>(browser);
    let case = format!("{victim:?} killed after {k} steps");
    assert_eq!(
        (b.completed, b.broken_flows),
        (SPLICED_FETCHES, 0),
        "{case}"
    );
    let served: u64 = tb
        .backends
        .iter()
        .map(|&id| tb.engine.node_ref::<OriginServer>(id).bytes_served)
        .sum();
    assert_eq!(b.body_bytes, served, "{case}: body bytes vs bytes served");
    tb.engine.now().saturating_sub(done)
}

/// Kills every victim after each of `points(n)` steps, n being the
/// reference flow's length. Prints, per victim, how many completions
/// slipped by at least half the 300 ms minimum data RTO (a retransmission
/// timeout had to fire) and every k, as runs of neighbouring sweep points
/// that slipped by the same tenth of a second, then the case count.
/// Returns the number of victims.
fn spliced_sweep(points: impl Fn(u64) -> Vec<u64>) -> usize {
    let (n, done, victims) = spliced_probe();
    let ks = points(n);
    let mut cases = 0;
    for &(role, victim) in &victims {
        // (first k, last k, lateness in tenths of a second)
        let mut runs: Vec<(u64, u64, u64)> = Vec::new();
        let mut rto = 0;
        for &k in &ks {
            let late = spliced_kill_at(k, victim, done);
            let tenths = if late >= SimTime::from_millis(150) {
                rto += 1;
                (late.as_millis() + 50) / 100
            } else {
                0
            };
            match runs.last_mut() {
                Some(run) if run.2 == tenths => run.1 = k,
                _ => runs.push((k, k, tenths)),
            }
            cases += 1;
        }
        let by_k: Vec<String> = runs
            .iter()
            .map(|&(a, b, t)| {
                let ks = if a == b {
                    format!("{a}")
                } else {
                    format!("{a}-{b}")
                };
                match t {
                    0 => format!("{ks} no RTO"),
                    t => format!("{ks} +{}.{} s", t / 10, t % 10),
                }
            })
            .collect();
        let total = ks.len();
        println!(
            "{role} {victim:?}: {rto} of {total} kills needed an RTO; k: {}",
            by_k.join(", ")
        );
    }
    println!("{cases} cases over {n} events");
    victims.len()
}

/// A serving instance, client-leg mux or server-leg mux may die at about
/// two dozen evenly spaced steps of a spliced, inspected flow's life
/// (ROADMAP 1(i); the shape "Splice coverage" waited on): no flow breaks
/// and no byte is lost or duplicated. The every-step variant is below.
#[test]
fn spliced_flow_survives_a_kill_at_every_24th_of_its_life() {
    let victims = spliced_sweep(|n| (0..24).map(|i| i * n / 24).collect());
    assert_eq!(victims, 3, "instance, client-leg mux, server-leg mux");
}

/// Every step of the same flow, for every victim (`scripts/check.sh`
/// runs it with `--ignored`).
#[test]
#[ignore = "the exhaustive sweep: run with --ignored (scripts/check.sh does)"]
fn spliced_flow_survives_a_kill_at_every_step_of_its_life() {
    spliced_sweep(|n| (0..n).collect());
}
