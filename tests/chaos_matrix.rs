//! Seeded chaos matrix (tier-1).
//!
//! Each seed deterministically generates a fault plan and replays it
//! against the full testbed. Survivable plans respect Yoda's §6
//! availability preconditions and must produce **zero** user-visible
//! breakage; unconstrained plans violate them on purpose and must only
//! degrade gracefully (every fetch resolves in bounded time, nothing
//! hangs, no flow vanishes from the conservation counters).
//!
//! A failing seed prints its full plan; rerun just that seed with e.g.
//! `CHAOS_SEED=13 cargo test --release --test chaos_matrix one_seed`.
//! Seed counts scale up via `CHAOS_SURVIVABLE_SEEDS` /
//! `CHAOS_UNCONSTRAINED_SEEDS` for longer local or CI soak runs.

use yoda::chaos::{run_plan, run_seed, ChaosPlan, ChaosScenario, Fault, FaultKind};
use yoda::netsim::SimTime;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn assert_seed_ok(seed: u64, sc: &ChaosScenario) {
    let report = run_seed(seed, sc);
    assert!(
        report.ok(),
        "chaos seed {seed} violated invariants — the plan below regenerates \
         bit-for-bit from the seed alone\n{}",
        report.render()
    );
}

#[test]
fn survivable_seeds_keep_every_flow_alive() {
    let n = env_u64("CHAOS_SURVIVABLE_SEEDS", 20);
    let sc = ChaosScenario::survivable();
    for seed in 0..n {
        assert_seed_ok(seed, &sc);
    }
}

#[test]
fn unconstrained_seeds_degrade_gracefully() {
    let n = env_u64("CHAOS_UNCONSTRAINED_SEEDS", 5);
    let sc = ChaosScenario::unconstrained();
    // Disjoint seed range from the survivable matrix, so the two tests
    // never mistake one another's plans.
    for seed in 1000..1000 + n {
        assert_seed_ok(seed, &sc);
    }
}

/// One-command repro hook: replays exactly one seed (survivable by
/// default, unconstrained when `CHAOS_UNCONSTRAINED=1`).
#[test]
fn one_seed() {
    let Ok(seed) = std::env::var("CHAOS_SEED") else {
        return;
    };
    let Ok(seed) = seed.parse::<u64>() else {
        panic!("CHAOS_SEED must be an integer");
    };
    let sc = if std::env::var("CHAOS_UNCONSTRAINED").is_ok() {
        ChaosScenario::unconstrained()
    } else {
        ChaosScenario::survivable()
    };
    let report = run_seed(seed, &sc);
    println!("{}", report.render());
    assert!(report.ok(), "seed {seed} failed\n{}", report.render());
}

/// Runs a single hand-built fault against the survivable testbed with
/// the mux fast path on, and checks both the availability invariants and
/// that the fast path actually carried traffic (so the kill really hit
/// flows with splices installed mid-transfer).
fn assert_splice_survives(kind: FaultKind) {
    let mut sc = ChaosScenario::survivable();
    sc.splice = true;
    let plan = ChaosPlan {
        seed: 0,
        survivable: true,
        faults: vec![Fault {
            at: SimTime::from_secs(10),
            duration: SimTime::from_secs(8),
            kind,
        }],
    };
    let report = run_plan(&plan, &sc);
    assert!(
        report.ok(),
        "splice chaos run violated invariants\n{}",
        report.render()
    );
    assert!(
        report.spliced > 0,
        "no packet took the mux fast path\n{}",
        report.render()
    );
    assert!(
        report.splices_installed > 0,
        "instances never installed a splice\n{}",
        report.render()
    );
}

/// Mux death with splices installed: entries die with the mux, traffic
/// re-steers to the surviving mux's slow path, and instances re-install
/// — no client-visible byte lost or duplicated (browser conservation).
#[test]
fn splice_survives_mux_kill_mid_transfer() {
    assert_splice_survives(FaultKind::MuxCrash { i: 0 });
}

/// Instance death with splices installed: the recovering instance
/// rebuilds flow state from TCPStore records and re-splices.
#[test]
fn splice_survives_instance_kill_mid_transfer() {
    assert_splice_survives(FaultKind::InstanceCrash { i: 0 });
}

/// The full seeded survivable matrix also holds with the fast path on
/// (a smaller slice than the default matrix — the faults are the same
/// generator, just replayed over spliced steady-state forwarding).
#[test]
fn survivable_seeds_hold_with_splicing() {
    let n = env_u64("CHAOS_SPLICE_SEEDS", 5);
    let mut sc = ChaosScenario::survivable();
    sc.splice = true;
    for seed in 500..500 + n {
        assert_seed_ok(seed, &sc);
    }
}

/// Gray-fault matrix: the first `CHAOS_GRAY_SEEDS` (default 20)
/// survivable plans that actually contain a gray fault (slowdown, link
/// degrade, or asymmetric partition) must hold the zero-breakage
/// invariants — slow-but-alive components are routed around, never
/// surfaced to clients. The generator's survivable budget caps the
/// slowdown intensity (factor and factor×duration), so these plans are
/// harsh but inside §6's availability preconditions.
#[test]
fn gray_fault_seeds_keep_every_flow_alive() {
    let n = env_u64("CHAOS_GRAY_SEEDS", 20);
    let sc = ChaosScenario::survivable();
    let is_gray = |k: FaultKind| {
        matches!(
            k,
            FaultKind::NodeSlowdown { .. }
                | FaultKind::LinkDegrade { .. }
                | FaultKind::AsymmetricPartition { .. }
        )
    };
    // Disjoint seed range (2000..) from the other matrices; seeds whose
    // plan drew no gray fault are skipped, so every run here exercises
    // the gray machinery.
    let mut ran = 0;
    for seed in 2000..4000 {
        if ran >= n {
            break;
        }
        let plan = ChaosPlan::generate(seed, &sc.shape(), &sc.budget);
        if !plan.faults.iter().any(|f| is_gray(f.kind)) {
            continue;
        }
        assert_seed_ok(seed, &sc);
        ran += 1;
    }
    assert_eq!(ran, n, "seed range 2000..4000 yielded too few gray plans");
}

/// The same seed must replay byte-identically: identical engine digest,
/// identical event count, identical rendered report.
#[test]
fn fixed_seed_chaos_run_is_byte_identical() {
    let sc = ChaosScenario::survivable();
    let a = run_seed(7, &sc);
    let b = run_seed(7, &sc);
    assert_eq!(a.digest, b.digest, "digest diverged across identical runs");
    assert_eq!(a.events, b.events);
    assert_eq!(a.render(), b.render());
}
