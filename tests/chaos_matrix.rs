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
//! The ignored `soak` runs each matrix longer and prints one
//! `chaos-run: matrix seed digest events ok` line per run;
//! `scripts/check.sh` compares those lines with `results/chaos_runs.txt`.

use yoda::chaos::{run_seed, ChaosPlan, ChaosReport, ChaosScenario, FaultKind};
use yoda::core::Target;

/// Runs `seed`, prints its `chaos-run:` line (shown with `--nocapture`)
/// and requires every invariant to hold.
fn assert_seed_ok(matrix: &str, seed: u64, sc: &ChaosScenario) -> ChaosReport {
    let report = run_seed(seed, sc);
    println!(
        "chaos-run: {matrix} {seed} {:#018x} {} {}",
        report.digest,
        report.events,
        report.ok()
    );
    assert!(
        report.ok(),
        "chaos seed {seed} violated invariants — the plan below regenerates \
         bit-for-bit from the seed alone\n{}",
        report.render()
    );
    report
}

/// The first `n` survivable plans, from seed 0.
fn survivable(n: u64) {
    let sc = ChaosScenario::survivable();
    for seed in 0..n {
        assert_seed_ok("survivable", seed, &sc);
    }
}

/// The first `n` unconstrained plans, from seed 1000: a range disjoint
/// from the survivable matrix, so the two never mistake one another's
/// plans.
fn unconstrained(n: u64) {
    let sc = ChaosScenario::unconstrained();
    for seed in 1000..1000 + n {
        assert_seed_ok("unconstrained", seed, &sc);
    }
}

#[test]
fn survivable_seeds_keep_every_flow_alive() {
    survivable(20);
}

#[test]
fn unconstrained_seeds_degrade_gracefully() {
    unconstrained(5);
}

/// One-command repro hook: replays exactly one seed (survivable by
/// default, unconstrained when `CHAOS_UNCONSTRAINED=1`).
#[test]
fn one_seed() {
    #[allow(
        clippy::disallowed_methods,
        reason = "one-command failing-seed repro hook; the replayed run is fully determined by the seed"
    )]
    let Ok(seed) = std::env::var("CHAOS_SEED") else {
        return;
    };
    let Ok(seed) = seed.parse::<u64>() else {
        panic!("CHAOS_SEED must be an integer");
    };
    #[allow(
        clippy::disallowed_methods,
        reason = "selects which preset the repro hook replays; does not affect determinism of the run itself"
    )]
    let sc = if std::env::var("CHAOS_UNCONSTRAINED").is_ok() {
        ChaosScenario::unconstrained()
    } else {
        ChaosScenario::survivable()
    };
    let report = run_seed(seed, &sc);
    println!("{}", report.render());
    assert!(report.ok(), "seed {seed} failed\n{}", report.render());
}

/// The seeded survivable matrix also holds with the fast path on (five
/// seeds, a smaller slice than the default matrix — the faults are the
/// same generator, just replayed over spliced steady-state forwarding).
/// Every run carries traffic on the fast path, and the slice's plans
/// crash both an instance and a mux.
fn splicing() {
    let sc = ChaosScenario {
        survivable: true,
        splice: true,
    };
    let (mut instance, mut mux) = (false, false);
    for seed in 500..505 {
        let report = assert_seed_ok("splicing", seed, &sc);
        let spliced = report.spliced > 0 && report.splices_installed > 0;
        assert!(
            spliced,
            "seed {seed}: no splice carried traffic\n{}",
            report.render()
        );
        for f in &report.plan.faults {
            instance |= matches!(f.kind, FaultKind::Crash(Target::Instance(_)));
            mux |= matches!(f.kind, FaultKind::Crash(Target::Mux(_)));
        }
    }
    assert!(
        instance && mux,
        "no instance crash ({instance}) or mux crash ({mux})"
    );
}

#[test]
fn survivable_seeds_hold_with_splicing() {
    splicing();
}

/// Gray-fault matrix: the first `n` survivable plans that actually
/// contain a gray fault ([`FaultKind::is_gray`]: a slowdown, a link
/// degrade or a one-way partition) must hold the zero-breakage
/// invariants — slow-but-alive components are routed around, never
/// surfaced to clients. The
/// generator's survivable regime caps the slowdown intensity (factor and
/// factor×duration), so these plans are harsh but inside §6's
/// availability preconditions.
fn gray(n: u64) {
    let sc = ChaosScenario::survivable();
    // Disjoint seed range (2000..) from the other matrices; seeds whose
    // plan drew no gray fault are skipped, so every run here exercises
    // the gray machinery.
    let mut ran = 0;
    for seed in 2000..4000 {
        if ran >= n {
            break;
        }
        let plan = ChaosPlan::generate(seed, true);
        if !plan.faults.iter().any(|f| f.kind.is_gray()) {
            continue;
        }
        assert_seed_ok("gray", seed, &sc);
        ran += 1;
    }
    assert_eq!(ran, n, "seed range 2000..4000 yielded too few gray plans");
}

#[test]
fn gray_fault_seeds_keep_every_flow_alive() {
    gray(20);
}

/// The soak: each matrix at twice its tier-1 length (the unconstrained
/// one at ten plans), and the splicing slice as in tier-1: 95 runs.
/// `scripts/check.sh` runs it and compares its `chaos-run:` lines with
/// `results/chaos_runs.txt`.
#[test]
#[ignore = "soak, ~8 s in release: scripts/check.sh runs it with --ignored"]
fn soak() {
    survivable(40);
    unconstrained(10);
    gray(40);
    splicing();
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
