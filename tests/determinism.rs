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

use yoda::chaos::cases::{Case, Matrix, Outcome};
use yoda::chaos::{ChaosPlan, FaultKind};
use yoda::core::Target;

/// Same seed ⇒ bit-identical event trace (and therefore end state):
/// survivable chaos seed 8 — browsers fetching through muxes, instances,
/// backends and TCPStore while an instance, a store, a mux and a backend
/// crash and restore — run twice, to the same line, end time and report.
#[test]
fn same_seed_same_event_trace() {
    let run = || Case::Chaos(Matrix::Survivable, 8).run();
    let (first, second) = (run(), run());
    let state = |o: &Outcome| (o.to_string(), o.end, o.report.clone());
    assert_eq!(state(&first), state(&second), "one seed, two runs");
    // The scenario must actually have exercised the system for the digest
    // comparison to mean anything.
    let exercised = first.events > 100_000 && first.verdict.is_ok();
    assert!(exercised, "scenario too small or failing: {first}");
}

/// Different seeds ⇒ different traces (the digest actually discriminates).
#[test]
fn different_seed_different_event_trace() {
    let digest = |seed| Case::Chaos(Matrix::Survivable, seed).run().digest;
    assert_ne!(
        digest(1),
        digest(2),
        "digest failed to distinguish different seeds"
    );
}

/// `results/pins.txt`: one `case digest events ok` line per pinned case.
const PINS: &str = include_str!("../results/pins.txt");

/// Runs `case` and requires its line to be the pinned one. A change that
/// moves it changes the event sequence, not just its speed — on purpose
/// only, by the procedure in DESIGN.md "Digests".
fn assert_pinned(case: &str) -> Outcome {
    let outcome = case.parse::<Case>().unwrap().run();
    let pin = PINS.lines().find(|l| l.split(' ').next() == Some(case));
    assert_eq!(
        Some(outcome.to_string().as_str()),
        pin,
        "{case}: event sequence diverged from results/pins.txt"
    );
    outcome
}

/// The full stack: browsers, TCP, muxes, Yoda instances with a prequal
/// policy so the probe path runs too, stores and controller.
#[test]
fn full_stack_matches_pinned_digest() {
    assert_pinned("full-testbed");
}

/// Survivable seed 2006 draws a WAN fault and a `LinkDegrade`, so its
/// sends go through a link override and a degraded endpoint as well as
/// the base hop. The pin holds the link model's draw order (DESIGN.md
/// "Link model").
#[test]
fn chaos_seed_2006_matches_pinned_digest() {
    let kinds = kinds(&[2006]);
    let degrade = kinds
        .iter()
        .any(|k| matches!(k, FaultKind::LinkDegrade { .. }));
    let wan = kinds.iter().any(|k| {
        use FaultKind::*;
        matches!(
            k,
            WanLossBurst { .. } | WanLatencySpike { .. } | WanPartition { .. }
        )
    });
    assert!(
        degrade && wan,
        "seed 2006 no longer draws both impairment paths\n{kinds:?}"
    );
    assert_pinned("chaos/gray/2006");
}

/// The fault kinds of the survivable plans of `seeds`.
fn kinds(seeds: &[u64]) -> Vec<FaultKind> {
    let plans = seeds.iter().map(|&s| ChaosPlan::generate(s, true));
    plans.flat_map(|p| p.faults).map(|f| f.kind).collect()
}

/// FNV-1a over the fault lists of `seeds`, in order.
fn plans_hash(seeds: &[u64], survivable: bool) -> u64 {
    let plans = seeds.iter().map(|&s| ChaosPlan::generate(s, survivable));
    let text: String = plans.map(|p| format!("{:?}\n", p.faults)).collect();
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every plan `tests/chaos_matrix.rs` runs, pinned group by group: the
/// survivable seeds 0–19, the splicing seeds 500–504, the first 20 plans
/// from seed 2000 on that draw a gray fault, and the unconstrained seeds
/// 1000–1004. A change to the generator that moves one of them changes
/// which faults the matrices inject.
#[test]
fn chaos_matrix_plans_match_pinned_hashes() {
    let gray = Matrix::Gray.seeds(20);
    let survivable = Matrix::Survivable.seeds(20);
    let splice = Matrix::Splicing.seeds(5);
    let unconstrained = Matrix::Unconstrained.seeds(5);
    assert_eq!(
        [
            plans_hash(&survivable, true),
            plans_hash(&splice, true),
            plans_hash(&gray, true),
            plans_hash(&unconstrained, false),
        ],
        [
            0x8d6f_88e3_1460_382b,
            0x9413_0dee_c272_7a17,
            0xc446_620d_59ef_be82,
            0x83e5_651d_246b_8bc6,
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
    let kinds = kinds(&[8, 17]);
    let crashed = |t: fn(&Target) -> bool| {
        (kinds.iter()).any(|k| matches!(k, FaultKind::Crash(node) if t(node)))
    };
    let cuts: Vec<(bool, bool)> = (kinds.iter())
        .filter_map(|k| match *k {
            FaultKind::Partition {
                node: Target::Instance(_),
                cut_in,
                cut_out,
            } => Some((cut_in, cut_out)),
            _ => None,
        })
        .collect();
    assert!(
        crashed(|t| matches!(t, Target::Instance(_)))
            && crashed(|t| matches!(t, Target::Store(_)))
            && crashed(|t| matches!(t, Target::Mux(_)))
            && crashed(|t| matches!(t, Target::Backend(_)))
            && cuts.contains(&(true, true))
            && cuts.iter().any(|(cut_in, cut_out)| cut_in != cut_out),
        "seeds 8 and 17 no longer crash every role and partition an instance: {kinds:?}"
    );
    assert_pinned("chaos/survivable/8");
    assert_pinned("chaos/survivable/17");
}

/// The golden engine fixture (`yoda_chaos::cases`): an engine refactor
/// must reproduce its event sequence bit-for-bit.
mod golden {
    #[test]
    fn mixed_workload_matches_golden_digest() {
        let outcome = super::assert_pinned("golden");
        assert_eq!(
            outcome.end.as_micros(),
            200_000,
            "run_for leaves the clock at the deadline"
        );
    }
}
