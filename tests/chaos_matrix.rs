//! Seeded chaos matrix (tier-1).
//!
//! Each seed deterministically generates a fault plan and replays it
//! against the full testbed (`yoda_chaos::cases`). Survivable plans
//! respect Yoda's §6 availability preconditions and must produce **zero**
//! user-visible breakage; unconstrained plans violate them on purpose and
//! must only degrade gracefully (every fetch resolves in bounded time,
//! nothing hangs, no flow vanishes from the conservation counters).
//!
//! Every run here is one of the soak's pinned runs, and its line must be
//! its line in `results/pins.txt`, which `run --pinned` regenerates in
//! full (`scripts/check.sh` compares the two). A failing seed prints its
//! full plan; `run chaos/<matrix>/<seed>` replays just that seed.

use yoda::chaos::cases::{Case, Matrix};
use yoda::chaos::{ChaosPlan, FaultKind};
use yoda::core::Target;

/// `results/pins.txt`: one `case digest events ok` line per pinned case.
const PINS: &str = include_str!("../results/pins.txt");

/// Runs the first `n` seeds of `matrix`, requires every invariant to hold
/// and each run's line to be its pinned one, and returns the seeds.
fn run_matrix(matrix: Matrix, n: usize) -> Vec<u64> {
    let seeds = matrix.seeds(n);
    assert_eq!(seeds.len(), n, "{}: too few seeds", matrix.name());
    for &seed in &seeds {
        let o = Case::Chaos(matrix, seed).run();
        if let Err(e) = &o.verdict {
            panic!(
                "chaos seed {seed} violated invariants — the plan below regenerates \
                 bit-for-bit from the seed alone\n{}{e}",
                o.report
            );
        }
        let (line, case) = (o.to_string(), o.case.to_string());
        let pin = PINS.lines().find(|l| l.split(' ').next() == Some(&case));
        assert_eq!(Some(line.as_str()), pin, "{case} diverged from its pin");
    }
    seeds
}

#[test]
fn survivable_seeds_keep_every_flow_alive() {
    run_matrix(Matrix::Survivable, 20);
}

#[test]
fn unconstrained_seeds_degrade_gracefully() {
    run_matrix(Matrix::Unconstrained, 5);
}

/// The seeded survivable matrix also holds with the fast path on (five
/// seeds, a smaller slice than the default matrix — the faults are the
/// same generator, just replayed over spliced steady-state forwarding).
/// Every run must carry traffic on the fast path (a run that carries
/// none fails its invariants), and the slice's plans crash both an
/// instance and a mux.
#[test]
fn survivable_seeds_hold_with_splicing() {
    let (mut instance, mut mux) = (false, false);
    for seed in run_matrix(Matrix::Splicing, 5) {
        for f in ChaosPlan::generate(seed, true).faults {
            instance |= matches!(f.kind, FaultKind::Crash(Target::Instance(_)));
            mux |= matches!(f.kind, FaultKind::Crash(Target::Mux(_)));
        }
    }
    assert!(
        instance && mux,
        "no instance crash ({instance}) or mux crash ({mux})"
    );
}

/// Gray-fault matrix: the first survivable plans from seed 2000 that
/// contain a gray fault ([`FaultKind::is_gray`]: a slowdown, a link
/// degrade or a one-way partition) must hold the zero-breakage
/// invariants — slow-but-alive components are routed around, never
/// surfaced to clients. The generator's survivable regime caps the
/// slowdown intensity (factor and factor×duration), so these plans are
/// harsh but inside §6's availability preconditions.
#[test]
fn gray_fault_seeds_keep_every_flow_alive() {
    run_matrix(Matrix::Gray, 20);
}
