//! Replays the catalogue of pinned runs (`yoda_chaos::cases`).
//!
//! ```text
//! run CASE       the case's line (`case digest events ok`), its end time
//!                and, for a chaos case, its report (counters and plan);
//!                a case that failed says how
//! run --pinned   the line of every pinned case: `results/pins.txt`
//! run --sweep    every step of every flow shape under every fault, one
//!                line per case: `sweep/<shape>/<fault>/<k> end recovered`
//!                (`scripts/sweep_diff.sh` compares two of these)
//! ```
//!
//! CASE is `golden`, `full-testbed`, `chaos/<matrix>/<seed>` or
//! `sweep/<shape>/<fault>/<k>`. Exits non-zero when a case fails its
//! checks.

use std::process::ExitCode;

use yoda_chaos::cases::{pinned, Case, Outcome, Shape};

/// Runs what `arg` names, printing as it goes; returns every outcome.
fn run(arg: &str) -> Result<Vec<Outcome>, String> {
    let end = |o: &Outcome| format!("{:.6}", o.end.as_secs_f64());
    match arg {
        "--pinned" => Ok(pinned()
            .into_iter()
            .map(Case::run)
            .inspect(|o| println!("{o}"))
            .collect()),
        "--sweep" => {
            let mut all = Vec::new();
            for shape in Shape::ALL {
                let r = shape.reference()?;
                for o in r.sweep(&(0..r.events).collect::<Vec<u64>>()) {
                    println!("{} {} {}", o.case, end(&o), o.recovered);
                    all.push(o);
                }
            }
            Ok(all)
        }
        name => {
            let case: Case = name.parse()?;
            let o = case.run();
            print!("{o}\nend {} s\n{}", end(&o), o.report);
            Ok(vec![o])
        }
    }
}

fn main() -> ExitCode {
    let arg = std::env::args().nth(1).unwrap_or_default();
    let outcomes = run(&arg).unwrap_or_else(|e| {
        eprintln!("{e}\nusage: run CASE | --pinned | --sweep");
        Vec::new()
    });
    let failed: Vec<&String> = outcomes
        .iter()
        .filter_map(|o| o.verdict.as_ref().err())
        .collect();
    failed.iter().for_each(|e| eprintln!("{}", e.trim_end()));
    if outcomes.is_empty() || !failed.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
