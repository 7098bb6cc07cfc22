//! CLI entry point: `cargo run -p yoda-tidy [-- --json | --effects]`.
//!
//! Prints every violation (with its taint path, when the violation is
//! derived from the call graph) and exits non-zero if the tree is not
//! clean. `--json` emits the machine-readable report instead (CI uploads
//! it as an artifact; `results/tidy_baseline.json` is the committed,
//! empty one). `--effects` dumps the per-function effect signatures
//! (committed as `results/tidy_effects.json`; `scripts/check.sh` and CI
//! require the fresh dump to be byte-identical).

#![deny(warnings)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let json = std::env::args().any(|a| a == "--json");
    let effects = std::env::args().any(|a| a == "--effects");
    let root = match yoda_tidy::workspace_root() {
        Ok(root) => root,
        Err(e) => {
            eprintln!("tidy: cannot locate workspace root: {e}");
            return ExitCode::FAILURE;
        }
    };
    if effects {
        let report = yoda_tidy::run_effects(&root);
        print!("{}", yoda_tidy::effects::to_json(&report));
        return ExitCode::SUCCESS;
    }
    let report = yoda_tidy::run(&root);

    if json {
        print!("{}", yoda_tidy::to_json(&report));
        return if report.is_clean() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    for v in &report.violations {
        println!("{v}");
    }
    for e in &report.allowlist_errors {
        println!("{e}");
    }

    if report.is_clean() {
        println!(
            "tidy: workspace is clean ({} files, {} functions, {} hot, {} sim)",
            report.stats.files,
            report.stats.functions,
            report.stats.hot_functions,
            report.stats.sim_functions
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "tidy: {} violation(s), {} allowlist error(s)",
            report.violations.len(),
            report.allowlist_errors.len()
        );
        println!("tidy: fix the code, or add a justified entry to tidy.allow");
        ExitCode::FAILURE
    }
}
