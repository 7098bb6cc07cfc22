//! Experiment harness shared by the per-figure binaries.
//!
//! One binary per table/figure of the paper lives in `src/bin/`; this
//! library holds the common machinery: table printing, time-series
//! sampling hooks, and the comparative failover scenario used by both
//! Table 1 and Figure 12.

#![forbid(unsafe_code)]

mod failover;
mod report;
mod sampler;
mod storestats;

pub use failover::{run_failover, FailoverOutcome, FailoverSetup, LbKind};
pub use report::{f1, f2, pct, print_header, print_kv, Table};
pub use sampler::TimeSeries;
pub use storestats::StoreStatsSummary;

/// Returns the value following `--name`, if present.
pub fn arg_str(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let flag = format!("--{name}");
    args.iter()
        .position(|a| *a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// True when the bare flag `--name` is present.
pub fn arg_flag(name: &str) -> bool {
    let flag = format!("--{name}");
    std::env::args().any(|a| a == flag)
}
