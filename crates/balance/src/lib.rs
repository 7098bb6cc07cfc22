//! Probing, load-aware backend selection (beyond the paper).
//!
//! Yoda §5.1 ships only *static* policies — weighted round-robin,
//! least-open-connections, and sticky sessions — which cannot react to a
//! heterogeneous or transiently slow backend. This crate adds the missing
//! adaptive layer, modelled on Prequal (*Load is not what you should
//! balance*, NSDI 2024):
//!
//! * [`ProbePool`] — a per-rule pool of recent probe results (RIF =
//!   requests-in-flight, plus a latency estimate), with entries evicted
//!   by staleness and by reuse count (Prequal §4), and hot-cold
//!   lexicographic selection over it: avoid backends whose RIF sits above
//!   the pool's quantile threshold, then pick the lowest latency estimate
//!   among the cold ones. `RuleTable::apply` in `yoda-core` runs it for
//!   `action=prequal` rules, next to the three static policies.
//! * [`Prober`] — the asynchronous probe driver: power-of-`d` sampling of
//!   probe targets, outstanding-probe bookkeeping, and quarantine of
//!   backends whose probes time out (failed nodes in `yoda-netsim` drop
//!   packets, so a dead backend is quarantined within one probe timeout).
//!
//! Everything here is driven by the discrete-event clock (`SimTime`
//! passed in by the caller) and the engine's seeded RNG: the crate never
//! reads wall-clock time and keeps all state in ordered containers, so
//! simulations using it stay bit-for-bit deterministic.

#![forbid(unsafe_code)]

mod pool;
mod probe;
mod prober;

pub use pool::{ProbePool, Signal};
pub use probe::{ProbeReply, ProbeRequest, PROBE_PORT};
pub use prober::{Prober, PROBE_TIMEOUT};
