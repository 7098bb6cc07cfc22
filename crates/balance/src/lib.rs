//! Probing, load-aware backend selection (beyond the paper).
//!
//! Yoda §5.1 ships only *static* policies — weighted round-robin,
//! least-open-connections, and sticky sessions — which cannot react to a
//! heterogeneous or transiently slow backend. This crate adds the missing
//! adaptive layer, modelled on Prequal (*Load is not what you should
//! balance*, NSDI 2024):
//!
//! * [`Picker`] — the pluggable selection seam. Every policy (the three
//!   static ones included, via the adapters in [`picker`]) reduces to
//!   "given the live backend set, per-backend [`Signal`]s, the sim time
//!   and a seeded RNG, pick one backend". `RuleTable::apply` in
//!   `yoda-core` delegates through this trait instead of hard-coding
//!   match arms.
//! * [`ProbePool`] — a per-rule pool of recent probe results (RIF =
//!   requests-in-flight, plus a latency estimate), with entries evicted
//!   by staleness and by reuse count (Prequal §4).
//! * [`HotCold`] — hot-cold lexicographic selection over the pool: avoid
//!   backends whose RIF sits above the pool's quantile threshold, then
//!   pick the lowest latency estimate among the cold ones.
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

pub mod picker;
pub mod pool;
pub mod probe;
pub mod prober;

pub use picker::{HotCold, LeastLoaded, PickInput, Picker, Signal, StickyHash, WeightedSplit};
pub use pool::{PoolConfig, PoolEntry, ProbePool};
pub use probe::{ProbeReply, ProbeRequest, PROBE_PORT};
pub use prober::{ProbeConfig, Prober};
