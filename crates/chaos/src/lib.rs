//! **yoda-chaos**: seeded fault-plan generation, orchestration, and
//! availability-invariant checking for the Yoda testbed.
//!
//! The paper's central claim is *availability under churn*: Yoda keeps
//! every established flow alive through instance, mux, store, and
//! backend failures as long as a few preconditions hold (§6). This
//! crate turns that claim into a repeatable, FoundationDB-style
//! simulation-chaos harness:
//!
//! * `plan` — a [`ChaosPlan`] is a deterministic
//!   function of a single seed plus a regime. *Survivable* plans keep
//!   the schedule inside the availability preconditions; *unconstrained*
//!   plans deliberately violate them to test graceful degradation.
//! * `orchestrator` — maps each fault onto the testbed node it names
//!   (crash/restart, partition/heal, slowdown, link degrade) or onto
//!   time-windowed topology overrides (loss bursts, latency spikes, WAN
//!   blackholes), runs the scenario, and reports its counters and plan.
//! * `witness` ([`StoreWitness`]) — an in-DC node that continuously verifies TCPStore
//!   read-after-write on surviving replicas, with epoch guards so
//!   verdicts never span a store-membership change.
//! * `invariants` — post-run checks: flow conservation, zero broken
//!   flows (survivable), bounded resolution (unconstrained),
//!   controller/instance rule convergence, and probe-pool liveness.
//! * [`cases`] — the catalogue of pinned runs: each chaos seed, the
//!   failure sweep's cases and the digest fixtures, by name.
//!
//! A failing seed reproduces bit-for-bit: `ChaosPlan::generate(seed, …)`
//! rebuilds the identical schedule and `run chaos/<matrix>/<seed>` the
//! identical run (its line carries the engine's event digest to prove it).

#![forbid(unsafe_code)]

pub mod cases;
mod invariants;
mod orchestrator;
mod plan;
mod witness;

pub use plan::{ChaosPlan, Fault, FaultKind};
pub use witness::StoreWitness;
