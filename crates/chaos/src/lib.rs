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
//! * `orchestrator` ([`run_seed`]) — maps each fault onto the testbed's injection
//!   helpers (crash/restart, partition/heal) or onto time-windowed
//!   topology overrides (loss bursts, latency spikes, WAN blackholes),
//!   runs the scenario, and collects a [`ChaosReport`].
//! * `witness` ([`StoreWitness`]) — an in-DC node that continuously verifies TCPStore
//!   read-after-write on surviving replicas, with epoch guards so
//!   verdicts never span a store-membership change.
//! * `invariants` — post-run checks: flow conservation, zero broken
//!   flows (survivable), bounded resolution (unconstrained),
//!   controller/instance rule convergence, and probe-pool liveness.
//!
//! A failing seed reproduces bit-for-bit: `ChaosPlan::generate(seed, …)`
//! rebuilds the identical schedule and `run_plan` the identical run
//! (the report carries the engine's event digest to prove it).

#![forbid(unsafe_code)]

mod invariants;
mod orchestrator;
mod plan;
mod witness;

pub use orchestrator::{run_seed, ChaosReport, ChaosScenario};
pub use plan::{ChaosPlan, Fault, FaultKind, GrayTarget};
pub use witness::StoreWitness;
