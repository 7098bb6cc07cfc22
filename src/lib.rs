//! Umbrella crate for the Yoda L7 load balancer reproduction.
//!
//! Re-exports the public API of every workspace crate so examples and
//! downstream users can depend on a single crate:
//!
//! * [`netsim`] — deterministic discrete-event network simulator
//! * [`tcp`] — user-level TCP state machine
//! * [`http`] — HTTP codec, origin servers, browser emulator, probe codec
//! * [`tcpstore`] — replicated memcached-style flow-state store
//! * [`l4lb`] — Ananta-style L4 load balancer (muxes + edge router)
//! * [`assign`] — VIP→instance assignment (the Fig. 7 constraints, greedy
//!   solver, all-to-all baseline) and the synthetic §8 trace
//! * [`core`] — the Yoda L7 LB itself (instances, rules, controller,
//!   testbed) and the HAProxy-style baseline it is measured against
//! * [`chaos`] — seeded fault-plan generation, orchestration, invariants

pub use yoda_assign as assign;
pub use yoda_chaos as chaos;
pub use yoda_core as core;
pub use yoda_http as http;
pub use yoda_l4lb as l4lb;
pub use yoda_netsim as netsim;
pub use yoda_tcp as tcp;
pub use yoda_tcpstore as tcpstore;
