//! **Yoda**: a highly available layer-7 load balancer (EuroSys 2016).
//!
//! This crate is the paper's primary contribution, with the baseline it is
//! measured against and the testbed that runs both — the rest of the
//! workspace provides the substrates (network simulation, TCP, HTTP,
//! TCPStore, the Ananta-style L4 LB, the assignment solvers, the traffic
//! trace). Yoda's availability rests on three design choices (§11):
//!
//! 1. **Decoupled TCP state**: every piece of flow state a failing
//!    instance would lose is persisted in TCPStore *before* the packet
//!    that commits to it is sent ([`FlowRecord`], [`YodaInstance`]).
//! 2. **TCP state reuse across instances**: deterministic SYN-ACK ISNs
//!    ([`syn_ack_isn`]) plus client-ISN reuse toward the backend make any
//!    instance able to continue any other instance's connection.
//! 3. **Front-and-back indirection**: instances speak to both clients and
//!    servers *as the VIP* (via the L4 LB's splitting and SNAT), so
//!    neither endpoint can observe which instance — or that any
//!    particular instance — is in the middle.
//!
//! Module map:
//!
//! * `isn` ([`syn_ack_isn`]) — deterministic SYN-ACK sequence numbers,
//! * `flowstate` ([`FlowRecord`], [`SynRecord`]) — storage-a / storage-b records and keys,
//! * `rules` ([`RuleTable`]) — the L7 rules engine (match/action/priority),
//! * `pool` and `prober` ([`Prober`]) — beyond the paper, Prequal-style
//!   load-aware selection (§5.1's policies are static, so they cannot
//!   react to a slow backend): the per-rule probe pool `action=prequal`
//!   selects from, and the probe sampling and quarantine bookkeeping the
//!   instance drives, on the simulated clock and its seeded RNG,
//! * `instance` ([`YodaInstance`]) — the Yoda instance packet driver,
//! * `ctrl` ([`InstanceCtrl`]) — controller↔instance messages,
//! * `controller` ([`Controller`], [`Fleet`]) — monitor, assignment updater, policy interface,
//!   autoscaler,
//! * `testbed` ([`Testbed`], [`Tier`]) — full-system assembly for experiments,
//! * `proxy` ([`ProxyInstance`]) — the HAProxy-style baseline the testbed
//!   measures Yoda against (`Testbed::build_proxy`).

#![forbid(unsafe_code)]

mod controller;
mod ctrl;
mod flowstate;
mod instance;
mod isn;
mod pool;
mod prober;
mod proxy;
mod rules;
mod testbed;

pub use controller::{Controller, ControllerConfig, CpuSample, Event, Fleet, Health, Msg, Out};
pub use ctrl::{InstanceCtrl, CTRL_PORT};
pub use flowstate::{FlowRecord, SynRecord};
pub use instance::{
    make_cert, Durability, FlowIndex, FlowKey, Found, Leg, Pair, YodaConfig, YodaInstance,
    WRITE_BEHIND_CAP,
};
pub use isn::syn_ack_isn;
pub use prober::Prober;
pub use proxy::ProxyInstance;
pub use rules::{glob_match, Rule, RuleTable, SelectCtx};
pub use testbed::{Testbed, TestbedConfig, Tier};
