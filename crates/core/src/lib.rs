//! **Yoda**: a highly available layer-7 load balancer (EuroSys 2016).
//!
//! This crate is the paper's primary contribution — the rest of the
//! workspace provides the substrates (network simulation, TCP, HTTP,
//! TCPStore, the Ananta-style L4 LB, the assignment solvers, the traffic
//! trace). Yoda's availability rests on three design choices (§11):
//!
//! 1. **Decoupled TCP state**: every piece of flow state a failing
//!    instance would lose is persisted in TCPStore *before* the packet
//!    that commits to it is sent ([`flowstate`], [`instance`]).
//! 2. **TCP state reuse across instances**: deterministic SYN-ACK ISNs
//!    ([`isn`]) plus client-ISN reuse toward the backend make any
//!    instance able to continue any other instance's connection.
//! 3. **Front-and-back indirection**: instances speak to both clients and
//!    servers *as the VIP* (via the L4 LB's splitting and SNAT), so
//!    neither endpoint can observe which instance — or that any
//!    particular instance — is in the middle.
//!
//! Module map:
//!
//! * [`isn`] — deterministic SYN-ACK sequence numbers,
//! * [`flowstate`] — storage-a / storage-b records and keys,
//! * [`rules`] — the L7 rules engine (match/action/priority),
//! * [`instance`] — the Yoda instance packet driver,
//! * [`ctrl`] — controller↔instance messages,
//! * [`controller`] — monitor, assignment updater, policy interface,
//!   autoscaler,
//! * [`testbed`] — full-system assembly for experiments.

#![deny(warnings)]

#![forbid(unsafe_code)]

pub mod controller;
pub mod ctrl;
pub mod flowstate;
pub mod instance;
pub mod isn;
pub mod rules;
pub mod testbed;

pub use controller::{AutoscaleConfig, Controller, ControllerConfig, CpuSample};
pub use ctrl::{InstanceCtrl, CTRL_PORT};
pub use flowstate::{FlowRecord, SynRecord};
pub use instance::{YodaConfig, YodaInstance};
pub use rules::{Action, Matcher, Rule, RuleTable, SelectCtx};
pub use testbed::{Testbed, TestbedConfig, Tier};
