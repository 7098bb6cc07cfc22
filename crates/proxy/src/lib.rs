//! The HAProxy-style baseline L7 proxy (paper §2.2–2.3).
//!
//! The comparison point for every availability experiment: a classic
//! proxy that **terminates TCP on both sides** and keeps all flow state
//! locally. "First, each proxy LB instance establishes a TCP connection
//! with the client and receives the HTTP content. Next, it inspects the
//! HTTP content and selects a server based on the user policies. Once the
//! server is selected, it establishes a TCP connection with the server and
//! simply copies the data between these two connections."
//!
//! Its defining weakness (Problem 1, §2.3): **each instance is a single
//! point of failure** — when it dies, both TCP connections' state dies
//! with it. Packets re-steered to a surviving proxy hit a stack with no
//! matching flow and are silently dropped, so the client stalls until its
//! HTTP timeout (Table 1, Figure 12).

#![deny(warnings)]

#![forbid(unsafe_code)]

pub mod instance;
mod testbed;

pub use instance::{ProxyConfig, ProxyInstance};
pub use testbed::{testbed, tier};
