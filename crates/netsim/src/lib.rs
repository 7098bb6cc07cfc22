//! Deterministic discrete-event packet-level network simulator.
//!
//! `yoda-netsim` is the substrate every other crate in this workspace runs
//! on. It replaces the paper's 60-VM Windows Azure testbed with a
//! deterministic simulation: nodes exchange [`Packet`]s over links with
//! configurable latency and bandwidth, set timers, and can be failed and
//! restored at arbitrary simulated times.
//!
//! Design goals:
//!
//! * **Determinism** — given the same seed and the same scenario script, a
//!   simulation replays bit-for-bit. Event ties break on insertion order.
//! * **Sans-IO nodes** — a node is a state machine implementing [`Node`];
//!   all interaction with the world goes through [`Ctx`].
//! * **Failure injection** — any node can be killed ([`Engine::fail_node`])
//!   and later restarted; packets to and from dead nodes are dropped and
//!   their timers are suppressed, exactly like a crashed VM.
//!
//! # Examples
//!
//! ```
//! use yoda_netsim::{Engine, Node, Ctx, Packet, SimTime, Addr, TimerToken, Zone};
//!
//! struct Echo;
//! impl Node for Echo {
//!     fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
//!         let reply = Packet::new(pkt.dst, pkt.src, pkt.protocol, pkt.payload.clone());
//!         ctx.send(reply);
//!     }
//!     fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: TimerToken) {}
//! }
//!
//! let mut engine = Engine::new(7);
//! let a = engine.add_node("echo-a", Addr::new(10, 0, 0, 1), Zone::Dc, Box::new(Echo));
//! let _ = a;
//! engine.run_for(SimTime::from_secs(1));
//! ```

#![deny(warnings)]

#![forbid(unsafe_code)]

pub mod addr;
pub mod addrmap;
pub mod engine;
pub mod flowtable;
pub mod hash;
pub mod node;
pub mod packet;
pub mod rng;
pub mod service;
pub mod stats;
pub mod symtab;
pub mod time;
pub mod topology;
pub mod trace;
pub mod wheel;

pub use addr::{Addr, Endpoint};
pub use rng::Rng;
pub use engine::{Ctx, Engine, NodeId};
pub use flowtable::FlowTable;
pub use node::{Node, TimerId, TimerToken};
pub use packet::{
    Packet, Protocol, IPIP_HEADER_LEN, PROTO_CTRL, PROTO_IPIP, PROTO_PING, PROTO_PROBE, PROTO_RPC,
    PROTO_TCP,
};
pub use service::ServiceQueue;
pub use stats::{Counter, Histogram};
pub use symtab::{NameId, SymbolTable};
pub use time::SimTime;
pub use topology::{LinkSpec, OverrideId, Topology, Zone};
pub use trace::{TraceEvent, TraceKind, TraceSink};
