//! Deterministic discrete-event packet-level network simulator.
//!
//! `yoda-netsim` is the substrate every other crate in this workspace runs
//! on. It replaces the paper's 60-VM Windows Azure testbed with a
//! deterministic simulation: nodes exchange [`Packet`]s over links with
//! configurable latency, jitter and loss, set timers, and can be failed and
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
//! use yoda_netsim::{Engine, Node, Ctx, Packet, SimTime, Addr, Zone};
//!
//! struct Echo;
//! impl Node for Echo {
//!     fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
//!         let reply = Packet::new(pkt.dst, pkt.src, pkt.protocol, pkt.body.clone());
//!         ctx.send(reply);
//!     }
//! }
//!
//! let mut engine = Engine::new(7);
//! let a = engine.add_node("echo-a", Addr::new(10, 0, 0, 1), Zone::Dc, Box::new(Echo));
//! let _ = a;
//! engine.run_for(SimTime::from_secs(1));
//! ```

#![forbid(unsafe_code)]

mod addr;
mod addrmap;
mod bytes;
mod engine;
mod flowtable;
mod hash;
mod node;
mod packet;
mod rng;
mod service;
mod slab;
mod stats;
mod time;
mod topology;
mod trace;
mod wheel;

pub use crate::bytes::{add_be32, array_at, put_be, Bytes};
pub use addr::{Addr, AddrParseError, Endpoint};
pub use addrmap::AddrMap;
pub use engine::{Ctx, Engine, NodeId};
pub use flowtable::FlowTable;
pub use hash::{hash_bytes, hash_pair, hash_u32};
pub use node::{Node, TimerId, TimerToken};
pub use packet::{
    Head, Packet, Protocol, HEAD_CAP, IPIP_HEADER_LEN, PROTO_CTRL, PROTO_IPIP, PROTO_PING,
    PROTO_PROBE, PROTO_RPC, PROTO_TCP,
};
pub use rng::{Rng, SampleRange};
pub use service::ServiceQueue;
pub use slab::{Slab, SlabKey, PAGE_LEN};
pub use stats::Histogram;
pub use time::SimTime;
pub use topology::{LinkSpec, OverrideId, Topology, Zone};
pub use trace::{DropCause, Fate, Note, TraceEvent, TraceSink, What};
pub use wheel::{Fired, TimerWheel, WheelItem, L0_SLOTS, LEVEL_SHIFT};
