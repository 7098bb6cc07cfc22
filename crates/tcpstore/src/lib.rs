//! TCPStore: the persistent in-memory flow-state store (paper §4.3, §6).
//!
//! The paper builds TCPStore from **unmodified Memcached** servers plus a
//! **modified client library** that replicates every key-value pair onto K
//! servers chosen by K different hash functions over a consistent-hashing
//! ring, issuing the replica operations in parallel. This crate implements
//! exactly that split:
//!
//! * `proto` ([`StoreRequest`], [`StoreResponse`]) — the get/set/delete wire protocol,
//! * `ring` ([`HashRing`]) — consistent hashing with virtual nodes and K-replica
//!   selection,
//! * `server` ([`StoreServer`]) — a Memcached-style server node with a CPU service-time
//!   model (for the Figure 10 latency and Figure 11 CPU experiments),
//! * `client` ([`StoreClient`]) — the replicating client library embedded in every Yoda
//!   instance: decentralized server selection, parallel replica fan-out,
//!   first-response-wins reads.
//!
//! When a store server fails, key-value pairs are *not* re-replicated
//! ("flows finish quicker than the replication latency", §6); reads simply
//! fall back to the surviving replicas.

#![forbid(unsafe_code)]

mod client;
mod proto;
mod ring;
mod server;

pub use client::{
    ReplicaStat, StoreClient, StoreEvent, StoreOutcome, OP_TIMEOUT, STORE_HEDGE_KIND,
    STORE_RETRY_KIND, STORE_TIMER_KIND,
};
pub use proto::{StoreOp, StoreRequest, StoreResponse, StoreStatus};
pub use ring::HashRing;
pub use server::{StoreServer, StoreServerConfig};
