//! Compile-time shard-safety witnesses.
//!
//! The sharded multi-core engine (ROADMAP #1) moves the engine core,
//! queued control closures, and per-node state between worker threads at
//! epoch barriers. That is only sound if those types are `Send`, and the
//! property must not be able to regress silently: `yoda-tidy`'s
//! shard-safety rules catch the constructs lexically, and these witnesses
//! make the final composed guarantee a compile error to break — adding an
//! `Rc` field anywhere inside `Engine` or a node type fails `cargo test`
//! before any test runs.
//!
//! The functions are deliberately empty: instantiating `assert_send::<T>`
//! is the whole test. There is nothing to execute, so each `#[test]` body
//! only proves the file compiled.

use yoda::chaos::StoreWitness;
use yoda::core::{Controller, YodaInstance};
use yoda::http::{BrowserClient, OriginServer, RateClient};
use yoda::l4lb::{EdgeRouter, Mux};
use yoda::netsim::addrmap::AddrMap;
use yoda::netsim::shard::{EpochBarrier, ShardMailbox, ShardWorker};
use yoda::netsim::wheel::TimerWheel;
use yoda::netsim::{Endpoint, Engine, FlowTable, NameId, Node, SymbolTable, TraceEvent, TraceSink};
use yoda::proxy::ProxyInstance;
use yoda::tcpstore::StoreServer;

fn assert_send<T: Send>() {}
fn assert_sync<T: Sync>() {}

/// The engine itself — event queue, timer wheel, address map, trace sink,
/// symbol table, node slots, and every queued control closure — must be
/// able to move onto a shard worker thread whole.
#[test]
fn engine_and_internals_are_send() {
    assert_send::<Engine>();
    assert_send::<TimerWheel>();
    assert_send::<AddrMap>();
    assert_send::<TraceSink>();
    assert_send::<SymbolTable>();
}

/// Trace events cross epoch barriers between workers when shards merge
/// their timelines; the interned name id is plain data, so the whole
/// event is both `Send` and `Sync`.
#[test]
fn trace_events_are_send_and_sync() {
    assert_send::<TraceEvent>();
    assert_sync::<TraceEvent>();
    assert_send::<NameId>();
    assert_sync::<NameId>();
}

/// `Node: Send` is a supertrait bound, so any boxed node — and therefore
/// the engine's node table — is `Send` by construction. This witness
/// pins the bound itself; the per-type witnesses below pin the concrete
/// state structs so a violation names the offending type directly.
#[test]
fn boxed_nodes_are_send() {
    assert_send::<Box<dyn Node>>();
}

/// The sharded executor's own moving parts. A `ShardWorker` (nodes,
/// timer wheels, per-node RNG streams, effect log) is handed to a
/// spawned scope thread, so it must be `Send`; the mailbox additionally
/// crosses back to the coordinator for replay. The `EpochBarrier` is
/// *shared* by reference between the coordinator and every worker
/// simultaneously, so it needs the stronger `Sync`.
#[test]
fn shard_executor_types_are_send_and_sync() {
    assert_send::<ShardWorker>();
    assert_send::<ShardMailbox>();
    assert_sync::<EpochBarrier>();
    assert_send::<EpochBarrier>();
}

/// Every product node type: the paper's data plane (edge router, mux,
/// L7 instances, backends) and control plane (controller, TCPStore,
/// chaos witness). These are the states a shard worker owns and the
/// epoch barrier migrates.
#[test]
fn per_node_state_types_are_send() {
    assert_send::<EdgeRouter>();
    assert_send::<Mux>();
    assert_send::<YodaInstance>();
    assert_send::<Controller>();
    assert_send::<ProxyInstance>();
    assert_send::<OriginServer>();
    assert_send::<BrowserClient>();
    assert_send::<RateClient>();
    assert_send::<StoreServer>();
    assert_send::<StoreWitness>();
}

/// The table every per-packet lookup goes through. Its hasher is a
/// stateless value (no `RandomState`, nothing thread-bound), so a table
/// is `Send` whenever its entries are — node state built on it migrates
/// like any other.
#[test]
fn flow_tables_are_send() {
    assert_send::<FlowTable<(Endpoint, Endpoint), u64>>();
    assert_send::<FlowTable<u64, Box<dyn Node>>>();
}
