//! Compile-time `Send` witnesses.
//!
//! One engine runs on one thread; the parallelism that pays in this repo
//! is across independent engines — one per seed or chaos plan — handed
//! to separate threads. That needs a whole `Engine` (core, queued control
//! closures, every node's state) to be `Send`, and the property must not
//! be able to regress silently: these witnesses make it a compile error
//! to break — adding an `Rc` field anywhere inside `Engine` or a node
//! type fails `cargo test` before any test runs.
//!
//! The functions are deliberately empty: instantiating `assert_send::<T>`
//! is the whole test. There is nothing to execute, so each `#[test]` body
//! only proves the file compiled.

use yoda::chaos::StoreWitness;
use yoda::core::{Controller, YodaInstance};
use yoda::http::{BrowserClient, OriginServer, RateClient};
use yoda::l4lb::{EdgeRouter, Mux};
use yoda::netsim::addrmap::AddrMap;
use yoda::netsim::wheel::TimerWheel;
use yoda::netsim::{Endpoint, Engine, FlowTable, NameId, Node, SymbolTable, TraceEvent, TraceSink};
use yoda::proxy::ProxyInstance;
use yoda::tcpstore::StoreServer;

fn assert_send<T: Send>() {}
fn assert_sync<T: Sync>() {}

/// The engine itself — event queue, timer wheel, address map, trace sink,
/// symbol table, node slots, and every queued control closure — must be
/// able to move onto another thread whole.
#[test]
fn engine_and_internals_are_send() {
    assert_send::<Engine>();
    assert_send::<TimerWheel>();
    assert_send::<AddrMap>();
    assert_send::<TraceSink>();
    assert_send::<SymbolTable>();
}

/// Trace events outlive the run that recorded them and are read from
/// wherever the report is built; the interned name id is plain data, so
/// the whole event is both `Send` and `Sync`.
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

/// Every product node type: the paper's data plane (edge router, mux,
/// L7 instances, backends) and control plane (controller, TCPStore,
/// chaos witness) — the states an engine owns and carries with it.
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
/// is `Send` whenever its entries are.
#[test]
fn flow_tables_are_send() {
    assert_send::<FlowTable<(Endpoint, Endpoint), u64>>();
    assert_send::<FlowTable<u64, Box<dyn Node>>>();
}
