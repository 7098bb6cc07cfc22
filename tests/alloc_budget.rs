//! Allocation budgets of the byte path (DESIGN.md "Byte path"), counted
//! by a global allocator that wraps `System` in this test binary only.
//! A segment allocates nothing on its way: its data is a view of its
//! sender's chunk, and its header rides by value in the packet's head,
//! where every hop reads and rewrites it:
//!
//! * a segment a sender emits, and the router, the mux (tunnel and
//!   splice) and the engine on its way, allocate nothing, a
//!   link-duplicated packet included;
//! * the instance tunnels a data segment without allocating: it decodes,
//!   translates and re-encodes the header in the packet;
//! * a TCP socket's segments, data or pure ACK, cost nothing, and
//!   `TcpStack::on_packet`/`on_timer` allocate nothing either: no
//!   segment vector, no event vector;
//! * moving a mebibyte through a connected `TcpStack` pair allocates
//!   under 1 KiB in all (nothing, measured): no copy of the data, and no
//!   header;
//! * `TcpStack::recv` hands out pending segments as they arrived,
//!   allocating nothing, however many are pending;
//! * a store request or response is encoded in one block, and a store
//!   op's bookkeeping is one vector, its `targets`;
//! * picking a backend for a new connection (`RuleTable::select`) makes at
//!   most one allocation, a live-backend list, on a split, a least-loaded
//!   and a sticky-hit rule;
//! * an enabled trace records a dropped packet and a node's note without
//!   allocating: an event is typed data, not text.
//!
//! The allocator also keeps the bytes this thread holds, which pins what
//! per-connection and set-up state costs to keep:
//!
//! * a connection held open by a `TcpStack` pair costs its two sockets in
//!   the stacks' slabs, its two flow-index entries and little more;
//! * a connection in TIME-WAIT holds no socket block, only its slab slot
//!   (≤ 80 bytes) and its flow-index entry;
//! * the website catalog in the benchmark's shape holds its objects, its
//!   pages and the shared filler body, and no path index.
//!
//! The counters are thread-locals, so the tests of this binary, which
//! `cargo test` runs on parallel threads, never see each other's
//! allocations. Every measured step runs after a warm-up, once tables,
//! the timer wheel's slab and reused buffers have reached their size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::sync::Arc;

use yoda::core::{RuleTable, SelectCtx};
use yoda::core::{Testbed, TestbedConfig, Tier};
use yoda::core::{YodaConfig, YodaInstance};
use yoda::http::site::MAX_OBJECT_BYTES;
use yoda::http::{HttpRequest, SiteCatalog, SiteConfig};
use yoda::l4lb::{CtrlMsg, EdgeRouter, Mux};
use yoda::netsim::{
    Addr, Bytes, Ctx, DropCause, Endpoint, Engine, Fate, Node, NodeId, Note, Packet, Rng, SimTime,
    TimerToken, Topology, TraceEvent, What, Zone, PROTO_IPIP, PROTO_TCP,
};
use yoda::tcp::{
    ConnId, ConnSlot, Flags, Segment, SeqNum, TcpEvent, TcpSocket, TcpStack, Translation,
};
use yoda::tcpstore::{
    StoreClient, StoreEvent, StoreOp, StoreRequest, StoreResponse, StoreServer, StoreServerConfig,
    StoreStatus,
};

thread_local! {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) this thread made.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those calls asked for (a `realloc`'s growth only).
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocation call that changes the thread's holding by `delta`.
fn count(delta: i64) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = ALLOCATED.try_with(|n| n.set(n.get() + delta.max(0) as u64));
    let _ = LIVE.try_with(|b| b.set(b.get() + delta));
}

struct Counting;

// SAFETY: every method hands its arguments unchanged to `System`, so each
// upholds `GlobalAlloc`'s contract exactly as `System` does. The counts are
// const-initialised thread-local `Cell`s without a destructor: bumping them
// allocates nothing and cannot re-enter the allocator, and `try_with`
// skips them once the thread is tearing down.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: the caller's `layout` contract is passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller's contract is passed on unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|b| b.set(b.get() - layout.size() as i64));
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f`; returns the allocations this thread made in it, and its value.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let ((allocs, _), out) = allocated(f);
    (allocs, out)
}

/// Runs `f`; returns the allocations this thread made in it and the bytes
/// they asked for, and its value.
fn allocated<R>(f: impl FnOnce() -> R) -> ((u64, u64), R) {
    let before = (ALLOCS.with(Cell::get), ALLOCATED.with(Cell::get));
    let out = f();
    let after = (ALLOCS.with(Cell::get), ALLOCATED.with(Cell::get));
    ((after.0 - before.0, after.1 - before.1), out)
}

/// Runs `f`; returns the bytes this thread holds after it minus before
/// it (what `f` built and kept), and its value.
fn bytes_held<R>(f: impl FnOnce() -> R) -> (i64, R) {
    let before = LIVE.with(Cell::get);
    let out = f();
    (LIVE.with(Cell::get) - before, out)
}

/// Runs `f` on `eng`; returns its allocations and the packets it sent.
fn allocations_and_packets(eng: &mut Engine, f: impl FnOnce(&mut Engine)) -> (u64, u64) {
    let sent = eng.packets_sent();
    let (allocs, ()) = allocations(|| f(eng));
    (allocs, eng.packets_sent() - sent)
}

// ----------------------------------------------------------------------
// The forwarding tier
// ----------------------------------------------------------------------

/// Holds the last packet it received, so a delivery only frees.
struct Sink {
    got: u64,
    last: Option<Packet>,
}

impl Node for Sink {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, pkt: Packet) {
        self.got += 1;
        self.last = Some(pkt);
    }
}

fn sink() -> Box<Sink> {
    Box::new(Sink { got: 0, last: None })
}

/// A data segment whose payload is a view of the caller's chunk, which
/// the caller keeps: it stays a view all the way.
fn sender_segment(chunk: &Bytes, from: Endpoint, to: Endpoint) -> Segment {
    Segment {
        src_port: from.port,
        dst_port: to.port,
        seq: SeqNum::new(1),
        ack: SeqNum::new(1),
        flags: Flags::ACK,
        window: 1 << 20,
        payload: chunk.clone(),
    }
}

#[test]
fn a_forwarded_segment_allocates_nothing() {
    let vip = Endpoint::new(Addr::new(100, 0, 0, 1), 80);
    let (router_addr, mux_addr) = (Addr::new(10, 0, 3, 1), Addr::new(10, 0, 2, 1));
    let (inst_addr, backend) = (
        Addr::new(10, 0, 0, 1),
        Endpoint::new(Addr::new(10, 1, 0, 1), 80),
    );
    let tunneled = Endpoint::new(Addr::new(172, 16, 0, 1), 40_000);
    let spliced = Endpoint::new(Addr::new(172, 16, 0, 1), 40_001);
    let mut eng = Engine::with_topology(5, Topology::uniform(SimTime::from_micros(100)));
    let client = eng.add_node("client", tunneled.addr, Zone::Dc, sink());
    let router = eng.add_node(
        "router",
        router_addr,
        Zone::Dc,
        Box::new(EdgeRouter::new(router_addr, vec![mux_addr])),
    );
    eng.add_addr(router, vip.addr);
    let mut mux = Mux::new(mux_addr);
    mux.set_vip_map(vip.addr, vec![inst_addr], 1);
    let mux = eng.add_node("mux", mux_addr, Zone::Dc, Box::new(mux));
    let inst = eng.add_node("inst", inst_addr, Zone::Dc, sink());
    let server = eng.add_node("backend", backend.addr, Zone::Dc, sink());
    // The instance's splice of the second flow: client leg → backend.
    let install = CtrlMsg::SpliceInstall {
        from: spliced,
        to: vip,
        xlate: Translation {
            src: Endpoint::new(vip.addr, spliced.port),
            dst: backend,
            seq_add: 7,
            ack_add: 9,
        },
        acks_only: false,
    };
    eng.with_node_ctx::<Mux>(mux, |m, ctx| {
        m.on_packet(
            ctx,
            install.into_packet(Endpoint::new(inst_addr, 0), mux_addr),
        );
    });
    let chunk = Bytes::from(vec![0x5A; 1460]);
    // Sender → router → mux → (instance | backend), one packet, timed:
    // the allocations on the way and the bytes they asked for.
    let trip = |eng: &mut Engine, from: Endpoint, encoded: Option<Packet>| {
        allocated(|| {
            let pkt =
                encoded.unwrap_or_else(|| sender_segment(&chunk, from, vip).into_packet(from, vip));
            eng.with_node_ctx::<Sink>(client, |_, ctx| ctx.send(pkt));
            eng.run_for(SimTime::from_millis(1));
        })
        .0
    };
    for _ in 0..64 {
        trip(&mut eng, tunneled, None);
        trip(&mut eng, spliced, None);
    }
    let got = |eng: &Engine| {
        (
            eng.node_ref::<Sink>(inst).got,
            eng.node_ref::<Sink>(server).got,
        )
    };
    assert_eq!(got(&eng), (64, 64), "the warm-up went both ways");
    for from in [tunneled, spliced] {
        // The whole trip, encode included: nothing.
        assert_eq!(
            trip(&mut eng, from, None),
            (0, 0),
            "{from}: sender to receiver"
        );
        // Router, mux and engine on an encoded packet: nothing.
        let pkt = sender_segment(&chunk, from, vip).into_packet(from, vip);
        assert_eq!(
            trip(&mut eng, from, Some(pkt)),
            (0, 0),
            "{from}: forwarding"
        );
        // A cloned packet, as link duplication delivers it (the other
        // copy still in flight): each copy owns its head, so the hops
        // rewrite this one and copy nothing.
        let pkt = sender_segment(&chunk, from, vip).into_packet(from, vip);
        let twin = pkt.clone();
        assert_eq!(trip(&mut eng, from, Some(pkt)), (0, 0), "{from}: cloned");
        assert_eq!(
            Segment::from_packet(twin).map(|s| s.seq),
            Some(SeqNum::new(1)),
            "{from}: the twin is as it was sent"
        );
    }
    assert_eq!(got(&eng), (67, 67));
    let last = eng.node_ref::<Sink>(server).last.clone().expect("spliced");
    assert_eq!(last.src, Endpoint::new(vip.addr, spliced.port));
    assert_eq!(
        last.body.as_ptr(),
        chunk.as_ptr(),
        "the sender's chunk, not a copy"
    );
    let seg = Segment::from_packet(last).expect("a segment");
    assert_eq!((seg.seq, seg.payload), (SeqNum::new(8), chunk));

    // The instance's tunnel, in a testbed, on its largest response: no
    // data segment it forwards costs it an allocation.
    let calls = tunneled_through_the_instance();
    let data: Vec<(u64, u64)> = calls
        .iter()
        .filter(|&&(len, _)| len > 0)
        .map(|&(_, cost)| cost)
        .collect();
    assert!(data.len() > 200, "{} data segments tunneled", data.len());
    // The first carries the request: the instance parses it, picks a
    // backend and writes flow state, which costs more.
    let steady = &data[1..];
    let other: Vec<_> = steady.iter().filter(|&&c| c != (0, 0)).collect();
    assert!(
        other.is_empty(),
        "tunneled segments that allocated: {other:?}"
    );
}

/// A Yoda instance whose packet handler is metered: per call, the data
/// length of the tunneled segment it got (0 for any other packet) and the
/// allocations the call made, with the bytes they asked for.
struct Metered {
    inner: YodaInstance,
    calls: Vec<(usize, (u64, u64))>,
}

impl Node for Metered {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.inner.on_start(ctx);
    }
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let len = if pkt.protocol == PROTO_IPIP {
            pkt.body.len()
        } else {
            0
        };
        let (cost, ()) = allocated(|| self.inner.on_packet(ctx, pkt));
        self.calls.push((len, cost));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        self.inner.on_timer(ctx, token);
    }
}

/// Fetches the largest object of a one-instance testbed whose instance is
/// [`Metered`]; returns its calls.
fn tunneled_through_the_instance() -> Vec<(usize, (u64, u64))> {
    let tier = Tier {
        prefix: "yoda",
        make: Arc::new(|addr, stores, muxes| {
            let inner = YodaInstance::new(YodaConfig::default(), addr, stores, muxes.to_vec());
            let calls = Vec::new();
            Box::new(Metered { inner, calls })
        }),
    };
    let mut tb = Testbed::build_with(
        TestbedConfig {
            seed: 3,
            num_instances: 1,
            num_stores: 2,
            num_backends: 1,
            num_muxes: 1,
            num_services: 1,
            pages_per_site: 4,
            ..TestbedConfig::default()
        },
        tier,
    );
    tb.engine.run_for(SimTime::from_secs(1));
    let (vip, site) = (tb.vips[0], tb.catalog.site(0));
    let largest = site.objects.iter().max_by_key(|o| o.size).expect("objects");
    let (size, path, host) = (largest.size, largest.path.clone(), site.host.clone());
    let me = Addr::new(172, 16, 0, 1);
    let client = tb.engine.add_node("client", me, Zone::External, peer());
    tb.engine.with_node_ctx::<Peer>(client, |p, ctx| {
        let local = Endpoint::new(me, p.stack.ephemeral_port());
        p.conn = Some(p.stack.connect(ctx, local, vip));
    });
    tb.engine.run_for(SimTime::from_secs(1));
    let get = HttpRequest::get(path).with_header("Host", host).encode();
    send(&mut tb.engine, client, &get);
    tb.engine.run_for(SimTime::from_secs(10));
    assert!(
        tb.engine.node_ref::<Peer>(client).received > size,
        "the body arrived"
    );
    std::mem::take(&mut tb.engine.node_mut::<Metered>(tb.instances[0]).calls)
}

// ----------------------------------------------------------------------
// TCP sockets and stacks
// ----------------------------------------------------------------------

/// Either end of a bulk transfer: drains and counts what arrives, into
/// one kept vector, unless told to leave it pending.
struct Peer {
    stack: TcpStack,
    conn: Option<ConnId>,
    rx: Vec<Bytes>,
    hold: bool,
    received: usize,
    /// Connections whose handshake completed here.
    established: usize,
}

impl Peer {
    fn handle(&mut self, events: impl IntoIterator<Item = TcpEvent>) {
        for ev in events {
            match ev {
                TcpEvent::Incoming(id, _) => self.conn = Some(id),
                TcpEvent::Connected(id) => {
                    self.conn = Some(id);
                    self.established += 1;
                }
                TcpEvent::Data(id) if !self.hold => {
                    self.stack.recv(id, &mut self.rx);
                    self.received += self.rx.iter().map(Bytes::len).sum::<usize>();
                    self.rx.clear();
                }
                _ => {}
            }
        }
    }
}

impl Node for Peer {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let events = self.stack.on_packet(ctx, pkt);
        self.handle(events);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        let events = self.stack.on_timer(ctx, token);
        self.handle(events);
    }
}

fn peer() -> Box<Peer> {
    Box::new(Peer {
        stack: TcpStack::new(),
        conn: None,
        rx: Vec::new(),
        hold: false,
        received: 0,
        established: 0,
    })
}

/// A client and a listening server peer, connected; returns the engine,
/// the client and the server.
fn connected_peers(seed: u64) -> (Engine, NodeId, NodeId) {
    let mut eng = Engine::with_topology(seed, Topology::uniform(SimTime::from_micros(200)));
    let server_ep = Endpoint::new(Addr::new(10, 1, 0, 1), 80);
    let server = eng.add_node("server", server_ep.addr, Zone::Dc, peer());
    eng.node_mut::<Peer>(server).stack.listen(server_ep);
    let client = eng.add_node("client", Addr::new(10, 2, 0, 1), Zone::Dc, peer());
    eng.with_node_ctx::<Peer>(client, |p, ctx| {
        let local = Endpoint::new(Addr::new(10, 2, 0, 1), p.stack.ephemeral_port());
        p.conn = Some(p.stack.connect(ctx, local, server_ep));
    });
    eng.run_for(SimTime::from_millis(5));
    (eng, client, server)
}

/// Queues `data` on the client's connection: the segments the window
/// lets out go on the wire at once.
fn send(eng: &mut Engine, client: NodeId, data: &Bytes) {
    eng.with_node_ctx::<Peer>(client, |p, ctx| {
        let conn = p.conn.expect("connected");
        p.stack.send(ctx, conn, data.clone());
    });
}

#[test]
fn a_tcp_segment_and_a_stack_call_allocate_nothing() {
    let (mut eng, client, server) = connected_peers(11);
    // Warm-up: bulk rounds larger than anything measured below, so the
    // send queue's deque, the receive vectors, the out buffer and the
    // wheel are at size.
    let bulk = Bytes::from(vec![1; 200 * 1460]);
    for _ in 0..3 {
        send(&mut eng, client, &bulk);
        eng.run_for(SimTime::from_millis(200));
    }
    assert_eq!(eng.node_ref::<Peer>(server).received, 3 * bulk.len());

    // `send`: eight data segments, each a view of the chunk.
    let data = Bytes::from(vec![2; 8 * 1460]);
    let (allocs, packets) = allocations_and_packets(&mut eng, |eng| send(eng, client, &data));
    assert_eq!(packets, 8, "an open window lets all eight out");
    assert_eq!(allocs, 0, "send");
    // Both stacks' `on_packet`s, data in and pure ACKs back: not one
    // allocation.
    let (allocs, packets) =
        allocations_and_packets(&mut eng, |eng| eng.run_for(SimTime::from_millis(50)));
    assert!(packets >= 8, "the ACKs went back: {packets}");
    assert_eq!(allocs, 0, "on_packet");
    assert_eq!(
        eng.node_ref::<Peer>(server).received,
        3 * bulk.len() + data.len()
    );

    // `on_timer`: the server hears nothing, the client's RTO retransmits.
    eng.partition_node(server);
    let one = Bytes::from(vec![3; 1460]);
    let (allocs, packets) = allocations_and_packets(&mut eng, |eng| send(eng, client, &one));
    assert_eq!((allocs, packets), (0, 1));
    let (allocs, packets) =
        allocations_and_packets(&mut eng, |eng| eng.run_for(SimTime::from_secs(1)));
    assert!(packets >= 1, "the RTO fired");
    assert_eq!(allocs, 0, "on_timer");
    eng.heal_node(server);
    eng.run_for(SimTime::from_secs(5));
    assert_eq!(
        eng.node_ref::<Peer>(server).received,
        3 * bulk.len() + data.len() + one.len()
    );
}

#[test]
fn a_mebibyte_through_a_stack_pair_copies_no_data() {
    let (mut eng, client, server) = connected_peers(19);
    // Warm-up, as above, at the measured size: buffers, vectors and the
    // wheel grown to what a mebibyte in flight needs.
    let bulk = Bytes::from(vec![1; 1 << 20]);
    for _ in 0..3 {
        send(&mut eng, client, &bulk);
        eng.run_for(SimTime::from_secs(2));
    }
    let data: Bytes = (0..1 << 20).map(|i| (i % 251) as u8).collect();
    let ((allocs, bytes), ()) = allocated(|| {
        send(&mut eng, client, &data);
        eng.run_for(SimTime::from_secs(2));
    });
    assert_eq!(
        eng.node_ref::<Peer>(server).received,
        3 * bulk.len() + data.len()
    );
    // About 720 data segments and their ACKs: 0 bytes in 0 allocations
    // (a copy of every data segment costs 1.1 MiB). The 1 KiB margin is
    // under one 8-byte block a segment, so any per-segment allocation
    // fails it.
    assert!(
        bytes < 1024,
        "{bytes} bytes in {allocs} allocations to move {} bytes",
        data.len()
    );
}

#[test]
fn a_stack_read_of_pending_segments_allocates_nothing() {
    let (mut eng, client, server) = connected_peers(17);
    eng.node_mut::<Peer>(server).hold = true;
    let data: Bytes = (0..8 * 1460u32).map(|i| (i % 251) as u8).collect();
    send(&mut eng, client, &data);
    eng.run_for(SimTime::from_millis(50));
    let p = eng.node_mut::<Peer>(server);
    let conn = p.conn.expect("accepted");
    let mut rx = Vec::new();
    let (allocs, ()) = allocations(|| p.stack.recv(conn, &mut rx));
    assert_eq!(rx.len(), 8, "one slice per pending segment");
    assert_eq!(allocs, 0, "recv joined what was pending");
    assert_eq!(rx.concat(), &data[..]);
    // A vector that already holds slices gets the next ones appended.
    send(&mut eng, client, &data.slice(..1460));
    eng.run_for(SimTime::from_millis(50));
    let p = eng.node_mut::<Peer>(server);
    p.stack.recv(conn, &mut rx);
    assert_eq!(rx.len(), 9);
    assert_eq!(rx.concat(), [&data[..], &data[..1460]].concat());
}

/// Connections a pair of peers opens in one go.
const HELD: usize = 2_000;

/// Adds a client and a listening server peer on the `n`-th address pair;
/// returns the client, the server, the client's address and the server's
/// listening endpoint.
fn peers(eng: &mut Engine, n: u8) -> (NodeId, NodeId, Addr, Endpoint) {
    let server_ep = Endpoint::new(Addr::new(10, 1, n, 1), 80);
    let server = eng.add_node("server", server_ep.addr, Zone::Dc, peer());
    eng.node_mut::<Peer>(server).stack.listen(server_ep);
    let client_addr = Addr::new(10, 2, n, 1);
    let client = eng.add_node("client", client_addr, Zone::Dc, peer());
    (client, server, client_addr, server_ep)
}

/// Opens `HELD` connections from `client` (at `addr`) to `server_ep` and
/// runs until every handshake is done and every handshake timer fired.
fn open_held(eng: &mut Engine, (client, _, addr, server_ep): (NodeId, NodeId, Addr, Endpoint)) {
    eng.with_node_ctx::<Peer>(client, |p, ctx| {
        for _ in 0..HELD {
            let local = Endpoint::new(addr, p.stack.ephemeral_port());
            p.stack.connect(ctx, local, server_ep);
        }
    });
    eng.run_for(SimTime::from_secs(4));
}

#[test]
fn a_held_connection_costs_its_two_sockets_and_little_more() {
    let mut eng = Engine::with_topology(23, Topology::uniform(SimTime::from_micros(200)));
    let warm = peers(&mut eng, 0);
    let pair = peers(&mut eng, 1);
    // Warm-up on another pair: the engine's wheel and packet buffers
    // reach the size `HELD` handshakes need, so what is measured below
    // is what the measured pair's stacks keep.
    open_held(&mut eng, warm);
    let (held, ()) = bytes_held(|| open_held(&mut eng, pair));
    for node in [warm.0, warm.1, pair.0, pair.1] {
        assert_eq!(eng.node_ref::<Peer>(node).established, HELD);
    }
    assert_eq!(eng.timer_backlog(), 0, "idle connections time nothing");
    // About 870 bytes: both sockets (a boxed `TcpSocket` and its 80-byte
    // slot in a page of its stack's slab; 344 bytes inline in the slot
    // before TIME-WAIT tombstones) and both flow-index entries. Sockets
    // held in the buckets of a hash table sized to its peak cost about
    // 1,500.
    let per_conn = held / HELD as i64;
    assert!(per_conn <= 1_000, "{per_conn} bytes held per connection");
}

/// Either end of connections closed both ways: it closes its half once
/// the peer closed, so the side that closed first ends in TIME-WAIT.
#[derive(Default)]
struct Closer {
    stack: TcpStack,
    /// Connections whose handshake completed here.
    conns: Vec<ConnId>,
}

impl Closer {
    fn handle(&mut self, ctx: &mut Ctx<'_>, events: impl IntoIterator<Item = TcpEvent>) {
        for ev in events {
            match ev {
                TcpEvent::Connected(id) => self.conns.push(id),
                TcpEvent::PeerClosed(id) => self.stack.close(ctx, id),
                _ => {}
            }
        }
    }
}

impl Node for Closer {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let events = self.stack.on_packet(ctx, pkt);
        self.handle(ctx, events);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        let events = self.stack.on_timer(ctx, token);
        self.handle(ctx, events);
    }
}

/// Opens `HELD` connections between a client and a listening server
/// `Closer` on the `n`-th address pair; returns the client once every
/// handshake is done.
fn closers(eng: &mut Engine, n: u8) -> NodeId {
    let server_ep = Endpoint::new(Addr::new(10, 1, n, 1), 80);
    let server = eng.add_node("server", server_ep.addr, Zone::Dc, Box::<Closer>::default());
    eng.node_mut::<Closer>(server).stack.listen(server_ep);
    let client_addr = Addr::new(10, 2, n, 1);
    let client = eng.add_node("client", client_addr, Zone::Dc, Box::<Closer>::default());
    eng.with_node_ctx::<Closer>(client, |c, ctx| {
        for _ in 0..HELD {
            let local = Endpoint::new(client_addr, c.stack.ephemeral_port());
            c.stack.connect(ctx, local, server_ep);
        }
    });
    eng.run_for(SimTime::from_secs(4));
    client
}

/// Closes every connection of `client` first; its peer closes back. Runs
/// until the FINs are through, short of the 1 s TIME-WAIT.
fn close_all(eng: &mut Engine, client: NodeId) {
    eng.with_node_ctx::<Closer>(client, |c, ctx| {
        for id in c.conns.clone() {
            c.stack.close(ctx, id);
        }
    });
    eng.run_for(SimTime::from_millis(200));
}

/// Closing a connection both ways frees both sockets' blocks: the
/// closer's side keeps a tombstone in its slab slot for TIME-WAIT, the
/// other side's slot is freed. Measured: the two blocks less 1 byte a
/// connection that the pair's own buffers grew by (while the socket sat
/// inline in its slot, nothing: the slab keeps its pages). The bound
/// allows 8 bytes of such growth.
#[test]
fn a_time_wait_connection_holds_no_socket_block() {
    assert!(std::mem::size_of::<ConnSlot>() <= 80);
    let mut eng = Engine::with_topology(31, Topology::uniform(SimTime::from_micros(200)));
    // Warm-up on another pair, through TIME-WAIT and past it.
    let warm = closers(&mut eng, 0);
    close_all(&mut eng, warm);
    eng.run_for(SimTime::from_secs(2));
    let client = closers(&mut eng, 1);
    assert_eq!(eng.node_ref::<Closer>(client).conns.len(), HELD);
    let (held, ()) = bytes_held(|| close_all(&mut eng, client));
    let c = eng.node_ref::<Closer>(client);
    for &id in &c.conns {
        assert!(c.stack.socket(id).is_none(), "a socket outlived its FINs");
    }
    let freed = -held / HELD as i64;
    let sockets = 2 * std::mem::size_of::<TcpSocket>() as i64;
    assert!(
        freed >= sockets - 8,
        "{freed} bytes freed per connection, its two sockets are {sockets}"
    );
}

/// Flows the measured instance opens and drains: about what each of
/// `api_open`'s ten instances holds at its t = 10 s sweep.
const DRAINED: u16 = 1_500;

/// Opens `DRAINED` flows through the instance at `inst` and closes each
/// both ways, all inside the linger: SYN, request, the backend's SYN-ACK,
/// its FIN, the client's FIN, each step for every flow and then time for
/// the store to work through that step's writes.
fn open_and_drain(eng: &mut Engine, (node, inst): (NodeId, Addr)) {
    const C_ISN: u32 = 1_000;
    const REQ: &[u8] = b"GET /a HTTP/1.1\r\nHost: x\r\n\r\n";
    let vip = Endpoint::new(Addr::new(100, 0, 0, 1), 80);
    let backend = Endpoint::new(Addr::new(10, 1, 0, 1), 80);
    let client = |i: u16| Endpoint::new(Addr::new(172, 16, 0, 9), 40_000 + i);
    let vss = |i: u16| Endpoint::new(vip.addr, 40_000 + i);
    let fin = C_ISN + 1 + REQ.len() as u32;
    let packet = |step, i| match step {
        0 => (client(i), vip, Flags::SYN, C_ISN, 0, &b""[..]),
        1 => (client(i), vip, Flags::ACK, C_ISN + 1, 0, REQ),
        2 => (backend, vss(i), Flags::SYN_ACK, 5_000, C_ISN + 1, &b""[..]),
        3 => (backend, vss(i), Flags::FIN_ACK, 5_001, fin, &b""[..]),
        _ => (client(i), vip, Flags::FIN_ACK, fin, 0, &b""[..]),
    };
    for step in 0..5 {
        for i in 0..DRAINED {
            let (src, dst, flags, seq, ack, payload) = packet(step, i);
            let seg = Segment {
                src_port: src.port,
                dst_port: dst.port,
                seq: SeqNum::new(seq),
                ack: SeqNum::new(ack),
                flags,
                window: 65_535,
                payload: Bytes::from_static(payload),
            };
            let pkt = seg
                .into_packet(src, dst)
                .encapsulate(Addr::new(10, 0, 2, 1), inst);
            let pkt = pkt.expect("a fresh segment has room");
            eng.with_node_ctx::<YodaInstance>(node, |y, ctx| y.on_packet(ctx, pkt));
        }
        eng.run_for(SimTime::from_millis(200));
    }
}

/// What a flow that has closed both ways holds while it lingers to
/// forward its final ACKs, beyond its slots in the instance's tables:
/// the bytes gc gives back when it retires it (the tables keep their
/// capacity, and every store delete went out at the drain). While the
/// table kept every flow boxed until gc retired it, that was the whole
/// `Flow`: 176 bytes a drained flow, measured. A drained flow that can
/// only translate is a 24-byte tombstone inline in its 32-byte slot
/// (both sizes pinned in `yoda-core`), and its box is freed at the drain:
/// 0 bytes, measured. The bound allows a tombstone's worth.
#[test]
fn a_drained_flow_keeps_a_tombstone_not_a_flow() {
    let mut eng = Engine::with_topology(29, Topology::uniform(SimTime::from_micros(250)));
    let store = Addr::new(10, 0, 1, 1);
    let server = StoreServer::new(StoreServerConfig::default(), store);
    eng.add_node("store", store, Zone::Dc, Box::new(server));
    let addr = Addr::new(10, 0, 0, 1);
    let cfg = YodaConfig {
        store_replicas: 1,
        ..YodaConfig::default()
    };
    let mut inst = YodaInstance::new(cfg, addr, &[store], vec![]);
    let rules = RuleTable::parse("name=r priority=1 match * action=split 10.1.0.1:80=1");
    inst.install_vip(
        Endpoint::new(Addr::new(100, 0, 0, 1), 80),
        rules.expect("rules"),
    );
    let node = eng.add_node("inst", addr, Zone::Dc, Box::new(inst));
    open_and_drain(&mut eng, (node, addr));
    let inst = eng.node_ref::<YodaInstance>(node);
    assert_eq!(inst.live_flows(), DRAINED as usize, "all lingering");
    assert_eq!(inst.tunneled_packets, 2 * DRAINED as u64, "both FINs");
    // Past the linger and the next gc.
    let (held, ()) = bytes_held(|| eng.run_for(SimTime::from_secs(8)));
    assert_eq!(eng.node_ref::<YodaInstance>(node).live_flows(), 0);
    let per_flow = -held / i64::from(DRAINED);
    assert!(per_flow <= 32, "{per_flow} bytes held per drained flow");
}

// ----------------------------------------------------------------------
// Set-up state
// ----------------------------------------------------------------------

#[test]
fn the_benchmark_catalog_holds_its_objects_and_no_path_index() {
    // The benchmark's shape: four services of 240 pages, 4–12 embedded
    // objects a page.
    let cfgs: Vec<SiteConfig> = (0..4)
        .map(|s| SiteConfig {
            pages: 240,
            embedded_per_page: (4, 12),
            host: format!("service{s}.test"),
        })
        .collect();
    let (held, catalog) = bytes_held(|| SiteCatalog::generate(42, &cfgs));
    let objects = catalog.total_objects();
    assert!((8_000..10_000).contains(&objects), "{objects} objects");
    // The 442 KB filler body, then about 106 bytes an object: its
    // 32-byte `Object` (path and size) in a vector up to twice the size
    // it needs, its path's bytes and its 16-byte id in a page. A path
    // index adds about 100 more.
    let budget = MAX_OBJECT_BYTES as i64 + 128 * objects as i64;
    assert!(
        held <= budget,
        "catalog holds {held} bytes, budget {budget}"
    );
    let (path, page) = (
        catalog.path_of(catalog.page(3, 239).html),
        catalog.page(3, 239),
    );
    assert_eq!(catalog.lookup(path).map(|(id, _)| id), Some(page.html));
}

// ----------------------------------------------------------------------
// TCPStore
// ----------------------------------------------------------------------

#[test]
fn a_store_message_is_one_block() {
    let req = StoreRequest {
        req_id: 7,
        op: StoreOp::Set,
        key: Bytes::from_static(b"flow:abcdefghijkl"),
        value: Bytes::from(vec![9; 26]),
    };
    let (allocs, wire) = allocations(|| req.encode());
    assert_eq!(allocs, 1, "request encode");
    let (allocs, back) = allocations(|| StoreRequest::decode(&wire));
    assert_eq!((allocs, back.as_ref()), (0, Some(&req)), "request decode");
    let resp = StoreResponse {
        req_id: 7,
        op: StoreOp::Get,
        status: StoreStatus::Ok,
        value: Bytes::from(vec![9; 26]),
    };
    let (allocs, wire) = allocations(|| resp.encode());
    assert_eq!(allocs, 1, "response encode");
    let (allocs, back) = allocations(|| StoreResponse::decode(&wire));
    assert_eq!((allocs, back.as_ref()), (0, Some(&resp)), "response decode");
}

/// Embeds a store client; keeps the number of completed ops only.
struct Requester {
    client: StoreClient,
    done: u64,
}

impl Requester {
    fn settle(&mut self, ev: Option<StoreEvent>) {
        self.done += ev.is_some() as u64;
    }
}

impl Node for Requester {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let ev = self.client.on_packet(ctx, &pkt);
        self.settle(ev);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        let ev = self.client.on_timer(ctx, token);
        self.settle(ev);
    }
}

#[test]
fn a_store_op_keeps_one_vector() {
    let mut eng = Engine::with_topology(13, Topology::uniform(SimTime::from_micros(250)));
    let servers: Vec<Addr> = (1..=4).map(|i| Addr::new(10, 0, 1, i)).collect();
    for &s in &servers {
        let node = StoreServer::new(StoreServerConfig::default(), s);
        eng.add_node(format!("store-{s}"), s, Zone::Dc, Box::new(node));
    }
    let me = Endpoint::new(Addr::new(10, 0, 0, 9), 9999);
    let client = StoreClient::new(2, me, &servers);
    let requester = eng.add_node(
        "requester",
        me.addr,
        Zone::Dc,
        Box::new(Requester { client, done: 0 }),
    );
    let key = |i: u64| Bytes::copy_from_slice(format!("flow:{i:08}").as_bytes());
    let value = Bytes::from(vec![7; 26]);
    let op = |eng: &mut Engine, tag: u64, set: bool| {
        let (k, v) = (key(tag % 16), value.clone());
        allocations_and_packets(eng, |eng| {
            eng.with_node_ctx::<Requester>(requester, |d, ctx| match set {
                true => d.client.set(ctx, k, v, tag),
                false => d.client.get(ctx, k, tag),
            });
        })
    };
    // Warm-up: every replica answered (its stats entry exists), tables
    // and buffers at size — four ops in flight at a time, more than the
    // two measured below.
    for tag in 0..64 {
        op(&mut eng, tag, tag % 2 == 0);
        if tag % 4 == 3 {
            eng.run_for(SimTime::from_millis(5));
        }
    }
    assert_eq!(eng.node_ref::<Requester>(requester).done, 64);
    // A set goes to both replicas, a get to the preferred one: one block
    // per request, plus the op's `targets`.
    let (allocs, packets) = op(&mut eng, 100, true);
    assert_eq!((allocs, packets), (1 + 2, 2), "set");
    let (allocs, packets) = op(&mut eng, 101, false);
    assert_eq!((allocs, packets), (1 + 1, 1), "get");
    eng.run_for(SimTime::from_millis(5));
    assert_eq!(eng.node_ref::<Requester>(requester).done, 66);
}

// ----------------------------------------------------------------------
// Rule selection
// ----------------------------------------------------------------------

#[test]
fn a_rule_selection_allocates_at_most_the_live_list() {
    let backends = "10.1.0.1:80 10.1.0.2:80 10.1.0.3:80";
    let mut ctx = SelectCtx::default();
    ctx.dead.insert(Endpoint::new(Addr::new(10, 1, 0, 2), 80));
    for (i, d) in (1..=3).enumerate() {
        ctx.loads
            .insert(Endpoint::new(Addr::new(10, 1, 0, d), 80), 5 - i as i64);
    }
    let mut rng = Rng::seed_from_u64(3);
    let plain = HttpRequest::get("/a.jpg").with_header("Host", "mysite.test");
    let with_cookie = plain.clone().with_header("Cookie", "session=alice");
    for (rule, req) in [
        (
            "action=split 10.1.0.1:80=1 10.1.0.2:80=2 10.1.0.3:80=3".to_string(),
            &plain,
        ),
        (format!("action=leastload {backends}"), &plain),
        (format!("action=sticky session {backends}"), &with_cookie),
    ] {
        // `match *`: what is measured is the policy, not a matcher.
        let text = format!("name=r priority=1 match * {rule}");
        let mut table = RuleTable::parse(&text).expect("rule parses");
        // The first pick of a session places it (a table insert); the
        // measured one finds it.
        let first = table.select(req, &ctx, &mut rng);
        let (allocs, pick) = allocations(|| table.select(req, &ctx, &mut rng));
        assert!(
            pick.is_some() && !ctx.dead.contains(&pick.unwrap()),
            "{rule}"
        );
        assert!(allocs <= 1, "{rule}: {allocs} allocations");
        if rule.contains("sticky") {
            assert_eq!(pick, first, "the session stuck");
        }
    }
}

// ----------------------------------------------------------------------
// Tracing
// ----------------------------------------------------------------------

/// An enabled trace records an event as plain `Copy` data into its ring,
/// which `enable_trace` sized up front: a dropped packet and a node's note
/// allocate nothing, and an event is 48 bytes, no text.
#[test]
fn a_traced_drop_and_note_allocate_nothing() {
    assert_eq!(std::mem::size_of::<TraceEvent>(), 48);
    let from = Endpoint::new(Addr::new(10, 0, 0, 1), 40_000);
    let nowhere = Endpoint::new(Addr::new(10, 9, 9, 9), 80);
    let mut eng = Engine::new(1);
    let node = eng.add_node("node", from.addr, Zone::Dc, sink());
    eng.enable_trace(1 << 10);
    let note = Note::RecoveryLookup {
        src: from,
        dst: nowhere,
    };
    let record = |eng: &mut Engine| {
        let pkt = Packet::new(from, nowhere, PROTO_TCP, Bytes::new());
        allocations(|| {
            eng.with_node_ctx::<Sink>(node, |_, ctx| {
                ctx.send(pkt);
                ctx.trace(note);
            })
        })
        .0
    };
    for _ in 0..8 {
        record(&mut eng);
    }
    assert_eq!(record(&mut eng), 0, "a no-route drop and a note");
    let last: Vec<What> = eng.trace().events().map(|ev| ev.what).collect();
    let dropped = What::Packet {
        src: from,
        dst: nowhere,
        protocol: PROTO_TCP,
        fate: Fate::Dropped(DropCause::NoRoute),
    };
    assert_eq!(last.len(), 18, "both were recorded, each time");
    assert_eq!(last[16..], [dropped, What::Note(note)]);
}
