//! [`TcpStack`]: many sockets inside one simulator node.
//!
//! A node embeds a `TcpStack`, forwards TCP packets and stack timers to it,
//! and receives [`TcpEvents`] describing connection lifecycle and data
//! arrival. The stack handles demultiplexing by flow, listener sockets,
//! timer (re)arming against the simulator clock, and ISN generation.

use yoda_netsim::{
    Bytes, Ctx, Endpoint, FlowTable, Packet, SimTime, Slab, SlabKey, TimerId, TimerToken,
};

use crate::segment::{Flags, Segment};
use crate::seq::SeqNum;
use crate::socket::{SocketState, TcpSocket, TimeWait};

/// Timer-token `kind` reserved by the stack. Nodes must route timers with
/// this kind to [`TcpStack::on_timer`].
pub const TCP_TIMER_KIND: u32 = 0x7C9;

/// Handle to a connection within a stack: its slot in the stack's socket
/// slab and its open serial. Handles order by serial, i.e. by open.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(SlabKey);

impl ConnId {
    /// How many connections the stack had opened, this one included: 1
    /// for its first. Stable whatever slot the connection occupies, so it
    /// is what a simulated resource keyed by connection hashes.
    pub fn serial(self) -> u64 {
        u64::from(self.0.serial())
    }
}

/// What happened on a connection during packet/timer processing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpEvent {
    /// A listener accepted a new connection (handshake still completing).
    Incoming(ConnId, Endpoint),
    /// The handshake completed.
    Connected(ConnId),
    /// Unread in-order data is waiting in [`TcpStack::recv`].
    Data(ConnId),
    /// The peer closed its half of the connection.
    PeerClosed(ConnId),
    /// The connection fully closed (both FINs exchanged).
    Closed(ConnId),
    /// The connection was reset (RST or retry exhaustion).
    Reset(ConnId),
}

impl TcpEvent {
    /// The connection this event concerns.
    pub fn conn(&self) -> ConnId {
        match *self {
            TcpEvent::Incoming(c, _)
            | TcpEvent::Connected(c)
            | TcpEvent::Data(c)
            | TcpEvent::PeerClosed(c)
            | TcpEvent::Closed(c)
            | TcpEvent::Reset(c) => c,
        }
    }
}

/// The events of one [`TcpStack::on_packet`] or [`TcpStack::on_timer`]
/// call, held inline: one call concerns one connection and reports at
/// most one state edge, then `PeerClosed`, then `Data` — or a lone
/// `Incoming`. Iterate it by value, in that order.
#[derive(Debug, Default)]
pub struct TcpEvents([Option<TcpEvent>; 3]);

impl TcpEvents {
    /// Appends `ev` to the first free slot. A fourth event would break
    /// the shape above; debug builds assert it never comes.
    fn push(&mut self, ev: TcpEvent) {
        match self.0.iter_mut().find(|slot| slot.is_none()) {
            Some(slot) => *slot = Some(ev),
            None => debug_assert!(false, "a stack call reports at most three events"),
        }
    }
}

impl IntoIterator for TcpEvents {
    type Item = TcpEvent;
    type IntoIter = std::iter::Flatten<std::array::IntoIter<Option<TcpEvent>, 3>>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter().flatten()
    }
}

/// A connection's entry in its stack's slab: its socket, or what is left
/// of it in TIME-WAIT, and the stack's bookkeeping — 80 bytes. Public
/// only so its size can be pinned.
pub struct ConnSlot {
    conn: Conn,
    /// Last state reported to the owner, to generate edge-triggered events.
    reported: SocketState,
    reported_peer_closed: bool,
    /// The connection's one pending stack timer and its deadline. A
    /// re-arm to an earlier deadline cancels the timer it supersedes; a
    /// deadline that moved later or vanished is left to this timer, which
    /// fires and re-checks (cancelling it would give the live deadline a
    /// new place in the event order).
    armed: Option<(SimTime, TimerId)>,
}

/// A connection: its boxed socket, or its 40-byte tombstone once it is in
/// TIME-WAIT with nothing unread, unacked or out of order (the socket's
/// block and buffers are freed then). The tombstone answers every input
/// as the socket would (see [`TimeWait`]).
#[derive(Debug)]
enum Conn {
    Open(Box<TcpSocket>),
    TimeWait(TimeWait),
}

impl Conn {
    fn state(&self) -> SocketState {
        match self {
            Conn::Open(sock) => sock.state(),
            Conn::TimeWait(tw) => tw.state(),
        }
    }

    fn ends(&self) -> (Endpoint, Endpoint) {
        match self {
            Conn::Open(sock) => (sock.local(), sock.remote()),
            Conn::TimeWait(tw) => (tw.local(), tw.remote()),
        }
    }

    fn on_segment(&mut self, seg: &Segment, now: SimTime, out: &mut Vec<Segment>) {
        match self {
            Conn::Open(sock) => sock.on_segment(seg, now, out),
            Conn::TimeWait(tw) => tw.on_segment(seg, out),
        }
    }

    fn on_timer(&mut self, now: SimTime, out: &mut Vec<Segment>) {
        match self {
            Conn::Open(sock) => sock.on_timer(now, out),
            Conn::TimeWait(tw) => tw.on_timer(now),
        }
    }

    fn next_deadline(&self) -> Option<SimTime> {
        match self {
            Conn::Open(sock) => sock.next_deadline(),
            Conn::TimeWait(tw) => Some(tw.next_deadline()),
        }
    }

    /// The socket, while the connection has one.
    fn socket(&mut self) -> Option<&mut TcpSocket> {
        match self {
            Conn::Open(sock) => Some(sock),
            Conn::TimeWait(_) => None,
        }
    }

    /// Replaces a socket that has only TIME-WAIT left to do by its
    /// tombstone.
    fn settle(&mut self) {
        if let Some(tw) = self.socket().and_then(|sock| sock.time_wait()) {
            *self = Conn::TimeWait(tw);
        }
    }
}

/// A collection of TCP connections owned by one node.
///
/// Listener semantics: [`TcpStack::listen`] marks a local endpoint as
/// accepting; SYNs to it spawn connections. SYNs (or other segments) to
/// non-listening endpoints get a RST when `rst_unknown` is set (real-OS
/// behaviour), or are silently dropped otherwise (the behaviour of an L7
/// proxy that lost its state — paper §7.2's HAProxy failure mode).
pub struct TcpStack {
    rst_unknown: bool,
    /// Every socket, indexed by its [`ConnId`].
    conns: Slab<ConnSlot>,
    /// (remote, local) → connection, for every non-terminal connection.
    by_flow: FlowTable<(Endpoint, Endpoint), ConnId>,
    /// Terminal connections the last `on_packet`/`on_timer` reported: dropped
    /// at the next, once the owner handled that (it may `abort` meanwhile).
    reported_dead: Vec<ConnId>,
    /// The sockets' out buffer: every call hands it to the socket it
    /// drives and drains it onto the wire, so emitting allocates only
    /// the packets themselves.
    out: Vec<Segment>,
    listeners: Vec<Endpoint>,
    next_ephemeral: u16,
}

impl Default for TcpStack {
    fn default() -> Self {
        TcpStack::new()
    }
}

impl TcpStack {
    /// Creates an empty stack that resets unknown flows.
    pub fn new() -> Self {
        TcpStack {
            rst_unknown: true,
            conns: Slab::new(),
            by_flow: FlowTable::new(),
            reported_dead: Vec::new(),
            out: Vec::new(),
            listeners: Vec::new(),
            next_ephemeral: 33000,
        }
    }

    /// Configures whether segments for unknown flows elicit a RST.
    pub fn set_rst_unknown(&mut self, rst: bool) {
        self.rst_unknown = rst;
    }

    /// Starts accepting connections on `local`.
    pub fn listen(&mut self, local: Endpoint) {
        if !self.listeners.contains(&local) {
            self.listeners.push(local);
        }
    }

    /// Randomizes where ephemeral allocation starts (real stacks do this;
    /// it also keeps distinct hosts' port spaces decorrelated, which
    /// matters to Yoda because the backend connection reuses the client's
    /// source port — two clients sharing a port, VIP, and backend would
    /// collide on the server-side 5-tuple).
    pub fn set_ephemeral_base(&mut self, base: u16) {
        self.next_ephemeral = 33000 + base % 28_000;
    }

    /// Allocates an ephemeral port (wrapping within 33000..61000).
    pub fn ephemeral_port(&mut self) -> u16 {
        let p = self.next_ephemeral;
        self.next_ephemeral = if p >= 60999 { 33000 } else { p + 1 };
        p
    }

    /// Opens a connection from `local` to `remote`, sending the SYN.
    /// The ISN is drawn from the node's private RNG stream.
    pub fn connect(&mut self, ctx: &mut Ctx<'_>, local: Endpoint, remote: Endpoint) -> ConnId {
        let iss = SeqNum::new(ctx.node_rng().next_u32());
        self.connect_with_isn(ctx, local, remote, iss)
    }

    /// Opens a connection with an explicit ISN (Yoda reuses the client ISN
    /// toward the backend, §4.1).
    pub fn connect_with_isn(
        &mut self,
        ctx: &mut Ctx<'_>,
        local: Endpoint,
        remote: Endpoint,
        iss: SeqNum,
    ) -> ConnId {
        let (sock, syn) = TcpSocket::connect(local, remote, iss, ctx.now());
        ctx.send(syn.into_packet(local, remote));
        self.open(ctx, (remote, local), sock)
    }

    /// Registers a fresh socket under `flow` and arms its first timer.
    /// The slab counts inserts, and the stack inserts once per open, so
    /// the key's serial is the open count.
    fn open(&mut self, ctx: &mut Ctx<'_>, flow: (Endpoint, Endpoint), sock: TcpSocket) -> ConnId {
        let id = ConnId(self.conns.insert(ConnSlot {
            reported: sock.state(),
            conn: Conn::Open(Box::new(sock)),
            reported_peer_closed: false,
            armed: None,
        }));
        if let Some(slot) = self.conns.get_mut(id.0) {
            rearm(ctx, id, slot);
        }
        self.by_flow.insert(flow, id);
        id
    }

    /// Queues data on a connection; the socket holds `data` until acked.
    pub fn send(&mut self, ctx: &mut Ctx<'_>, id: ConnId, data: Bytes) {
        self.send_vectored(ctx, id, [data]);
    }

    /// Queues chunks back to back (see [`TcpSocket::send_vectored`]).
    pub fn send_vectored(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: ConnId,
        chunks: impl IntoIterator<Item = Bytes>,
    ) {
        let now = ctx.now();
        if let Some(slot) = self.conns.get_mut(id.0) {
            if let Some(sock) = slot.conn.socket() {
                sock.send_vectored(chunks, now, &mut self.out);
            }
            transmit(ctx, &slot.conn, &mut self.out);
            rearm(ctx, id, slot);
        }
    }

    /// Drains a connection's received data onto `into`, as the slices of
    /// the segments it arrived in (see [`TcpSocket::take_data`]: a caller
    /// that clears and keeps one vector makes this allocate nothing).
    pub fn recv(&mut self, id: ConnId, into: &mut Vec<Bytes>) {
        if let Some(slot) = self.conns.get_mut(id.0) {
            if let Some(sock) = slot.conn.socket() {
                sock.take_data(into);
            }
            // The last read of a socket in TIME-WAIT leaves it nothing.
            slot.conn.settle();
        }
    }

    /// Closes the send side of a connection.
    pub fn close(&mut self, ctx: &mut Ctx<'_>, id: ConnId) {
        let now = ctx.now();
        if let Some(slot) = self.conns.get_mut(id.0) {
            if let Some(sock) = slot.conn.socket() {
                sock.close(now, &mut self.out);
            }
            transmit(ctx, &slot.conn, &mut self.out);
            rearm(ctx, id, slot);
        }
    }

    /// Aborts a connection with a RST.
    pub fn abort(&mut self, ctx: &mut Ctx<'_>, id: ConnId) {
        if let Some(slot) = self.conns.get_mut(id.0) {
            let rst = match &mut slot.conn {
                Conn::Open(sock) => sock.abort(),
                Conn::TimeWait(tw) => tw.abort(),
            };
            let (local, remote) = slot.conn.ends();
            ctx.send(rst.into_packet(local, remote));
        }
    }

    /// Immutable access to a connection's socket: `None` once the
    /// connection is a TIME-WAIT tombstone, whose socket is freed.
    pub fn socket(&self, id: ConnId) -> Option<&TcpSocket> {
        match self.conns.get(id.0).map(|s| &s.conn) {
            Some(Conn::Open(sock)) => Some(sock),
            _ => None,
        }
    }

    /// Handles a TCP packet addressed to this node. Returns lifecycle/data
    /// events for the owner.
    pub fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) -> TcpEvents {
        self.drop_reported_dead();
        let flow @ (src, dst) = (pkt.src, pkt.dst);
        let Some(seg) = Segment::from_packet(pkt) else {
            return TcpEvents::default();
        };
        if let Some(&id) = self.by_flow.get(&flow) {
            return self.drive(ctx, id, |slot, now, out| {
                slot.conn.on_segment(&seg, now, out);
                true
            });
        }
        // New flow: maybe a listener accepts it.
        if seg.flags.syn && !seg.flags.ack && self.listeners.contains(&dst) {
            let iss = SeqNum::new(ctx.node_rng().next_u32());
            if let Some((sock, synack)) = TcpSocket::accept(dst, src, &seg, iss, ctx.now()) {
                ctx.send(synack.into_packet(dst, src));
                let mut events = TcpEvents::default();
                events.push(TcpEvent::Incoming(self.open(ctx, flow, sock), src));
                return events;
            }
        }
        if self.rst_unknown && !seg.flags.rst {
            let rst = Segment {
                src_port: dst.port,
                dst_port: src.port,
                seq: seg.ack,
                ack: seg.seq_end(),
                flags: Flags::RST,
                window: 0,
                payload: Bytes::new(),
            };
            ctx.send(rst.into_packet(dst, src));
        }
        TcpEvents::default()
    }

    /// Handles a stack timer. Nodes must call this for timers whose token
    /// kind equals [`TCP_TIMER_KIND`].
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) -> TcpEvents {
        debug_assert_eq!(token.kind, TCP_TIMER_KIND);
        self.drop_reported_dead();
        let id = ConnId(SlabKey::from_bits(token.a));
        self.drive(ctx, id, |slot, now, out| {
            match slot.armed {
                Some((d, _)) if d <= now => {
                    slot.armed = None;
                    slot.conn.on_timer(now, out);
                    true
                }
                // Not due: cannot happen while every superseded timer is
                // cancelled, and doing nothing is the safe reading.
                _ => false,
            }
        })
    }

    /// Feeds one input to connection `id`'s socket and does everything
    /// that follows — transmit what it emitted, report state edges, drop a
    /// terminal connection from the flow index and cancel its timer, or
    /// settle a live one into its tombstone once only TIME-WAIT is left
    /// and re-arm its timer — on the slot looked up once here.
    /// `input` pushes the socket's segments onto the out buffer and
    /// returns `false` to do nothing.
    fn drive(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: ConnId,
        input: impl FnOnce(&mut ConnSlot, SimTime, &mut Vec<Segment>) -> bool,
    ) -> TcpEvents {
        let mut events = TcpEvents::default();
        let Some(slot) = self.conns.get_mut(id.0) else {
            return events;
        };
        if !input(slot, ctx.now(), &mut self.out) {
            return events;
        }
        transmit(ctx, &slot.conn, &mut self.out);
        if report(id, slot, &mut events) {
            let (local, remote) = slot.conn.ends();
            self.by_flow.remove(&(remote, local));
            // Terminal: nothing is left to time. (A socket reset in
            // TIME-WAIT still holds that deadline; its fire would only
            // have collected the slot.)
            if let Some((_, timer)) = slot.armed.take() {
                ctx.cancel_timer(timer);
            }
            self.reported_dead.push(id);
            return events;
        }
        slot.conn.settle();
        rearm(ctx, id, slot);
        events
    }

    /// Drops the slots of connections reported terminal by the previous
    /// stack call (their timers were cancelled at that report).
    fn drop_reported_dead(&mut self) {
        for id in self.reported_dead.drain(..) {
            self.conns.remove(id.0);
        }
    }
}

/// Emits edge-triggered events by comparing current vs. reported state.
/// Returns true once the socket is terminal.
fn report(id: ConnId, slot: &mut ConnSlot, events: &mut TcpEvents) -> bool {
    let state = slot.conn.state();
    if slot.reported != state {
        match state {
            SocketState::Established => events.push(TcpEvent::Connected(id)),
            SocketState::Reset => events.push(TcpEvent::Reset(id)),
            SocketState::Closed | SocketState::TimeWait => events.push(TcpEvent::Closed(id)),
            _ => {}
        }
        slot.reported = state;
    }
    let Conn::Open(sock) = &slot.conn else {
        // A tombstone: the peer's FIN was reported, nothing is unread.
        return state.is_terminal();
    };
    if sock.peer_closed() && !slot.reported_peer_closed {
        slot.reported_peer_closed = true;
        events.push(TcpEvent::PeerClosed(id));
    }
    if sock.has_unread() {
        // Data event whenever there is unread data; the owner drains.
        events.push(TcpEvent::Data(id));
    }
    state.is_terminal()
}

/// Arms the node timer for a connection when its deadline moved earlier
/// than the armed one (cancelling that one) or nothing is armed.
fn rearm(ctx: &mut Ctx<'_>, id: ConnId, slot: &mut ConnSlot) {
    let Some(deadline) = slot.conn.next_deadline() else {
        return;
    };
    match slot.armed {
        Some((armed, _)) if deadline >= armed => return,
        Some((_, superseded)) => ctx.cancel_timer(superseded),
        None => {}
    }
    let delay = deadline.saturating_sub(ctx.now());
    let token = TimerToken::new(TCP_TIMER_KIND).with_a(id.0.to_bits());
    let timer = ctx.set_timer(delay, token);
    slot.armed = Some((deadline, timer));
}

/// Puts the segments a connection emitted on the wire, leaving `out`
/// empty (its capacity stays for the next call).
fn transmit(ctx: &mut Ctx<'_>, conn: &Conn, out: &mut Vec<Segment>) {
    let (local, remote) = conn.ends();
    for s in out.drain(..) {
        ctx.send(s.into_packet(local, remote));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;
    use yoda_netsim::{Addr, Engine, Node, SimTime, Topology, Zone};

    /// Node wrapping a stack that acts as an echo server: sends back
    /// whatever it receives, then closes when the peer closes.
    struct EchoServer {
        stack: TcpStack,
        listen: Endpoint,
        rx: Vec<Bytes>,
        echoed: u64,
        /// `Data` events that found nothing to read.
        empty_reads: u64,
    }
    impl Node for EchoServer {
        fn on_start(&mut self, _ctx: &mut Ctx<'_>) {
            self.stack.listen(self.listen);
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
            for ev in self.stack.on_packet(ctx, pkt) {
                match ev {
                    TcpEvent::Data(id) => {
                        self.stack.recv(id, &mut self.rx);
                        self.empty_reads += self.rx.is_empty() as u64;
                        self.echoed += self.rx.iter().map(|d| d.len() as u64).sum::<u64>();
                        self.stack.send_vectored(ctx, id, self.rx.drain(..));
                    }
                    TcpEvent::PeerClosed(id) => self.stack.close(ctx, id),
                    _ => {}
                }
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
            self.stack.on_timer(ctx, token);
        }
    }

    /// Client that sends one blob and collects the echo.
    struct BlobClient {
        stack: TcpStack,
        local: Addr,
        server: Endpoint,
        blob: Vec<u8>,
        received: Vec<u8>,
        conn: Option<ConnId>,
        done_at: Option<SimTime>,
    }
    impl Node for BlobClient {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let port = self.stack.ephemeral_port();
            let local = Endpoint::new(self.local, port);
            let id = self.stack.connect(ctx, local, self.server);
            self.conn = Some(id);
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
            for ev in self.stack.on_packet(ctx, pkt) {
                match ev {
                    TcpEvent::Connected(id) => {
                        self.stack.send(ctx, id, Bytes::from(self.blob.clone()));
                    }
                    TcpEvent::Data(id) => {
                        let mut data = Vec::new();
                        self.stack.recv(id, &mut data);
                        self.received.extend(data.iter().flat_map(|d| d.iter()));
                        if self.received.len() >= self.blob.len() {
                            self.stack.close(ctx, id);
                            self.done_at.get_or_insert(ctx.now());
                        }
                    }
                    _ => {}
                }
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
            self.stack.on_timer(ctx, token);
        }
    }

    fn run_echo(blob_len: usize, loss: f64) -> (Engine, yoda_netsim::NodeId, Vec<u8>) {
        let mut topo = Topology::uniform(SimTime::from_millis(5));
        if loss > 0.0 {
            topo.set_link(
                Zone::Dc,
                Zone::Dc,
                yoda_netsim::LinkSpec {
                    latency: SimTime::from_millis(5),
                    jitter: SimTime::ZERO,
                    loss,
                    duplicate: 0.0,
                },
            );
        }
        let mut eng = Engine::with_topology(3, topo);
        let server_ep = Endpoint::new(Addr::new(10, 1, 0, 1), 80);
        eng.add_node(
            "server",
            server_ep.addr,
            Zone::Dc,
            Box::new(EchoServer {
                stack: TcpStack::new(),
                listen: server_ep,
                rx: Vec::new(),
                echoed: 0,
                empty_reads: 0,
            }),
        );
        let blob: Vec<u8> = (0..blob_len).map(|i| (i % 253) as u8).collect();
        let client_id = eng.add_node(
            "client",
            Addr::new(10, 2, 0, 1),
            Zone::Dc,
            Box::new(BlobClient {
                stack: TcpStack::new(),
                local: Addr::new(10, 2, 0, 1),
                server: server_ep,
                blob: blob.clone(),
                received: Vec::new(),
                conn: None,
                done_at: None,
            }),
        );
        eng.run_for(SimTime::from_secs(60));
        (eng, client_id, blob)
    }

    #[test]
    fn echo_small_blob_over_network() {
        let (eng, client_id, blob) = run_echo(100, 0.0);
        let client = eng.node_ref::<BlobClient>(client_id);
        assert_eq!(client.received, blob);
        // 5 ms/hop: SYN, SYN-ACK, data, echo ≈ 4 hops ≈ 20 ms.
        let done = client.done_at.expect("completed");
        assert!(done < SimTime::from_millis(100), "took {done}");
    }

    #[test]
    fn echo_large_blob_over_network() {
        let (eng, client_id, blob) = run_echo(500_000, 0.0);
        let client = eng.node_ref::<BlobClient>(client_id);
        assert_eq!(client.received.len(), blob.len());
        assert_eq!(client.received, blob);
    }

    #[test]
    fn echo_survives_packet_loss() {
        let (eng, client_id, blob) = run_echo(50_000, 0.05);
        let client = eng.node_ref::<BlobClient>(client_id);
        assert_eq!(client.received, blob, "retransmissions recover all data");
    }

    /// Client that runs connect → send → read the echo → close, `cycles`
    /// times, one connection after the other.
    struct CycleClient {
        stack: TcpStack,
        local: Addr,
        server: Endpoint,
        cycles: u32,
        conn: Option<ConnId>,
        received: usize,
        empty_reads: u64,
        /// Most slots the stack ever held beyond its non-terminal sockets.
        peak_dead_slots: usize,
    }
    const CYCLE_BLOB: usize = 20_000;
    impl CycleClient {
        fn next_cycle(&mut self, ctx: &mut Ctx<'_>) {
            // `by_flow` indexes exactly the non-terminal sockets.
            let dead = self.stack.conns.len() - self.stack.by_flow.len();
            self.peak_dead_slots = self.peak_dead_slots.max(dead);
            if self.cycles > 0 {
                self.cycles -= 1;
                self.received = 0;
                let local = Endpoint::new(self.local, self.stack.ephemeral_port());
                self.conn = Some(self.stack.connect(ctx, local, self.server));
            }
        }
    }
    impl Node for CycleClient {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.next_cycle(ctx);
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
            for ev in self.stack.on_packet(ctx, pkt) {
                match ev {
                    TcpEvent::Connected(id) => {
                        self.stack.send(ctx, id, Bytes::from(vec![9u8; CYCLE_BLOB]));
                    }
                    TcpEvent::Data(id) => {
                        let mut data = Vec::new();
                        self.stack.recv(id, &mut data);
                        self.empty_reads += data.is_empty() as u64;
                        self.received += data.iter().map(Bytes::len).sum::<usize>();
                        if self.received == CYCLE_BLOB && !data.is_empty() {
                            self.stack.close(ctx, id);
                        }
                    }
                    // First reported on entering TIME-WAIT.
                    TcpEvent::Closed(id) if self.conn == Some(id) => {
                        self.conn = None;
                        self.next_cycle(ctx);
                    }
                    _ => {}
                }
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
            self.stack.on_timer(ctx, token);
        }
    }

    fn run_cycles(cycles: u32) -> (Engine, yoda_netsim::NodeId, yoda_netsim::NodeId) {
        let mut eng = Engine::with_topology(3, Topology::uniform(SimTime::from_millis(1)));
        let server_ep = Endpoint::new(Addr::new(10, 1, 0, 1), 80);
        let server = eng.add_node(
            "server",
            server_ep.addr,
            Zone::Dc,
            Box::new(EchoServer {
                stack: TcpStack::new(),
                listen: server_ep,
                rx: Vec::new(),
                echoed: 0,
                empty_reads: 0,
            }),
        );
        let client = eng.add_node(
            "client",
            Addr::new(10, 2, 0, 1),
            Zone::Dc,
            Box::new(CycleClient {
                stack: TcpStack::new(),
                local: Addr::new(10, 2, 0, 1),
                server: server_ep,
                cycles,
                conn: None,
                received: 0,
                empty_reads: 0,
                peak_dead_slots: 0,
            }),
        );
        eng.run_for(SimTime::from_secs(60));
        (eng, server, client)
    }

    #[test]
    fn finished_connections_leave_the_stack() {
        // 300 cycles of ~10 ms against a 1 s TIME-WAIT: about a hundred
        // sockets linger at any moment, never all three hundred.
        let (eng, server, client) = run_cycles(300);
        let c = eng.node_ref::<CycleClient>(client);
        assert_eq!((c.cycles, c.conn), (0, None), "all cycles ran");
        assert_eq!(
            eng.node_ref::<EchoServer>(server).echoed,
            300 * CYCLE_BLOB as u64
        );
        // A terminal socket outlives its report by one stack call at most.
        assert!(
            c.peak_dead_slots <= 1,
            "dead slots piled up: {}",
            c.peak_dead_slots
        );
        assert!(
            c.stack.conns.len() <= 1,
            "client kept {}",
            c.stack.conns.len()
        );
        let s = &eng.node_ref::<EchoServer>(server).stack;
        assert!(s.conns.len() <= 1, "server kept {}", s.conns.len());
        assert!(c.stack.by_flow.is_empty() && s.by_flow.is_empty());
    }

    #[test]
    fn one_lookup_per_table_carries_a_connection_from_syn_to_close() {
        // Accept, handshake + data, peer FIN, our FIN acked — each a single
        // `on_packet`, which finds the slot once (`drive`) and reports,
        // collects and re-arms through that reference. The tables must end
        // up exactly as the leak test above expects: flow index empty at
        // the terminal report, slot gone one stack call later. And the
        // connection holds at most one pending timer throughout: a re-arm
        // to an earlier deadline cancels the one it supersedes, and the
        // terminal report cancels the last.
        let mut eng = Engine::with_topology(3, Topology::uniform(SimTime::from_millis(1)));
        let server_ep = Endpoint::new(Addr::new(10, 1, 0, 1), 80);
        let server = eng.add_node(
            "server",
            server_ep.addr,
            Zone::Dc,
            Box::new(EchoServer {
                stack: TcpStack::new(),
                listen: server_ep,
                rx: Vec::new(),
                echoed: 0,
                empty_reads: 0,
            }),
        );
        eng.run_for(SimTime::from_millis(1));
        let client = Endpoint::new(Addr::new(10, 2, 0, 1), 5555);
        let seg = |flags, seq: u32, ack: SeqNum, payload: &'static [u8]| Segment {
            src_port: client.port,
            dst_port: server_ep.port,
            seq: SeqNum::new(seq),
            ack,
            flags,
            window: 65_535,
            payload: Bytes::from_static(payload),
        };
        // Feeds one segment to the stack alone (not the echo logic) and
        // returns its events with the sizes of (by_flow, conns) after.
        let feed = |eng: &mut Engine, seg: Segment| {
            let mut seen = (Vec::new(), 0, 0);
            eng.with_node_ctx::<EchoServer>(server, |s, ctx| {
                let events = s.stack.on_packet(ctx, seg.into_packet(client, server_ep));
                let events = events.into_iter().collect();
                seen = (events, s.stack.by_flow.len(), s.stack.conns.len());
            });
            seen
        };

        let (events, flows, conns) = feed(&mut eng, seg(Flags::SYN, 100, SeqNum::new(0), b""));
        let &[TcpEvent::Incoming(id, from)] = events.as_slice() else {
            panic!("SYN to a listener: {events:?}");
        };
        assert_eq!((from, flows, conns), (client, 1, 1));
        assert_eq!(eng.timer_backlog(), 1, "the SYN-ACK's 3 s RTO");
        let iss = eng
            .node_ref::<EchoServer>(server)
            .stack
            .socket(id)
            .unwrap()
            .iss();

        let (events, flows, conns) = feed(&mut eng, seg(Flags::ACK, 101, iss + 1, b"hello"));
        assert_eq!(events, [TcpEvent::Connected(id), TcpEvent::Data(id)]);
        assert_eq!((flows, conns), (1, 1));
        let mut data = Vec::new();
        eng.node_mut::<EchoServer>(server).stack.recv(id, &mut data);
        assert_eq!(data, [Bytes::from_static(b"hello")]);

        let (events, flows, conns) = feed(&mut eng, seg(Flags::FIN_ACK, 106, iss + 1, b""));
        assert_eq!(events, [TcpEvent::PeerClosed(id)]);
        assert_eq!((flows, conns), (1, 1));
        // The acked SYN-ACK left its RTO timer to fire and re-check.
        assert_eq!(eng.timer_backlog(), 1);
        eng.with_node_ctx::<EchoServer>(server, |s, ctx| s.stack.close(ctx, id));
        // Our FIN's 300 ms RTO supersedes that 3 s timer.
        assert_eq!(eng.timer_backlog(), 1, "the superseded timer is cancelled");

        // The ACK of our FIN: terminal. Off the flow index now; the slot
        // outlives its report by exactly one stack call.
        let (events, flows, conns) = feed(&mut eng, seg(Flags::ACK, 107, iss + 2, b""));
        assert_eq!(events, [TcpEvent::Closed(id)]);
        assert_eq!((flows, conns), (0, 1));
        assert_eq!(
            eng.timer_backlog(),
            0,
            "a terminal connection times nothing"
        );
        let (events, flows, conns) = feed(&mut eng, seg(Flags::ACK, 107, iss + 2, b""));
        assert_eq!(
            (events, flows, conns),
            (vec![], 0, 0),
            "stray ACK: RST, no state"
        );
    }

    #[test]
    fn data_event_only_with_unread_data() {
        // Both ends drain on every `Data` event, and both keep receiving
        // pure ACKs afterwards (for the echo, for the FINs): none of those
        // may raise another `Data` event.
        let (eng, server, client) = run_cycles(3);
        assert_eq!(eng.node_ref::<CycleClient>(client).empty_reads, 0);
        assert_eq!(eng.node_ref::<EchoServer>(server).empty_reads, 0);
        assert_eq!(eng.node_ref::<CycleClient>(client).received, CYCLE_BLOB);
    }

    #[test]
    fn unknown_flow_gets_rst() {
        // A data segment to a stack with no matching flow and no listener
        // must elicit RST (real-OS behaviour).
        struct Probe {
            got_rst: bool,
            server: Endpoint,
        }
        impl Node for Probe {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let seg = Segment {
                    src_port: 5555,
                    dst_port: self.server.port,
                    seq: SeqNum::new(10),
                    ack: SeqNum::new(0),
                    flags: Flags::ACK,
                    window: 100,
                    payload: Bytes::from_static(b"stray"),
                };
                let me = Endpoint::new(Addr::new(10, 2, 0, 1), 5555);
                ctx.send(seg.into_packet(me, self.server));
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, pkt: Packet) {
                if let Some(seg) = Segment::from_packet(pkt) {
                    if seg.flags.rst {
                        self.got_rst = true;
                    }
                }
            }
        }
        let mut eng = Engine::with_topology(1, Topology::uniform(SimTime::from_millis(1)));
        let server_ep = Endpoint::new(Addr::new(10, 1, 0, 1), 80);
        eng.add_node(
            "server",
            server_ep.addr,
            Zone::Dc,
            Box::new(EchoServer {
                stack: TcpStack::new(),
                listen: Endpoint::new(server_ep.addr, 81), // listening elsewhere
                rx: Vec::new(),
                echoed: 0,
                empty_reads: 0,
            }),
        );
        let probe = eng.add_node(
            "probe",
            Addr::new(10, 2, 0, 1),
            Zone::Dc,
            Box::new(Probe {
                got_rst: false,
                server: server_ep,
            }),
        );
        eng.run_for(SimTime::from_secs(1));
        assert!(eng.node_ref::<Probe>(probe).got_rst);
    }

    #[test]
    fn drop_unknown_mode_sends_nothing() {
        let mut stack = TcpStack::new();
        stack.set_rst_unknown(false);
        assert!(!stack.rst_unknown);
    }

    #[test]
    fn ephemeral_ports_wrap() {
        let mut stack = TcpStack::new();
        let first = stack.ephemeral_port();
        assert_eq!(first, 33000);
        for _ in 0..(60999 - 33000) {
            stack.ephemeral_port();
        }
        assert_eq!(stack.ephemeral_port(), 33000);
    }

    #[test]
    fn event_conn_accessor() {
        let id = ConnId(Slab::new().insert(()));
        let ev = TcpEvent::Connected(id);
        assert_eq!((ev.conn(), id.serial()), (id, 1));
        let _: &dyn Any = &ev;
    }
}
