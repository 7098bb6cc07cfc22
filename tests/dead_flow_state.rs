//! State a dead flow keeps, and for how long.
//!
//! * A `TcpStack` connection in TIME-WAIT with nothing unread, unacked or
//!   out of order is a 40-byte tombstone, not its socket. Driven through
//!   the same inputs as a `TcpSocket` in TIME-WAIT — a retransmitted FIN,
//!   a pure ACK, a SYN on the reused 4-tuple, a RST, `abort` and the
//!   deadline — it emits the same segments and the stack reports the
//!   events the socket's state edges call for. Text after the peer's FIN
//!   is the one input it answers differently, on purpose.
//! * A mux flow entry lingers 2 s after its flow's last packet once the
//!   flow sent FIN or RST, and every packet restarts the linger: a drained
//!   entry is gone one linger plus one sweep after the flow's last packet,
//!   and a half-closed flow whose server keeps streaming keeps its
//!   entries for as long as it streams.
//!
//! The mux tests run a raw-TCP bed: a testbed of three instances and one
//! mux whose VIP is pointed at a raw `TcpStack` server, and a raw client.

use yoda::core::YodaInstance;
use yoda::core::{Testbed, TestbedConfig};
use yoda::http::HttpRequest;
use yoda::l4lb::{rendezvous_pick, Mux};
use yoda::netsim::{
    Addr, Bytes, Ctx, Endpoint, Engine, Node, NodeId, Packet, SimTime, TimerToken, Topology, Zone,
};
use yoda::tcp::{
    ConnId, Flags, Segment, SeqNum, SocketState, TcpEvent, TcpSocket, TcpStack, TCP_TIMER_KIND,
};

// ----------------------------------------------------------------------
// The TIME-WAIT tombstone against the socket
// ----------------------------------------------------------------------

const LOCAL: Endpoint = Endpoint::new(Addr::new(10, 2, 0, 1), 40_000);
const REMOTE: Endpoint = Endpoint::new(Addr::new(10, 1, 0, 1), 80);
const ISS: u32 = 1_000;
const PEER_ISS: u32 = 5_000;

/// A node around a stack that keeps every event the stack reports.
#[derive(Default)]
struct Host {
    stack: TcpStack,
    events: Vec<TcpEvent>,
}

impl Node for Host {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let events = self.stack.on_packet(ctx, pkt);
        self.events.extend(events);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        let events = self.stack.on_timer(ctx, token);
        self.events.extend(events);
    }
}

/// Keeps every segment it receives.
#[derive(Default)]
struct Recorder {
    got: Vec<Segment>,
}

impl Node for Recorder {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, pkt: Packet) {
        self.got.extend(Segment::from_packet(pkt));
    }
}

/// What one input made each side do: the segments it sent and the
/// events reported, by name.
type Answer = (Vec<Segment>, Vec<&'static str>);

fn name(ev: &TcpEvent) -> &'static str {
    match ev {
        TcpEvent::Incoming(..) => "incoming",
        TcpEvent::Connected(_) => "connected",
        TcpEvent::Data(_) => "data",
        TcpEvent::PeerClosed(_) => "peer closed",
        TcpEvent::Closed(_) => "closed",
        TcpEvent::Reset(_) => "reset",
    }
}

/// One connection twice: in a stack (which makes it a tombstone once only
/// TIME-WAIT is left), and as a bare socket with the stack's report rule
/// beside it — an edge-triggered event per state change, `PeerClosed`
/// once, `Data` while anything is unread.
struct Pair {
    eng: Engine,
    host: NodeId,
    peer: NodeId,
    id: ConnId,
    sock: TcpSocket,
    reported: SocketState,
    reported_peer_closed: bool,
}

impl Pair {
    /// Connected, closed by us, then the peer's FIN: both sides in
    /// TIME-WAIT, with nothing unread.
    fn in_time_wait() -> Pair {
        let mut eng = Engine::with_topology(7, Topology::uniform(SimTime::from_micros(100)));
        let host = eng.add_node("host", LOCAL.addr, Zone::Dc, Box::<Host>::default());
        let peer = eng.add_node("peer", REMOTE.addr, Zone::Dc, Box::<Recorder>::default());
        let mut id = None;
        eng.with_node_ctx::<Host>(host, |h, ctx| {
            id = Some(
                h.stack
                    .connect_with_isn(ctx, LOCAL, REMOTE, SeqNum::new(ISS)),
            );
        });
        let (sock, syn) = TcpSocket::connect(LOCAL, REMOTE, SeqNum::new(ISS), eng.now());
        let mut p = Pair {
            eng,
            host,
            peer,
            id: id.expect("connected"),
            sock,
            reported: SocketState::SynSent,
            reported_peer_closed: false,
        };
        let (stack, socket) = p.settle(vec![syn], false);
        assert_eq!(stack, socket);
        let (stack, socket) = p.segment(seg(Flags::SYN_ACK, PEER_ISS, ISS + 1, b""));
        assert_eq!(stack, socket);
        let (stack, socket) = p.both(
            |sock, now, out| sock.close(now, out),
            |s, ctx, id| s.close(ctx, id),
        );
        assert_eq!(stack, socket);
        let (stack, socket) = p.segment(seg(Flags::ACK, PEER_ISS + 1, ISS + 2, b""));
        assert_eq!(stack, socket);
        let (stack, socket) = p.segment(seg(Flags::FIN_ACK, PEER_ISS + 1, ISS + 2, b""));
        assert_eq!(stack, socket);
        assert_eq!(stack.1, ["closed", "peer closed"]);
        assert_eq!(p.sock.state(), SocketState::TimeWait);
        assert!(
            p.host().stack.socket(p.id).is_none(),
            "a tombstone, not the socket"
        );
        p
    }

    fn host(&self) -> &Host {
        self.eng.node_ref::<Host>(self.host)
    }

    /// The socket's events since the last report, by the stack's rule.
    fn report(&mut self) -> Vec<&'static str> {
        let mut events = Vec::new();
        let state = self.sock.state();
        if state != self.reported {
            match state {
                SocketState::Established => events.push("connected"),
                SocketState::Reset => events.push("reset"),
                SocketState::Closed | SocketState::TimeWait => events.push("closed"),
                _ => {}
            }
            self.reported = state;
        }
        if self.sock.peer_closed() && !self.reported_peer_closed {
            self.reported_peer_closed = true;
            events.push("peer closed");
        }
        if self.sock.has_unread() {
            events.push("data");
        }
        events
    }

    /// Lets the stack's packets reach the peer; returns them and the
    /// stack's events, with the socket's answer beside them. The stack
    /// reports after a segment or a timer, never after an owner call.
    fn settle(&mut self, socket_out: Vec<Segment>, reports: bool) -> (Answer, Answer) {
        self.eng.run_for(SimTime::from_millis(1));
        let got = std::mem::take(&mut self.eng.node_mut::<Recorder>(self.peer).got);
        let events = std::mem::take(&mut self.eng.node_mut::<Host>(self.host).events);
        let stack = (got, events.iter().map(name).collect());
        let socket_events = if reports { self.report() } else { Vec::new() };
        (stack, (socket_out, socket_events))
    }

    /// Applies one owner call to both sides.
    fn both(
        &mut self,
        on_socket: impl FnOnce(&mut TcpSocket, SimTime, &mut Vec<Segment>),
        on_stack: impl FnOnce(&mut TcpStack, &mut Ctx<'_>, ConnId),
    ) -> (Answer, Answer) {
        let mut out = Vec::new();
        on_socket(&mut self.sock, self.eng.now(), &mut out);
        let id = self.id;
        self.eng.with_node_ctx::<Host>(self.host, |h, ctx| {
            on_stack(&mut h.stack, ctx, id);
        });
        self.settle(out, false)
    }

    /// Delivers one segment from the peer to both sides.
    fn segment(&mut self, s: Segment) -> (Answer, Answer) {
        let mut out = Vec::new();
        self.sock.on_segment(&s, self.eng.now(), &mut out);
        let pkt = s.into_packet(REMOTE, LOCAL);
        self.eng.with_node_ctx::<Host>(self.host, |h, ctx| {
            let events = h.stack.on_packet(ctx, pkt);
            h.events.extend(events);
        });
        self.settle(out, true)
    }

    /// Runs to the TIME-WAIT deadline, where both sides' timers fire.
    fn deadline(&mut self) -> (Answer, Answer) {
        let deadline = self.sock.next_deadline().expect("TIME-WAIT is timed");
        let mut out = Vec::new();
        self.sock.on_timer(deadline, &mut out);
        self.eng.run_until(deadline);
        self.settle(out, true)
    }
}

fn seg(flags: Flags, seq: u32, ack: u32, payload: &'static [u8]) -> Segment {
    Segment {
        src_port: REMOTE.port,
        dst_port: LOCAL.port,
        seq: SeqNum::new(seq),
        ack: SeqNum::new(ack),
        flags,
        window: 65_535,
        payload: Bytes::from_static(payload),
    }
}

/// The ACK either side sends in TIME-WAIT: at our FIN's end, for the
/// peer's.
fn time_wait_ack() -> Segment {
    Segment {
        src_port: LOCAL.port,
        dst_port: REMOTE.port,
        seq: SeqNum::new(ISS + 2),
        ack: SeqNum::new(PEER_ISS + 2),
        flags: Flags::ACK,
        window: 1 << 20,
        payload: Bytes::new(),
    }
}

#[test]
fn a_time_wait_tombstone_answers_like_the_socket() {
    let fin = || seg(Flags::FIN_ACK, PEER_ISS + 1, ISS + 2, b"");
    let ack = seg(Flags::ACK, PEER_ISS + 2, ISS + 2, b"");
    let syn = seg(Flags::SYN, 90_000, 0, b"");
    let rst = seg(Flags::RST, PEER_ISS + 2, 0, b"");

    // A retransmitted FIN is ACKed again; a pure ACK and a SYN on the
    // reused 4-tuple are ignored; the deadline closes.
    let mut p = Pair::in_time_wait();
    let answers = [
        p.segment(fin()),
        p.segment(ack),
        p.segment(syn),
        p.segment(fin()),
        p.deadline(),
    ];
    let want: [Answer; 5] = [
        (vec![time_wait_ack()], vec![]),
        (vec![], vec![]),
        (vec![], vec![]),
        (vec![time_wait_ack()], vec![]),
        (vec![], vec!["closed"]),
    ];
    for (i, ((stack, socket), want)) in answers.into_iter().zip(want).enumerate() {
        assert_eq!(
            stack, socket,
            "input {i}: the tombstone and the socket differ"
        );
        assert_eq!(stack, want, "input {i}");
    }
    assert_eq!(p.eng.timer_backlog(), 0);

    // A RST resets at once, and nothing is left to time.
    let mut p = Pair::in_time_wait();
    let (stack, socket) = p.segment(rst);
    assert_eq!(stack, socket);
    assert_eq!(stack, (vec![], vec!["reset"]));
    assert_eq!(p.eng.timer_backlog(), 0, "the reset cancelled the deadline");

    // `abort` sends a RST at `snd_nxt`; the reset is reported when the
    // deadline fires.
    let mut p = Pair::in_time_wait();
    let (stack, socket) = p.both(
        |sock, _, out| out.push(sock.abort()),
        |s, ctx, id| s.abort(ctx, id),
    );
    assert_eq!(stack, socket);
    let rst_out = Segment {
        flags: Flags::RST,
        ack: SeqNum::new(0),
        ..time_wait_ack()
    };
    assert_eq!(stack, (vec![rst_out], vec![]));
    let (stack, socket) = p.deadline();
    assert_eq!(stack, socket);
    assert_eq!(stack, (vec![], vec!["reset"]));
}

#[test]
fn text_after_the_peers_fin_is_acked_and_dropped() {
    // RFC 793 has a connection in TIME-WAIT ignore segment text: the
    // peer closed its half, so nothing it sends after its FIN is part of
    // the stream. The socket still queues in-window text, raises `Data`
    // and ACKs past it; the tombstone ACKs what it had and drops the
    // text. This is the one input on which the two differ.
    let mut p = Pair::in_time_wait();
    let (stack, socket) = p.segment(seg(Flags::ACK, PEER_ISS + 2, ISS + 2, b"late"));
    assert_eq!(stack, (vec![time_wait_ack()], vec![]));
    let socket_ack = Segment {
        ack: SeqNum::new(PEER_ISS + 2 + 4),
        ..time_wait_ack()
    };
    assert_eq!(socket, (vec![socket_ack], vec!["data"]));
}

// ----------------------------------------------------------------------
// The mux's drained entries, on a raw-TCP bed
// ----------------------------------------------------------------------

/// The mux's drain linger.
const LINGER: SimTime = SimTime::from_secs(2);
/// The raw server's address.
const SERVER: Endpoint = Endpoint::new(Addr::new(10, 1, 0, 9), 80);
const CLIENT: Addr = Addr::new(172, 16, 9, 1);
const CHUNK: usize = 100;
const HEAD: &[u8] = b"HTTP/1.0 200 OK\r\n\r\n";
/// The server's own timer: send the next chunk.
const CHUNK_KIND: u32 = 0xC4C;

/// A raw server: on a request, answers with a head and the first chunk,
/// then one more chunk every `every` until it sent `chunks`, and closes.
/// A client that closed its half meanwhile changes nothing.
struct Server {
    stack: TcpStack,
    chunks: usize,
    every: SimTime,
    conn: Option<ConnId>,
    sent: usize,
    rx: Vec<Bytes>,
}

impl Server {
    fn send_chunk(&mut self, ctx: &mut Ctx<'_>, id: ConnId) {
        self.sent += 1;
        self.stack.send(ctx, id, Bytes::from(vec![b'x'; CHUNK]));
        if self.sent == self.chunks {
            self.stack.close(ctx, id);
        } else {
            ctx.set_timer(self.every, TimerToken::new(CHUNK_KIND));
        }
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, events: impl IntoIterator<Item = TcpEvent>) {
        for ev in events {
            match ev {
                TcpEvent::Incoming(id, _) => self.conn = Some(id),
                TcpEvent::Data(id) => {
                    self.stack.recv(id, &mut self.rx);
                    self.rx.clear();
                    if self.sent == 0 {
                        self.stack.send(ctx, id, Bytes::from_static(HEAD));
                        self.send_chunk(ctx, id);
                    }
                }
                _ => {}
            }
        }
    }
}

impl Node for Server {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {
        self.stack.listen(SERVER);
    }
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let events = self.stack.on_packet(ctx, pkt);
        self.handle(ctx, events);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        match token.kind {
            TCP_TIMER_KIND => {
                let events = self.stack.on_timer(ctx, token);
                self.handle(ctx, events);
            }
            _ => {
                if let Some(id) = self.conn {
                    self.send_chunk(ctx, id);
                }
            }
        }
    }
}

/// A raw client: one HTTP/1.0 GET from `local`, and its half closed as
/// soon as the first response bytes arrive.
struct Client {
    stack: TcpStack,
    local: Endpoint,
    vip: Endpoint,
    conn: Option<ConnId>,
    rx: Vec<Bytes>,
    received: usize,
    closing: bool,
    /// When the connection reported `Closed` (both FINs exchanged).
    closed: Option<SimTime>,
}

impl Client {
    fn handle(&mut self, ctx: &mut Ctx<'_>, events: impl IntoIterator<Item = TcpEvent>) {
        for ev in events {
            match ev {
                TcpEvent::Connected(id) => {
                    let req = HttpRequest::get("/").with_header("Host", "raw.test");
                    self.stack.send(ctx, id, req.encode());
                }
                TcpEvent::Data(id) => {
                    self.stack.recv(id, &mut self.rx);
                    self.received += self.rx.drain(..).map(|b| b.len()).sum::<usize>();
                    if !self.closing {
                        self.closing = true;
                        self.stack.close(ctx, id);
                    }
                }
                TcpEvent::Closed(_) => {
                    self.closed.get_or_insert(ctx.now());
                }
                _ => {}
            }
        }
    }
}

impl Node for Client {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.conn = Some(self.stack.connect(ctx, self.local, self.vip));
    }
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let events = self.stack.on_packet(ctx, pkt);
        self.handle(ctx, events);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        let events = self.stack.on_timer(ctx, token);
        self.handle(ctx, events);
    }
}

/// Three instances and one mux, the VIP pointed at a raw server that
/// sends `chunks` chunks `every` apart.
fn raw_bed(chunks: usize, every: SimTime) -> Testbed {
    let cfg = TestbedConfig {
        seed: 37,
        num_instances: 3,
        num_stores: 2,
        num_backends: 1,
        num_muxes: 1,
        num_services: 1,
        pages_per_site: 2,
        ..TestbedConfig::default()
    };
    let mut tb = Testbed::build(cfg);
    let server = Server {
        stack: TcpStack::new(),
        chunks,
        every,
        conn: None,
        sent: 0,
        rx: Vec::new(),
    };
    tb.engine
        .add_node("raw-server", SERVER.addr, Zone::Dc, Box::new(server));
    let vip = tb.vips[0];
    tb.set_policy(
        vip,
        &format!("name=raw priority=1 match * action=split {SERVER}=1"),
    );
    tb.engine.run_for(SimTime::from_secs(1));
    tb
}

/// Adds the raw client on port `port`.
fn add_client(tb: &mut Testbed, port: u16) -> NodeId {
    let client = Client {
        stack: TcpStack::new(),
        local: Endpoint::new(CLIENT, port),
        vip: tb.vips[0],
        conn: None,
        rx: Vec::new(),
        received: 0,
        closing: false,
        closed: None,
    };
    tb.engine
        .add_node("raw-client", CLIENT, Zone::External, Box::new(client))
}

fn mux(tb: &Testbed) -> &Mux {
    tb.engine.node_ref::<Mux>(tb.muxes[0])
}

#[test]
fn a_drained_mux_entry_is_gone_one_linger_and_one_sweep_after_the_last_packet() {
    let mut tb = raw_bed(1, SimTime::ZERO);
    let client = add_client(&mut tb, 41_000);
    // Run until the flow is over, noting when the mux last forwarded one
    // of its packets (nothing else goes through the mux's slow path).
    let mut last = (mux(&tb).forwarded, tb.engine.now());
    while tb.engine.now() < last.1 + SimTime::from_millis(500) {
        tb.engine.run_for(SimTime::from_millis(5));
        if mux(&tb).forwarded != last.0 {
            last = (mux(&tb).forwarded, tb.engine.now());
        }
    }
    let c = tb.engine.node_ref::<Client>(client);
    assert_eq!(c.received, HEAD.len() + CHUNK);
    assert!(c.closed.is_some(), "both FINs went through");
    // Its two entries, the client leg and the SNAT leg, linger...
    assert_eq!(mux(&tb).flow_entries(), 2);
    tb.engine
        .run_until(last.1 + LINGER - SimTime::from_millis(100));
    assert_eq!(mux(&tb).flow_entries(), 2, "inside the linger");
    // ...and go at the first sweep after it: sweeps are a linger apart
    // and run when a packet arrives (the controller pings the mux).
    tb.engine
        .run_until(last.1 + LINGER + LINGER + SimTime::from_millis(500));
    assert_eq!(mux(&tb).flow_entries(), 0, "one linger and one sweep on");
}

#[test]
fn a_half_closed_flow_keeps_its_snat_leg_entry_while_its_server_streams() {
    // The server streams for 40 s after the client closed its half: past
    // a 10 s linger started by the client's FIN and past a 30 s sweep. A
    // chunk every 800 ms is out of step with the 2 s sweeps (which run on
    // the controller's 600 ms pings too), so some sweep falls between two
    // bursts: an entry the bursts did not refresh would go, and the next
    // chunk would re-hash.
    let (chunks, every) = (50, SimTime::from_millis(800));
    let mut tb = raw_bed(chunks, every);
    // A client port whose server leg hashes to another instance than
    // its client leg: the SNAT-leg entry, learned from the owning
    // instance, is all that steers the server's packets there.
    let (vip, instances) = (tb.vips[0], tb.instance_addrs.clone());
    let port = (41_000..42_000)
        .find(|&p| {
            let client_leg = rendezvous_pick(Endpoint::new(CLIENT, p), vip, &instances);
            let server_leg = rendezvous_pick(SERVER, Endpoint::new(vip.addr, p), &instances);
            client_leg != server_leg
        })
        .expect("a port whose legs hash apart");
    let client = add_client(&mut tb, port);
    tb.engine
        .run_for(every * chunks as u64 + SimTime::from_secs(2));
    let c = tb.engine.node_ref::<Client>(client);
    assert_eq!(
        c.received,
        HEAD.len() + chunks * CHUNK,
        "every chunk arrived"
    );
    assert!(c.closed.is_some(), "the server's FIN went through");
    for &id in &tb.instances {
        let inst = tb.engine.node_ref::<YodaInstance>(id);
        assert_eq!(
            (inst.recoveries, inst.dropped_unknown),
            (0, 0),
            "no server packet reached an instance that does not own the flow"
        );
    }
}
