//! The per-flow state machine (paper §4, Figures 3–5).
//!
//! One [`Flow`] is one client connection's life on this instance:
//! storage-a → SYN-ACK → header → backend connect → storage-b → tunnel
//! (→ HTTP/1.1 backend switch, mirror race) → drain; a drained tunnel
//! that can only translate shrinks to a [`Drained`] tombstone, and the
//! flow table holds either in a [`Slot`]. Every transition
//! takes the flow, one input and an [`Io`] — a read-only [`Env`] plus the
//! [`Action`] buffer it appends to, in the order things must happen. The
//! module (with `tunnel`, its steady-state half) knows nothing of the
//! engine, the store client, the rule tables or the maps flows live in:
//! the shell (`super`) looks the flow up, runs the transition, applies
//! the actions in order and retires flows. That keeps every
//! (phase × input) pair checkable without an engine.

use yoda_http::{parse_request, HttpRequest};
use yoda_l4lb::CtrlMsg as MuxCtrl;
use yoda_netsim::{Bytes, Endpoint, SimTime};
use yoda_tcp::{Flags, Segment, SeqNum};

use super::durability::{Waiter, WriteOp};
use super::index::{FlowKey, Leg};
use super::tunnel::{Drained, Tunnel};
use super::{make_cert, MSS, SSL_HELLO};
use crate::flowstate::{FlowRecord, SynRecord};
use crate::isn::syn_ack_isn;

/// How long a connection-phase entry may sit without reaching the
/// tunneling phase (e.g. the backend never answered) before gc expires it.
const CONNECT_TTL: SimTime = SimTime::from_secs(60);
/// Window advertised on every crafted segment.
const WINDOW: u32 = 1 << 20;

/// What a transition may read besides the flow and its input.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Env {
    pub(crate) now: SimTime,
    /// The instance is in degraded mode: do not wait on store acks.
    pub(crate) degraded: bool,
    /// `YodaConfig::optimistic_synack`.
    pub(crate) optimistic_synack: bool,
    /// `YodaConfig::splice`.
    pub(crate) splice: bool,
}

/// One effect of a transition, applied by the shell in buffer order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Action {
    /// Send a segment after `delay`; `tunneled` marks a translated
    /// (Figure 4) packet as opposed to one the instance crafted.
    Send {
        delay: SimTime,
        seg: Segment,
        src: Endpoint,
        dst: Endpoint,
        tunneled: bool,
    },
    /// A store write; the waiter, if any, comes back through
    /// [`Flow::on_stored`].
    Write(WriteOp, Option<Waiter>),
    /// Splice control for the mux owning the message's `(from, to)` leg.
    Splice(MuxCtrl),
    /// Route packets from this backend (to the flow's server-side VIP
    /// endpoint) to this flow.
    Map(Endpoint),
    /// Drop that route.
    Unmap(Endpoint),
    Count(Counter),
    /// Backend-connection establishment latency (SYN → SYN-ACK).
    ConnLatency(SimTime),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Counter {
    /// A request was routed (first selection or a mid-connection switch).
    Request,
    BackendSwitch,
    SpliceInstall,
    DroppedUnknown,
}

/// What the shell must do after a transition, besides applying actions.
#[derive(Debug)]
pub(crate) enum Step {
    Done,
    /// A complete request head is buffered: run rule selection for it and
    /// answer with [`Flow::on_selected`], handing the [`Resume`] back.
    Select(HttpRequest, Resume),
    /// The flow is over: retire it.
    Exit(Exit),
    /// SYN on a fully-closed, draining tunnel (port reuse): retire the
    /// flow, then open a fresh one from this SYN.
    Reopen(Segment),
}

/// Where a flow was when it asked for a selection.
#[derive(Debug)]
pub(crate) enum Resume {
    /// Connection phase: the first request of the connection.
    Connect,
    /// Tunneling: a later HTTP/1.1 request whose head is `request`,
    /// starting at `request_seq` (C-space); `seg` is still to be forwarded.
    Reroute {
        seg: Segment,
        request_seq: SeqNum,
        request: Bytes,
    },
}

/// Why a flow leaves the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Exit {
    /// A new SYN reused the port of a drained tunnel.
    PortReuse,
    /// The VIP is gone, or no rule matched (or all its backends are dead).
    NoRoute,
    /// storage-a or storage-b timed out: the client's retransmission
    /// will try again.
    StoreTimeout,
    /// The controller declared the flow's backend dead (§5.2).
    BackendDown,
    /// Both FINs passed and the linger ran out.
    Drained,
    /// Stuck in the connection phase past [`CONNECT_TTL`].
    Stuck,
}

/// The two ends every address and sequence number of a flow derives from.
#[derive(Debug, Clone, Copy)]
pub(super) struct Ends {
    pub(crate) client: Endpoint,
    pub(crate) vip: Endpoint,
}

impl Ends {
    /// The ends of the flow keyed `(client, vip)`.
    pub(super) fn of((client, vip): FlowKey) -> Ends {
        Ends { client, vip }
    }

    /// The server-side VIP endpoint: (VIP addr, client port). Yoda reuses
    /// the client's port on the backend connection.
    pub(super) fn vss(self) -> Endpoint {
        Endpoint::new(self.vip.addr, self.client.port)
    }

    /// `Y`: the deterministic ISN of the SYN-ACK (no state needed — §4.1).
    pub(super) fn yoda_isn(self) -> SeqNum {
        syn_ack_isn(self.client, self.vip)
    }
}

/// What a transition works through: the environment it reads, the delay
/// its sends carry, and the buffer its effects go to.
pub(crate) struct Io<'a> {
    pub(crate) env: Env,
    /// Modelled processing delay of the packet being handled.
    pub(crate) delay: SimTime,
    pub(crate) out: &'a mut Vec<Action>,
}

impl Io<'_> {
    /// A segment the instance originates (as opposed to translates).
    fn craft(
        &mut self,
        (src, dst): (Endpoint, Endpoint),
        (seq, ack): (SeqNum, SeqNum),
        flags: Flags,
        payload: Bytes,
    ) {
        let seg = Segment {
            src_port: src.port,
            dst_port: dst.port,
            seq,
            ack,
            flags,
            window: if flags.rst { 0 } else { WINDOW },
            payload,
        };
        self.out.push(Action::Send {
            delay: self.delay,
            seg,
            src,
            dst,
            tunneled: false,
        });
    }

    /// VIP → client.
    fn send_client(&mut self, e: Ends, seq: SeqNum, ack: SeqNum, flags: Flags, payload: Bytes) {
        self.craft((e.vip, e.client), (seq, ack), flags, payload);
    }

    fn syn_ack(&mut self, e: Ends, client_isn: SeqNum) {
        self.send_client(
            e,
            e.yoda_isn(),
            client_isn + 1,
            Flags::SYN_ACK,
            Bytes::new(),
        );
    }

    /// (VIP, client-port) → backend, ACK with data.
    pub(super) fn data(&mut self, e: Ends, to: Endpoint, seq: SeqNum, ack: SeqNum, data: Bytes) {
        self.craft((e.vss(), to), (seq, ack), Flags::ACK, data);
    }

    /// The backend SYN; its ISN makes request bytes keep their client
    /// sequence numbers.
    pub(super) fn syn(&mut self, e: Ends, to: Endpoint, isn: SeqNum) {
        self.craft(
            (e.vss(), to),
            (isn, SeqNum::new(0)),
            Flags::SYN,
            Bytes::new(),
        );
    }

    /// Resets a backend connection, in client sequence space.
    pub(super) fn rst(&mut self, e: Ends, to: Endpoint, seq: SeqNum) {
        self.craft(
            (e.vss(), to),
            (seq, SeqNum::new(0)),
            Flags::RST,
            Bytes::new(),
        );
    }

    pub(super) fn count(&mut self, c: Counter) {
        self.out.push(Action::Count(c));
    }

    /// A store write nobody waits on.
    fn fire(&mut self, op: WriteOp) {
        self.out.push(Action::Write(op, None));
    }

    /// Tells the client the connection is gone (a RST from the VIP) and
    /// deletes the flow's TCPStore records.
    fn reset_client(&mut self, e: Ends, backend: Endpoint) {
        self.send_client(
            e,
            e.yoda_isn() + 1,
            SeqNum::new(0),
            Flags::RST,
            Bytes::new(),
        );
        self.delete_records(e, backend);
    }

    /// Deletes all three TCPStore records of the flow.
    pub(super) fn delete_records(&mut self, e: Ends, backend: Endpoint) {
        self.fire(WriteOp::Delete(SynRecord::key(e.client, e.vip)));
        self.fire(WriteOp::Delete(FlowRecord::key(e.client, e.vip)));
        self.fire(WriteOp::Delete(FlowRecord::rkey(backend, e.vss())));
    }

    /// Points both TCPStore flow records at `rec.backend` and drops the
    /// reverse record of `old_backend`, so recovery lands on the new one.
    pub(super) fn rehome_records(&mut self, e: Ends, rec: FlowRecord, old_backend: Endpoint) {
        let value = rec.encode();
        self.fire(WriteOp::Set(
            FlowRecord::key(e.client, e.vip),
            value.clone(),
        ));
        self.fire(WriteOp::Set(FlowRecord::rkey(rec.backend, e.vss()), value));
        self.fire(WriteOp::Delete(FlowRecord::rkey(old_backend, e.vss())));
    }

    /// Revokes one leg's splice entry. Redundant removes are harmless —
    /// mux-side removal is idempotent.
    pub(super) fn unsplice(&mut self, from: Endpoint, to: Endpoint) {
        self.out
            .push(Action::Splice(MuxCtrl::SpliceRemove { from, to }));
    }
}

/// `data` in MSS-sized chunks, each with its sequence number from `base`.
fn chunked(data: &Bytes, base: SeqNum) -> impl Iterator<Item = (SeqNum, Bytes)> + '_ {
    (0..data.len()).step_by(MSS).map(move |offset| {
        let end = (offset + MSS).min(data.len());
        (base + offset as u32, data.slice(offset..end))
    })
}

/// SYN-ACK sent; collecting the HTTP request header (for SSL VIPs: the
/// ClientHello, then the certificate exchange, then the header).
#[derive(Debug)]
struct Header {
    client_isn: SeqNum,
    buf: Vec<u8>,
    /// Next expected C-space sequence number.
    next_seq: SeqNum,
    /// SSL: the ClientHello was consumed and the certificate sent.
    hello_done: bool,
}

/// Backend SYN sent; waiting for its SYN-ACK. `mirrors` carries the extra
/// race targets of a mirror action (§5.2), which also received SYNs.
#[derive(Debug)]
struct Connect {
    client_isn: SeqNum,
    backend: Endpoint,
    mirrors: Vec<Endpoint>,
    header: Bytes,
    syn_sent_at: SimTime,
}

/// storage-b in flight; backend ACK + request withheld.
#[derive(Debug)]
struct Storing {
    record: FlowRecord,
    header: Bytes,
    pending_sets: u8,
    racing: Vec<Endpoint>,
    /// Racer SYN-ACKs that arrived while storage-b was in flight.
    racer_isns: Vec<(Endpoint, SeqNum)>,
}

#[derive(Debug)]
enum Phase {
    /// storage-a in flight; SYN-ACK withheld until it completes.
    StoringSyn {
        client_isn: SeqNum,
    },
    AwaitHeader(Header),
    Connecting(Connect),
    StoringFlow(Storing),
    /// Steady state: pure header rewriting.
    Tunneling(Tunnel),
}

/// One client connection (see the module docs).
#[derive(Debug)]
pub(crate) struct Flow {
    ends: Ends,
    /// SSL VIPs (§5.2): the certificate length of the flow's VIP, read
    /// from its config when the flow is created.
    cert_len: Option<u32>,
    created: SimTime,
    phase: Phase,
}

impl Flow {
    fn at(key: FlowKey, cert_len: Option<u32>, now: SimTime, phase: Phase) -> Flow {
        Flow {
            ends: Ends::of(key),
            cert_len,
            created: now,
            phase,
        }
    }

    fn await_header(client_isn: SeqNum, hello_done: bool) -> Phase {
        let hello = if hello_done {
            SSL_HELLO.len() as u32
        } else {
            0
        };
        Phase::AwaitHeader(Header {
            client_isn,
            buf: Vec::new(),
            next_seq: client_isn + 1 + hello,
            hello_done,
        })
    }

    /// Figure 3 step 1, on a fresh client SYN: persist the SYN header
    /// (storage-a) and withhold the SYN-ACK until it is durable.
    pub(crate) fn open(
        key: FlowKey,
        cert_len: Option<u32>,
        client_isn: SeqNum,
        io: &mut Io,
    ) -> Flow {
        let (client, vip) = key;
        let record = SynRecord {
            client,
            vip,
            client_isn,
        };
        let store = WriteOp::Set(SynRecord::key(client, vip), record.encode());
        let mut flow = Flow::at(key, cert_len, io.env.now, Phase::StoringSyn { client_isn });
        if io.env.optimistic_synack || io.env.degraded {
            // Ablation mode — or degraded mode under a store brownout:
            // answer first, persist in the background (write-behind while
            // degraded). A crash between the two loses the flow.
            io.fire(store);
            flow.phase = Flow::await_header(client_isn, false);
            io.syn_ack(flow.ends, client_isn);
        } else {
            let waiter = Waiter::SynStored(key);
            io.out.push(Action::Write(store, Some(waiter)));
        }
        flow
    }

    /// Connection-phase recovery (Fig. 5a) from a bare [`SynRecord`]:
    /// rebuild the header wait; the retransmitted data re-drives rule
    /// selection. SSL VIPs: the hello was consumed by the dead instance,
    /// so the byte stream resumes after it; the retransmitted hello (or
    /// request) re-drives the certificate exchange.
    pub(crate) fn recover_syn(rec: SynRecord, cert_len: Option<u32>, now: SimTime) -> Flow {
        let phase = Flow::await_header(rec.client_isn, cert_len.is_some());
        Flow::at((rec.client, rec.vip), cert_len, now, phase)
    }

    /// Tunneling-phase recovery (Fig. 5b): rebuilds the translation state
    /// from a stored [`FlowRecord`]. SSL VIPs shift both constants by
    /// deterministic amounts any instance can recompute from the VIP
    /// config. The constants were just re-derived, so the flow can
    /// re-splice directly (inspection is off: both legs qualify).
    pub(crate) fn recover(rec: FlowRecord, cert_len: Option<u32>, io: &mut Io) -> Flow {
        let (client, vip) = (rec.client, rec.vip);
        let ends = Ends { client, vip };
        let mut tunnel = Tunnel::new(ends, rec, cert_len.unwrap_or(0));
        io.out.push(Action::Map(rec.backend));
        tunnel.install_splices(ends, io);
        let phase = Phase::Tunneling(tunnel);
        Flow::at((client, vip), cert_len, io.env.now, phase)
    }

    /// The backend this flow is connected (or connecting) to.
    pub(crate) fn backend(&self) -> Option<Endpoint> {
        match &self.phase {
            Phase::Connecting(c) => Some(c.backend),
            Phase::StoringFlow(s) => Some(s.record.backend),
            Phase::Tunneling(t) => Some(t.backend),
            Phase::StoringSyn { .. } | Phase::AwaitHeader(_) => None,
        }
    }

    /// The backend whose open-connection count this flow holds: its
    /// backend, from selection until both FINs have passed.
    pub(crate) fn load_backend(&self) -> Option<Endpoint> {
        match &self.phase {
            Phase::Tunneling(t) if t.drain_deadline.is_some() => None,
            _ => self.backend(),
        }
    }

    /// The tombstone to keep instead of the flow, once it is a drained
    /// tunnel that can only translate ([`Tunnel::drained`]).
    pub(crate) fn drained(&self) -> Option<Drained> {
        match &self.phase {
            Phase::Tunneling(t) => t.drained(),
            _ => None,
        }
    }

    /// Whether gc should expire the flow now, and as what.
    pub(crate) fn expired(&self, now: SimTime) -> Option<Exit> {
        match &self.phase {
            Phase::Tunneling(t) => {
                let drained = t.drain_deadline.is_some_and(|d| now >= d);
                drained.then_some(Exit::Drained)
            }
            _ => (now.saturating_sub(self.created) > CONNECT_TTL).then_some(Exit::Stuck),
        }
    }

    // ------------------------------------------------------------------
    // Inputs
    // ------------------------------------------------------------------

    /// A segment on the client → VIP direction.
    pub(crate) fn on_client(&mut self, seg: Segment, io: &mut Io) -> Step {
        let e = self.ends;
        match &mut self.phase {
            // A duplicate SYN while storage-a is in flight, or a header
            // retransmission while storage-b is: ignored — the SYN-ACK
            // (resp. the forwarded request) that follows the store ack
            // covers it.
            Phase::StoringSyn { .. } | Phase::StoringFlow(_) => Step::Done,
            Phase::AwaitHeader(h) => h.on_client(e, self.cert_len, seg, io),
            Phase::Connecting(c) => {
                // Client retransmits the header because nothing ACKed it
                // yet; re-kick the (primary) backend SYN in case it was
                // lost.
                io.syn(e, c.backend, c.client_isn);
                Step::Done
            }
            Phase::Tunneling(t) => t.on_client(e, seg, io),
        }
    }

    /// The shell's answer to [`Step::Select`]: the rule engine's pick
    /// (primary backend plus mirror targets), or `None` when the VIP is
    /// gone or nothing matched.
    pub(crate) fn on_selected(
        &mut self,
        choice: Option<(Endpoint, Vec<Endpoint>)>,
        resume: Resume,
        io: &mut Io,
    ) -> Step {
        let e = self.ends;
        match (&mut self.phase, resume) {
            (Phase::AwaitHeader(h), Resume::Connect) => {
                let Some((backend, mirrors)) = choice else {
                    return Step::Exit(Exit::NoRoute);
                };
                io.count(Counter::Request);
                // Backend connection from (VIP, client-port), ISN = client
                // ISN. A mirror action (§5.2) opens a racing connection to
                // every target; all use the same VIP-side endpoint (their
                // server-side 5-tuples differ by backend address).
                for &b in std::iter::once(&backend).chain(&mirrors) {
                    io.out.push(Action::Map(b));
                    io.syn(e, b, h.client_isn);
                }
                self.phase = Phase::Connecting(Connect {
                    client_isn: h.client_isn,
                    backend,
                    mirrors,
                    header: Bytes::copy_from_slice(&h.buf),
                    syn_sent_at: io.env.now,
                });
                Step::Done
            }
            (
                Phase::Tunneling(t),
                Resume::Reroute {
                    seg,
                    request_seq,
                    request,
                },
            ) => {
                let pick = choice.map(|(primary, _)| primary);
                t.on_selected(e, pick, seg, (request_seq, request), io)
            }
            _ => Step::Done,
        }
    }

    /// A segment on the backend → VIP direction, from backend `from`.
    pub(crate) fn on_server(&mut self, from: Endpoint, seg: Segment, io: &mut Io) -> Step {
        let e = self.ends;
        match &mut self.phase {
            Phase::Connecting(c) => {
                // Only the SYN-ACK answering our SYN moves the flow on.
                if !(seg.flags.syn && seg.flags.ack) || seg.ack != c.client_isn + 1 {
                    return Step::Done;
                }
                let record = FlowRecord {
                    client: e.client,
                    vip: e.vip,
                    backend: from,
                    client_isn: c.client_isn,
                    server_isn: seg.seq,
                };
                let latency = io.env.now.saturating_sub(c.syn_sent_at);
                io.out.push(Action::ConnLatency(latency));
                // storage-b: primary + reverse keys, in parallel. Under a
                // brownout they go to the write-behind buffer and the
                // tunnel commits immediately — forwarding must not stall
                // on a store that is timing out.
                let waiter = (!io.env.degraded).then_some(Waiter::FlowStored((e.client, e.vip)));
                let keys = [
                    FlowRecord::key(e.client, e.vip),
                    FlowRecord::rkey(from, e.vss()),
                ];
                for key in keys {
                    let set = WriteOp::Set(key, record.encode());
                    io.out.push(Action::Write(set, waiter));
                }
                // The first backend to complete the handshake becomes the
                // stored backend; the rest keep racing for the response.
                let all = std::iter::once(c.backend).chain(c.mirrors.iter().copied());
                self.phase = Phase::StoringFlow(Storing {
                    record,
                    header: std::mem::take(&mut c.header),
                    pending_sets: 2,
                    racing: all.filter(|&b| b != from).collect(),
                    racer_isns: Vec::new(),
                });
                if io.env.degraded {
                    self.enter_tunnel(io);
                }
                Step::Done
            }
            Phase::StoringFlow(s) => {
                // A racer's SYN-ACK landing while storage-b is in flight:
                // remember its ISN so the race can include it. (The stored
                // backend's own duplicate SYN-ACK is covered by the coming
                // ACK.)
                if seg.flags.syn
                    && seg.flags.ack
                    && from != s.record.backend
                    && s.racing.contains(&from)
                    && !s.racer_isns.iter().any(|(b, _)| *b == from)
                {
                    s.racer_isns.push((from, seg.seq));
                }
                Step::Done
            }
            Phase::Tunneling(t) => t.on_server(e, from, seg, io),
            // A reverse mapping outlived its flow and the key was reused.
            Phase::StoringSyn { .. } | Phase::AwaitHeader(_) => Step::Done,
        }
    }

    /// A store write this flow waited on has landed. Returns whether that
    /// completed storage-b (the shell records the critical-path latency).
    pub(crate) fn on_stored(&mut self, waiter: Waiter, io: &mut Io) -> bool {
        match (&mut self.phase, waiter) {
            (Phase::StoringSyn { client_isn }, Waiter::SynStored(_)) => {
                // Figure 3 step 2: the deterministic SYN-ACK, sent only
                // *after* storage-a is durable.
                let client_isn = *client_isn;
                self.phase = Flow::await_header(client_isn, false);
                io.syn_ack(self.ends, client_isn);
                false
            }
            (Phase::StoringFlow(s), Waiter::FlowStored(_)) => {
                s.pending_sets -= 1;
                let done = s.pending_sets == 0;
                if done {
                    self.enter_tunnel(io);
                }
                done
            }
            _ => false,
        }
    }

    /// The flow's backend died (§5.2): the client gets a RST from the VIP
    /// and all state is deleted. The shell retires the flow.
    pub(crate) fn reset(&mut self, io: &mut Io) {
        let e = self.ends;
        let Some(backend) = self.backend() else {
            return;
        };
        if let Phase::Tunneling(t) = &mut self.phase {
            // The client RST below is DSR and never crosses the muxes,
            // so their splice entries must be revoked explicitly.
            t.revoke_splices(e, io);
        }
        io.reset_client(e, backend);
    }

    /// Figure 3 step 3 — completes storage-b: ACK the backend, forward
    /// the buffered request, feed any racers, and hand the flow to the
    /// tunneling phase. Runs when the store acks both sets — or
    /// immediately in degraded mode, where the sets sit in the
    /// write-behind buffer.
    fn enter_tunnel(&mut self, io: &mut Io) {
        let e = self.ends;
        let Phase::StoringFlow(s) = &mut self.phase else {
            return;
        };
        let (record, header) = (s.record, std::mem::take(&mut s.header));
        let cert = self.cert_len.unwrap_or(0);
        let mut t = Tunnel::new(e, record, cert);
        let isn_of = |b| s.racer_isns.iter().find(|(r, _)| *r == b).map(|(_, i)| *i);
        t.racing = s.racing.iter().map(|&b| (b, isn_of(b))).collect();
        let is_racing = !t.racing.is_empty();
        // HTTP/1.1 inspection is off for mirror races (the request owns
        // the connection until the race settles) and for SSL flows (the
        // hello offset would skew the spliced sequence spaces on a
        // switch).
        t.inspect_enabled = !is_racing && cert == 0;
        t.inspect_next += header.len() as u32;
        t.race_request = is_racing.then(|| header.clone());
        // ACK the backend's SYN-ACK and forward the buffered HTTP request
        // in client sequence space; racers whose handshakes already
        // completed get it now too (the rest when their SYN-ACK lands).
        io.delay = SimTime::ZERO;
        for (seq, chunk) in chunked(&header, record.client_isn + 1) {
            io.data(e, record.backend, seq, record.server_isn + 1, chunk);
        }
        for (racer, isn) in std::mem::take(&mut s.racer_isns) {
            io.data(e, racer, record.client_isn + 1, isn + 1, header.clone());
        }
        // Handshake, rule pick and storage are done: hand the steady
        // state to the mux fast path (no-op while a mirror race is live;
        // settled races install later).
        t.install_splices(e, io);
        self.phase = Phase::Tunneling(t);
    }
}

/// What the flow table holds for one key: a flow in progress, or the
/// tombstone of a drained tunnel. The shell looks up, retires and gc's
/// either through the same few questions.
#[derive(Debug)]
pub(crate) enum Slot {
    Live(Box<Flow>),
    Drained(Drained),
}

impl Leg for Slot {
    fn backend(&self) -> Option<Endpoint> {
        match self {
            Slot::Live(f) => f.backend(),
            Slot::Drained(d) => Some(d.backend),
        }
    }
}

impl Slot {
    /// [`Flow::load_backend`]: a tombstone holds no count.
    pub(crate) fn load_backend(&self) -> Option<Endpoint> {
        match self {
            Slot::Live(f) => f.load_backend(),
            Slot::Drained(_) => None,
        }
    }

    /// [`Flow::expired`].
    pub(crate) fn expired(&self, now: SimTime) -> Option<Exit> {
        match self {
            Slot::Live(f) => f.expired(now),
            Slot::Drained(d) => (now >= d.deadline).then_some(Exit::Drained),
        }
    }

    /// [`Flow::reset`]; a tombstone has no splice left to revoke.
    pub(crate) fn reset(&mut self, key: FlowKey, io: &mut Io) {
        match self {
            Slot::Live(f) => f.reset(io),
            Slot::Drained(d) => io.reset_client(Ends::of(key), d.backend),
        }
    }
}

impl Header {
    fn on_client(&mut self, e: Ends, cert_len: Option<u32>, seg: Segment, io: &mut Io) -> Step {
        if seg.flags.syn {
            // Retransmitted SYN: regenerate the deterministic SYN-ACK.
            io.syn_ack(e, self.client_isn);
            return Step::Done;
        }
        // Append in-order fresh bytes to the header buffer.
        let mut stale_retransmit = false;
        if !seg.payload.is_empty() && seg.seq.le(self.next_seq) {
            let skip = (self.next_seq - seg.seq) as usize;
            match seg.payload.get(skip..) {
                Some(fresh) if !fresh.is_empty() => {
                    self.buf.extend_from_slice(fresh);
                    self.next_seq += fresh.len() as u32;
                }
                _ => stale_retransmit = true,
            }
        }
        // SSL VIPs (§5.2): consume ClientHello(s) and answer each with the
        // full certificate — retransmitted hellos after a failover get the
        // entire certificate again ("TCP buffer at the client will remove
        // duplicate packets").
        if let Some(cert_len) = cert_len {
            let mut send_cert = stale_retransmit && self.hello_done;
            while self.buf.starts_with(SSL_HELLO) {
                self.buf.drain(..SSL_HELLO.len());
                self.hello_done = true;
                send_cert = true;
            }
            if send_cert {
                // The whole deterministic certificate, from Y+1 in the
                // client-facing sequence space. Idempotent: the client's
                // TCP reassembly discards duplicates.
                for (seq, chunk) in chunked(&make_cert(cert_len), e.yoda_isn() + 1) {
                    io.send_client(e, seq, self.next_seq, Flags::ACK, chunk);
                }
                return Step::Done;
            }
            if !self.hello_done {
                return Step::Done; // Wait for the hello.
            }
        }
        if let Some((req, _)) = parse_request(&self.buf) {
            return Step::Select(req, Resume::Connect);
        }
        if !self.buf.is_empty() {
            // Multi-segment header: ACK what we have so the client keeps
            // sending ("ACK is sent ... if needed", §4.1).
            io.send_client(e, e.yoda_isn() + 1, self.next_seq, Flags::ACK, Bytes::new());
        }
        Step::Done
    }
}

#[cfg(test)]
impl Flow {
    /// The phase's name, for the transition-table test.
    pub(crate) fn phase_name(&self) -> &'static str {
        match &self.phase {
            Phase::StoringSyn { .. } => "StoringSyn",
            Phase::AwaitHeader(_) => "AwaitHeader",
            Phase::Connecting(_) => "Connecting",
            Phase::StoringFlow(_) => "StoringFlow",
            Phase::Tunneling(_) => "Tunneling",
        }
    }
}
