//! The tunneling phase of a flow (paper §4.1 Figure 4, §5.2): sequence
//! translation in both directions, the FIN/drain bookkeeping, the mux
//! splice hand-off, HTTP/1.1 backend switches and mirror races, and the
//! [`Drained`] tombstone a closed tunnel shrinks to. The steady-state
//! half of the `flow` state machine — same rules: one input, effects
//! into the [`Io`] buffer, nothing else touched.

use yoda_http::{parse_request, HttpRequest};
use yoda_l4lb::CtrlMsg as MuxCtrl;
use yoda_netsim::{Bytes, Endpoint, SimTime};
use yoda_tcp::{Segment, SeqNum, Translation};

use super::flow::{Action, Counter, Ends, Io, Resume, Step};
use super::SSL_HELLO;
use crate::flowstate::FlowRecord;

/// How long a fully-closed flow's local entry lingers to forward final
/// ACKs (its TCPStore records are deleted immediately).
const DRAIN_LINGER: SimTime = SimTime::from_secs(2);
/// Minimum gap between splice installs for one flow. A slow-path packet
/// the mux should have carried, on a flow the instance believes is
/// spliced, means the mux lost the entry (cold restart); the throttle
/// keeps the re-install from repeating for every in-flight packet.
const SPLICE_REINSTALL: SimTime = SimTime::from_millis(10);

/// Tunneling-phase per-flow state (Figure 4's translation constants).
#[derive(Debug)]
pub(super) struct Tunnel {
    pub(crate) backend: Endpoint,
    /// Server→client sequence-space offset: added to the backend's
    /// sequence numbers, subtracted from the client's ack numbers.
    delta: u32,
    /// Certificate length of an SSL VIP (§5.2), 0 for plain HTTP: the
    /// certificate bytes exist only on the server→client leg, and the
    /// ClientHello bytes only on the other.
    cert: u32,
    /// The C-space sequence number of the client's FIN, once it passed.
    client_fin: Option<SeqNum>,
    server_fin: bool,
    /// Set once both FINs passed; entry is dropped after the linger.
    pub(crate) drain_deadline: Option<SimTime>,
    /// Whether HTTP/1.1 inspection is active for this flow (disabled on
    /// recovered flows, whose stream position is unknown).
    pub(crate) inspect_enabled: bool,
    /// Next client-space (C) sequence number expected for inspection.
    pub(crate) inspect_next: SeqNum,
    /// Reassembly buffer for HTTP/1.1 request inspection.
    inspect_buf: Vec<u8>,
    /// Next Y-space sequence number the client expects (the furthest of
    /// forwarded response bytes and client acks; needed to splice a new
    /// backend in).
    pub(crate) client_next: SeqNum,
    /// In-progress backend switch (§5.2): SYN sent to the new backend.
    switching: Option<Box<SwitchState>>,
    /// Mirror race (§5.2): other backends still competing to answer
    /// first, with their ISNs once their SYN-ACKs arrive.
    pub(crate) racing: Vec<(Endpoint, Option<SeqNum>)>,
    /// The request bytes, kept while a race is live (to feed late racers).
    pub(crate) race_request: Option<Bytes>,
    /// Client ISN, kept while a race is live (for racer handshakes/RSTs).
    pub(crate) race_client_isn: SeqNum,
    /// Mux fast path: splice entries are believed installed for both legs
    /// (the client leg acks-only while inspection is on).
    spliced: bool,
    /// When splice installs were last sent (re-install throttle).
    splice_sent_at: SimTime,
}

#[derive(Debug)]
struct SwitchState {
    new_backend: Endpoint,
    /// C-space sequence number where the new request begins; the new
    /// backend connection's ISN is this − 1.
    request_seq: SeqNum,
    /// The buffered request bytes to forward once connected.
    request: Bytes,
}

/// Which way a tunneled packet is going.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Dir {
    ToBackend,
    ToClient,
}

impl Tunnel {
    /// The tunnel a stored record describes, as storage-b commits it and
    /// recovery rebuilds it: the backend's stream continues the client's
    /// right after the SYN-ACK and the certificate, so
    /// `delta = (Y + cert) − server_isn`, and [`Self::record`] is the
    /// inverse. No inspection (the stream position is unknown), no race,
    /// nothing spliced yet.
    pub(super) fn new(e: Ends, rec: FlowRecord, cert: u32) -> Self {
        let mut t = Tunnel {
            backend: rec.backend,
            delta: 0,
            cert,
            client_fin: None,
            server_fin: false,
            drain_deadline: None,
            inspect_enabled: false,
            inspect_next: rec.client_isn + 1 + hello_len(cert),
            inspect_buf: Vec::new(),
            client_next: Tunnel::start(e, cert),
            switching: None,
            racing: Vec::new(),
            race_request: None,
            race_client_isn: rec.client_isn,
            spliced: false,
            splice_sent_at: SimTime::ZERO,
        };
        t.rehome(rec.backend, rec.server_isn);
        t
    }

    pub(super) fn on_client(&mut self, e: Ends, seg: Segment, io: &mut Io) -> Step {
        if seg.flags.syn && !seg.flags.ack {
            // On a drained tunnel this is port reuse; on a live one the
            // SYN is bogus and dropped.
            return match self.drain_deadline {
                Some(_) => Step::Reopen(seg),
                None => Step::Done,
            };
        }
        // The client's stream position, from the ack of every segment it
        // sends (already in Y-space), before inspection can start a switch
        // that holds the segment: with both legs spliced, the ack on the
        // next request is the first the instance sees — enough, as acks
        // are cumulative. (Unspliced this never passes the forwarded data:
        // a client never acks beyond delivery.)
        if seg.flags.ack && self.client_next.lt(seg.ack) {
            self.client_next = seg.ack;
        }
        if self.inspect_enabled && !seg.payload.is_empty() {
            if let Some((req, request_seq, request)) = self.inspect(&seg) {
                let resume = Resume::Reroute {
                    seg,
                    request_seq,
                    request,
                };
                return Step::Select(req, resume);
            }
        }
        self.forward(Dir::ToBackend, e, seg, io)
    }

    /// The rule engine's pick for the request [`Self::inspect`] found.
    /// Same backend, no pick, or a switch already in progress: keep
    /// tunneling. Either way `seg` still goes through the tunnel.
    pub(super) fn on_selected(
        &mut self,
        e: Ends,
        pick: Option<Endpoint>,
        seg: Segment,
        request: (SeqNum, Bytes),
        io: &mut Io,
    ) -> Step {
        if let Some(new_backend) = pick {
            if new_backend != self.backend && self.switching.is_none() {
                self.begin_switch(e, new_backend, request, io);
            }
        }
        self.forward(Dir::ToBackend, e, seg, io)
    }

    pub(super) fn on_server(&mut self, e: Ends, from: Endpoint, seg: Segment, io: &mut Io) -> Step {
        if let Some(sw) = &self.switching {
            // SYN-ACK from the *new* backend completes the switch.
            if seg.flags.syn && seg.flags.ack && from == sw.new_backend {
                self.complete_switch(e, seg.seq, io);
                return Step::Done;
            }
        }
        if from != self.backend {
            if self.racing.iter().any(|(b, _)| *b == from) {
                return self.race_packet(e, from, seg, io);
            }
            // Stale packet from a previous backend (post-switch): drop.
            io.count(Counter::DroppedUnknown);
            return Step::Done;
        }
        if !self.racing.is_empty() && !seg.payload.is_empty() {
            // The stored backend answered first: it wins the race, and the
            // packet that settled it goes out without further delay.
            self.settle_race(e, None, io);
            io.delay = SimTime::ZERO;
        }
        self.forward(Dir::ToClient, e, seg, io)
    }

    // ------------------------------------------------------------------
    // Translation (Figure 4)
    // ------------------------------------------------------------------

    /// The first Y-space byte after the SYN-ACK and the certificate: where
    /// the backend's stream starts on the client leg.
    fn start(e: Ends, cert: u32) -> SeqNum {
        e.yoda_isn() + 1 + cert
    }

    /// Moves the tunnel onto `backend`, whose stream (ISN `isn`) continues
    /// the client's at `client_next`.
    fn rehome(&mut self, backend: Endpoint, isn: SeqNum) {
        self.backend = backend;
        self.delta = (self.client_next - 1).offset_from(isn);
    }

    /// The record recovery rebuilds this tunnel from: the inverse of
    /// [`Self::new`].
    fn record(&self, e: Ends, client_isn: SeqNum) -> FlowRecord {
        FlowRecord {
            client: e.client,
            vip: e.vip,
            backend: self.backend,
            client_isn,
            server_isn: e.yoda_isn() + self.cert - self.delta,
        }
    }

    /// Figure 4 for one direction, by [`leg`].
    fn leg(&self, e: Ends, dir: Dir) -> Translation {
        leg(e, dir, self.backend, self.delta, self.cert)
    }

    /// What is left of the tunnel once it can only translate: both FINs
    /// have passed, no backend switch or mirror race is in flight, and no
    /// fresh request bytes can still reach inspection (it is off, or its
    /// buffer is empty and it has read up to the client's FIN). Splices
    /// need no check: draining revoked them and none is installed after.
    pub(super) fn drained(&self) -> Option<Drained> {
        let deadline = self.drain_deadline?;
        let inspected = !self.inspect_enabled
            || (self.inspect_buf.is_empty()
                && self.client_fin.is_some_and(|fin| fin.le(self.inspect_next)));
        let quiescent = self.switching.is_none() && self.racing.is_empty() && inspected;
        quiescent.then_some(Drained {
            backend: self.backend,
            delta: self.delta,
            cert: self.cert,
            deadline,
        })
    }

    /// Translates one segment across the tunnel by [`Self::leg`].
    fn forward(&mut self, dir: Dir, e: Ends, seg: Segment, io: &mut Io) -> Step {
        let to_backend = dir == Dir::ToBackend;
        if to_backend && self.switching.is_some() {
            // Mid-switch: client data is held for the new backend (the
            // request goes out on connect), and pure ACKs are dropped too —
            // the old backend was just reset, and its RST answering one
            // would look like another instance's flow (a TCPStore recovery).
            return Step::Done;
        }
        if !to_backend {
            self.server_fin |= seg.flags.fin;
        } else if seg.flags.fin && self.client_fin.is_none() {
            self.client_fin = Some(seg.seq + seg.payload.len() as u32);
        }
        // A packet the mux should have carried, on a flow believed
        // spliced, means the mux lost the entry (cold restart after a
        // failure): re-install, throttled. Request bytes on the acks-only
        // client leg are expected here.
        let request_bytes = to_backend && self.inspect_enabled && !seg.payload.is_empty();
        let reinstall = self.spliced
            && !request_bytes
            && !seg.flags.fin
            && !seg.flags.rst
            && self.client_fin.is_none()
            && !self.server_fin
            && io.env.now.saturating_sub(self.splice_sent_at) >= SPLICE_REINSTALL;
        let leg = self.leg(e, dir);
        if !to_backend {
            // Track the next Y-space byte the client expects (for
            // switches).
            let end = seg.seq + leg.seq_add + seg.payload.len() as u32;
            if self.client_next.lt(end) {
                self.client_next = end;
            }
        }
        if self.client_fin.is_some() && self.server_fin && self.drain_deadline.is_none() {
            // Both FINs passed: delete the flow's TCPStore records ("the
            // flow state ... is removed when the instance receives
            // FIN-ACK", §4.1). The local entry lingers briefly to forward
            // the final ACKs.
            self.drain_deadline = Some(io.env.now + DRAIN_LINGER);
            // The FIN legs already tore their own entries down at the mux;
            // this covers the leg that never saw a FIN pass through.
            self.revoke_splices(e, io);
            io.delete_records(e, self.backend);
        }
        pass(leg, seg, io);
        if reinstall {
            self.install_splices(e, io);
        }
        Step::Done
    }

    /// Installs (or refreshes) the flow's splice entries on both legs: the
    /// server (backend→vss) leg in full, the client (client→vip) leg
    /// acks-only while HTTP/1.1 inspection is on — the instance must keep
    /// seeing request bytes to re-run rule selection, but the ACK stream
    /// is plain translation. No-op while a mirror race or backend switch
    /// is in flight, or once teardown started.
    pub(super) fn install_splices(&mut self, e: Ends, io: &mut Io) {
        if !io.env.splice
            || !self.racing.is_empty()
            || self.switching.is_some()
            || self.drain_deadline.is_some()
            || self.client_fin.is_some()
            || self.server_fin
        {
            return;
        }
        self.spliced = true;
        self.splice_sent_at = io.env.now;
        io.count(Counter::SpliceInstall);
        io.out.push(Action::Splice(MuxCtrl::SpliceInstall {
            from: self.backend,
            to: e.vss(),
            xlate: self.leg(e, Dir::ToClient),
            acks_only: false,
        }));
        io.out.push(Action::Splice(MuxCtrl::SpliceInstall {
            from: e.client,
            to: e.vip,
            xlate: self.leg(e, Dir::ToBackend),
            acks_only: self.inspect_enabled,
        }));
    }

    /// Pulls both legs back to the slow path, if they were spliced.
    pub(super) fn revoke_splices(&mut self, e: Ends, io: &mut Io) {
        if std::mem::take(&mut self.spliced) {
            io.unsplice(e.client, e.vip);
            io.unsplice(self.backend, e.vss());
        }
    }

    // ------------------------------------------------------------------
    // HTTP/1.1 content-based switching (§5.2)
    // ------------------------------------------------------------------

    /// Reassembles client bytes in order; when a complete request head is
    /// buffered, consumes it and returns it with its C-space start and
    /// raw bytes.
    fn inspect(&mut self, seg: &Segment) -> Option<(HttpRequest, SeqNum, Bytes)> {
        if seg.seq.le(self.inspect_next) {
            let skip = (self.inspect_next - seg.seq) as usize;
            if let Some(fresh) = seg.payload.get(skip..) {
                self.inspect_buf.extend_from_slice(fresh);
                self.inspect_next += fresh.len() as u32;
            }
        }
        let (req, used) = parse_request(&self.inspect_buf)?;
        // `inspect_next` is the end of the buffered data.
        let buffered = self.inspect_buf.len() as u32;
        let request_seq = self.inspect_next - buffered;
        Some((req, request_seq, self.inspect_buf.drain(..used).collect()))
    }

    /// A later request picked a different backend: close the old
    /// connection and connect to the new one (§5.2 "HTTP 1.1"). The old
    /// connection is torn down with a RST (simplification of the paper's
    /// close; invisible to the client, which only ever sees the VIP).
    fn begin_switch(
        &mut self,
        e: Ends,
        new_backend: Endpoint,
        request: (SeqNum, Bytes),
        io: &mut Io,
    ) {
        let (request_seq, request) = request;
        io.count(Counter::BackendSwitch);
        io.count(Counter::Request);
        // Pull both legs back before the new backend's bytes start flowing
        // with a stale translation constant; until the switch completes
        // the instance drops client segments instead (see `forward`).
        self.revoke_splices(e, io);
        io.out.push(Action::Unmap(self.backend));
        io.rst(e, self.backend, request_seq);
        // ISN = request_seq − 1, so the request bytes keep their
        // client-space sequence numbers.
        io.out.push(Action::Map(new_backend));
        io.syn(e, new_backend, request_seq - 1);
        self.switching = Some(Box::new(SwitchState {
            new_backend,
            request_seq,
            request,
        }));
    }

    /// The new backend's SYN-ACK (ISN `s2`) arrived: re-home the tunnel.
    fn complete_switch(&mut self, e: Ends, s2: SeqNum, io: &mut Io) {
        let Some(sw) = self.switching.take() else {
            return;
        };
        let old_backend = self.backend;
        // The client expects the next response byte at `client_next`
        // (Y-space); the new server starts sending at S₂+1.
        self.rehome(sw.new_backend, s2);
        // Update TCPStore so recovery lands on the new backend.
        io.rehome_records(e, self.record(e, sw.request_seq - 1), old_backend);
        // ACK the new backend's SYN-ACK and forward the buffered request.
        io.data(e, sw.new_backend, sw.request_seq, s2 + 1, sw.request);
        // Re-splice both legs with the fresh delta.
        self.install_splices(e, io);
    }

    // ------------------------------------------------------------------
    // Mirror races (§5.2 "Sending the same request to multiple servers")
    // ------------------------------------------------------------------

    /// A packet from a racing (non-stored) mirror backend.
    fn race_packet(&mut self, e: Ends, racer: Endpoint, seg: Segment, io: &mut Io) -> Step {
        let client_isn = self.race_client_isn;
        let Some(slot) = self.racing.iter_mut().find(|(b, _)| *b == racer) else {
            return Step::Done;
        };
        if seg.flags.syn && seg.flags.ack {
            // A racer finished its handshake: forward it the request too
            // (unless this is not our handshake, or a duplicate SYN-ACK).
            if seg.ack == client_isn + 1 && slot.1.is_none() {
                slot.1 = Some(seg.seq);
                if let Some(request) = self.race_request.clone() {
                    io.data(e, racer, client_isn + 1, seg.seq + 1, request);
                }
            }
            return Step::Done;
        }
        if seg.payload.is_empty() {
            return Step::Done; // Pure ACKs from racers carry no decision.
        }
        // First response data from a racer. It wins only if the stored
        // backend has not already started the response — the tunnel is
        // still where it began — and its handshake is known; otherwise the
        // stored backend won and the racer is cut loose.
        let unanswered = self.client_next == Tunnel::start(e, self.cert);
        let winner = slot.1.filter(|_| unanswered);
        self.settle_race(e, winner.map(|isn| (racer, isn)), io);
        if winner.is_none() {
            return Step::Done;
        }
        // The racer is now the tunnel's backend: forward this packet
        // through the normal tunnel path, without further delay.
        io.delay = SimTime::ZERO;
        self.forward(Dir::ToClient, e, seg, io)
    }

    /// Ends a mirror race. `winner = None` keeps the stored backend;
    /// `Some((backend, isn))` re-homes the tunnel onto that racer. All
    /// remaining racers get RSTs and their state is dropped.
    fn settle_race(&mut self, e: Ends, winner: Option<(Endpoint, SeqNum)>, io: &mut Io) {
        let request_len = self.race_request.take().map_or(0, |r| r.len()) as u32;
        let client_isn = self.race_client_isn;
        let old_backend = self.backend;
        let mut losers: Vec<Endpoint> = self.racing.drain(..).map(|(b, _)| b).collect();
        if let Some((w, w_isn)) = winner {
            losers.push(old_backend);
            losers.retain(|&b| b != w);
            // No response bytes went out yet, so the winner's stream
            // splices in where the tunnel began.
            self.rehome(w, w_isn);
            io.count(Counter::BackendSwitch);
        }
        // RST every loser in client sequence space and drop its mappings.
        for loser in losers {
            io.out.push(Action::Unmap(loser));
            io.rst(e, loser, client_isn + 1 + request_len);
        }
        if winner.is_some() {
            // The stored record names the winner and its real ISN.
            io.rehome_records(e, self.record(e, client_isn), old_backend);
        }
        self.install_splices(e, io);
    }
}

/// A fully-closed tunnel that can only translate (see
/// [`Tunnel::drained`]): the flow table keeps this, unboxed, in place of
/// the whole flow until the linger runs out. It forwards the final ACKs
/// through the same [`leg`] and answers every other input as the drained
/// [`Tunnel`] it replaces would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Drained {
    pub(crate) backend: Endpoint,
    delta: u32,
    cert: u32,
    /// When gc retires it ([`super::flow::Exit::Drained`]).
    pub(crate) deadline: SimTime,
}

impl Drained {
    pub(super) fn on_client(&self, e: Ends, seg: Segment, io: &mut Io) -> Step {
        if seg.flags.syn && !seg.flags.ack {
            return Step::Reopen(seg); // Port reuse.
        }
        let leg = leg(e, Dir::ToBackend, self.backend, self.delta, self.cert);
        pass(leg, seg, io);
        Step::Done
    }

    pub(super) fn on_server(&self, e: Ends, from: Endpoint, seg: Segment, io: &mut Io) -> Step {
        if from == self.backend {
            let leg = leg(e, Dir::ToClient, self.backend, self.delta, self.cert);
            pass(leg, seg, io);
        } else {
            io.count(Counter::DroppedUnknown);
        }
        Step::Done
    }
}

/// Figure 4 for one direction: where a tunneled segment goes and its two
/// constants. The instance forwards through it — from a [`Tunnel`] or its
/// [`Drained`] tombstone — and the mux splice entry is this same value,
/// so the paths cannot disagree.
fn leg(e: Ends, dir: Dir, backend: Endpoint, delta: u32, cert: u32) -> Translation {
    let hello = hello_len(cert);
    match dir {
        Dir::ToBackend => Translation {
            src: e.vss(),
            dst: backend,
            seq_add: hello.wrapping_neg(),
            ack_add: delta.wrapping_neg(),
        },
        Dir::ToClient => Translation {
            src: e.vip,
            dst: e.client,
            seq_add: delta,
            ack_add: hello,
        },
    }
}

/// Sends `seg` on across the tunnel, translated by `leg`.
fn pass(leg: Translation, mut seg: Segment, io: &mut Io) {
    leg.apply(&mut seg);
    io.out.push(Action::Send {
        delay: io.delay,
        seg,
        src: leg.src,
        dst: leg.dst,
        tunneled: true,
    });
}

/// The ClientHello bytes an SSL VIP's client leg carries (§5.2).
fn hello_len(cert: u32) -> u32 {
    u32::from(cert > 0) * SSL_HELLO.len() as u32
}
