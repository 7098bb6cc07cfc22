//! The tunneling phase of a flow (paper §4.1 Figure 4, §5.2): sequence
//! translation in both directions, the FIN/drain bookkeeping, the mux
//! splice hand-off, HTTP/1.1 backend switches and mirror races. The
//! steady-state half of the `flow` state machine — same rules: one
//! input, effects into the [`Io`] buffer, nothing else touched.

use bytes::{Bytes, BytesMut};
use yoda_http::{parse_request, HttpRequest};
use yoda_l4lb::CtrlMsg as MuxCtrl;
use yoda_netsim::{Endpoint, SimTime};
use yoda_tcp::{Segment, SeqNum};

use super::flow::{Action, Counter, Ends, Io, Resume, Step};
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
    pub backend: Endpoint,
    /// `(Y + cert_len) − S`: added to server sequence numbers, subtracted
    /// from client ack numbers (cert_len is 0 for plain-HTTP VIPs).
    delta: u32,
    /// Client→server sequence-space offset (−hello_len for SSL VIPs, 0
    /// otherwise): the ClientHello bytes exist only on the client leg.
    c2s_off: u32,
    client_fin: bool,
    server_fin: bool,
    /// Set once both FINs passed; entry is dropped after the linger.
    pub drain_deadline: Option<SimTime>,
    /// Whether HTTP/1.1 inspection is active for this flow (disabled on
    /// recovered flows, whose stream position is unknown).
    pub inspect_enabled: bool,
    /// Next client-space (C) sequence number expected for inspection.
    pub inspect_next: SeqNum,
    /// Reassembly buffer for HTTP/1.1 request inspection.
    inspect_buf: BytesMut,
    /// Next Y-space sequence number the client expects (the furthest of
    /// forwarded response bytes and client acks; needed to splice a new
    /// backend in).
    pub client_next: SeqNum,
    /// In-progress backend switch (§5.2): SYN sent to the new backend.
    switching: Option<Box<SwitchState>>,
    /// Mirror race (§5.2): other backends still competing to answer
    /// first, with their ISNs once their SYN-ACKs arrive.
    pub racing: Vec<(Endpoint, Option<SeqNum>)>,
    /// The request bytes, kept while a race is live (to feed late racers).
    pub race_request: Option<Bytes>,
    /// Client ISN, kept while a race is live (for racer handshakes/RSTs).
    pub race_client_isn: SeqNum,
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
    /// A bare tunnel, as recovery rebuilds it: no inspection (the stream
    /// position is unknown), no race, nothing spliced yet.
    pub(super) fn new(backend: Endpoint, delta: u32, hello: u32) -> Self {
        Tunnel {
            backend,
            delta,
            c2s_off: hello.wrapping_neg(),
            client_fin: false,
            server_fin: false,
            drain_deadline: None,
            inspect_enabled: false,
            inspect_next: SeqNum::new(0),
            inspect_buf: BytesMut::new(),
            client_next: SeqNum::new(0),
            switching: None,
            racing: Vec::new(),
            race_request: None,
            race_client_isn: SeqNum::new(0),
            spliced: false,
            splice_sent_at: SimTime::ZERO,
        }
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
        if io.env.http11_inspect && self.inspect_enabled && !seg.payload.is_empty() {
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

    /// Translates one segment across the tunnel. Towards the backend the
    /// client's sequence space is shared with the backend connection
    /// (shifted by the SSL hello bytes when present) and the ack field —
    /// which references server data in Y-space — translates by −delta;
    /// towards the client it is the mirror image.
    fn forward(&mut self, dir: Dir, e: Ends, mut seg: Segment, io: &mut Io) -> Step {
        let to_backend = dir == Dir::ToBackend;
        if to_backend && self.switching.is_some() {
            // Mid-switch: client data is held for the new backend (the
            // request goes out on connect), and pure ACKs are dropped too —
            // the old backend was just reset, and its RST answering one
            // would look like another instance's flow (a TCPStore recovery).
            return Step::Done;
        }
        let (seq_add, ack_sub, src, dst) = if to_backend {
            self.client_fin |= seg.flags.fin;
            (self.c2s_off, self.delta, e.vss(), self.backend)
        } else {
            self.server_fin |= seg.flags.fin;
            (self.delta, self.c2s_off, e.vip, e.client)
        };
        // A packet the mux should have carried, on a flow believed
        // spliced, means the mux lost the entry (cold restart after a
        // failure): re-install, throttled. Request bytes on the acks-only
        // client leg are expected here.
        let request_bytes = to_backend && self.inspect_enabled && !seg.payload.is_empty();
        let reinstall = self.spliced
            && !request_bytes
            && !seg.flags.fin
            && !seg.flags.rst
            && !self.client_fin
            && !self.server_fin
            && io.env.now.saturating_sub(self.splice_sent_at) >= SPLICE_REINSTALL;
        seg.src_port = src.port;
        seg.dst_port = dst.port;
        seg.seq = SeqNum::new(seg.seq.raw().wrapping_add(seq_add));
        if seg.flags.ack {
            seg.ack = SeqNum::new(seg.ack.raw().wrapping_sub(ack_sub));
        }
        if !to_backend {
            // Track the next Y-space byte the client expects (for
            // switches).
            let end = seg.seq + seg.payload.len() as u32;
            if self.client_next.lt(end) {
                self.client_next = end;
            }
        }
        if self.client_fin && self.server_fin && self.drain_deadline.is_none() {
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
        io.out.push(Action::Send {
            delay: io.delay,
            seg,
            src,
            dst,
            tunneled: true,
        });
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
            || self.client_fin
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
            new_src: e.vip,
            new_dst: e.client,
            seq_add: self.delta,
            ack_add: self.c2s_off.wrapping_neg(),
            acks_only: false,
        }));
        io.out.push(Action::Splice(MuxCtrl::SpliceInstall {
            from: e.client,
            to: e.vip,
            new_src: e.vss(),
            new_dst: self.backend,
            seq_add: self.c2s_off,
            ack_add: self.delta.wrapping_neg(),
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
        let request_seq = SeqNum::new(self.inspect_next.raw().wrapping_sub(buffered));
        Some((req, request_seq, self.inspect_buf.split_to(used).freeze()))
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
        io.syn(
            e,
            new_backend,
            SeqNum::new(request_seq.raw().wrapping_sub(1)),
        );
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
        let old_backend = std::mem::replace(&mut self.backend, sw.new_backend);
        // New translation constant: the client expects the next response
        // byte at `client_next` (Y-space); the new server starts sending
        // at S₂+1.
        self.delta = self
            .client_next
            .raw()
            .wrapping_sub(s2.raw().wrapping_add(1));
        // Update TCPStore so recovery lands on the new backend. Recovery
        // rebuilds `delta` as `Y − server_isn` (no certificate shift:
        // inspection, hence switching, is off on SSL flows), so store
        // server_isn = Y − delta to make that identity hold for the *new*
        // delta.
        let record = FlowRecord {
            client: e.client,
            vip: e.vip,
            backend: sw.new_backend,
            client_isn: SeqNum::new(sw.request_seq.raw().wrapping_sub(1)),
            server_isn: SeqNum::new(e.yoda_isn().raw().wrapping_sub(self.delta)),
        };
        io.rehome_records(e, record, old_backend);
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
        // backend has not already started the response (and its handshake
        // is known); otherwise the stored backend won and the racer is
        // cut loose.
        let winner = slot.1.filter(|_| self.client_next == e.yoda_isn() + 1);
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
            // client_next == Y+1(+cert): no response bytes went out yet,
            // so the winner's stream splices in exactly there.
            self.backend = w;
            self.delta = SeqNum::new(self.client_next.raw().wrapping_sub(1)).offset_from(w_isn);
            io.count(Counter::BackendSwitch);
        }
        // RST every loser in client sequence space and drop its mappings.
        for loser in losers {
            io.out.push(Action::Unmap(loser));
            io.rst(e, loser, client_isn + 1 + request_len);
        }
        if let Some((w, w_isn)) = winner {
            // Recovery rebuilds delta as Y − server_isn; the winner's
            // real ISN is exactly what makes that identity hold.
            let record = FlowRecord {
                client: e.client,
                vip: e.vip,
                backend: w,
                client_isn,
                server_isn: w_isn,
            };
            io.rehome_records(e, record, old_backend);
        }
        self.install_splices(e, io);
    }
}
