//! A sans-IO TCP endpoint state machine.
//!
//! [`TcpSocket`] implements the RFC 793 connection lifecycle with the
//! subset of congestion/loss machinery the paper's experiments exercise:
//!
//! * three-way handshake with caller-supplied ISNs (Yoda derives its
//!   SYN-ACK ISN from a hash of the client endpoint, and reuses the client
//!   ISN toward the backend — both need ISN control),
//! * cumulative ACKs, out-of-order reassembly, duplicate suppression,
//! * retransmission with RTT estimation (Jacobson) and exponential backoff;
//!   minimum data RTO 300 ms, SYN RTO 3 s (paper §4.2, Fig. 12b),
//! * fast retransmit on three duplicate ACKs,
//! * slow start / congestion avoidance (NewReno-lite),
//! * FIN teardown with an abbreviated TIME-WAIT.
//!
//! The socket never performs IO: callers feed it segments and timer
//! expirations and transmit whatever it returns.

use std::collections::BTreeMap;

use bytes::Bytes;
use yoda_netsim::{Endpoint, SimTime};

use crate::segment::{Flags, Segment};
use crate::sendq::SendQueue;
use crate::seq::SeqNum;

/// Tunables for a socket.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Maximum segment size (payload bytes per segment).
    pub mss: usize,
    /// Initial congestion window, in segments (RFC 6928 uses 10).
    pub initial_cwnd_segments: u32,
    /// Receive window advertised to the peer, in bytes.
    pub recv_window: u32,
    /// Minimum (and initial) retransmission timeout for data.
    pub min_rto: SimTime,
    /// Maximum retransmission timeout after backoff.
    pub max_rto: SimTime,
    /// Initial retransmission timeout for SYN / SYN-ACK ("3 sec in
    /// Ubuntu", paper §4.2).
    pub syn_rto: SimTime,
    /// Give up (reset) after this many consecutive retransmissions.
    pub max_retries: u32,
    /// How long to linger in TIME-WAIT (abbreviated; real stacks use 2MSL).
    pub time_wait: SimTime,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1460,
            initial_cwnd_segments: 10,
            recv_window: 1 << 20,
            min_rto: SimTime::from_millis(300),
            max_rto: SimTime::from_secs(60),
            syn_rto: SimTime::from_secs(3),
            max_retries: 10,
            time_wait: SimTime::from_secs(1),
        }
    }
}

/// Connection state (RFC 793 names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketState {
    /// SYN sent, waiting for SYN-ACK.
    SynSent,
    /// SYN received and SYN-ACK sent, waiting for the final ACK.
    SynReceived,
    /// Data transfer.
    Established,
    /// We closed first; FIN sent, not yet acked.
    FinWait1,
    /// Our FIN acked; waiting for the peer's FIN.
    FinWait2,
    /// Both sides sent FIN simultaneously; waiting for FIN ack.
    Closing,
    /// Peer closed first; we may still send.
    CloseWait,
    /// Peer closed, then we sent FIN; waiting for its ack.
    LastAck,
    /// Connection done; lingering to absorb stray segments.
    TimeWait,
    /// Fully closed.
    Closed,
    /// Aborted by RST or retry exhaustion.
    Reset,
}

impl SocketState {
    /// True for states where the connection has been fully torn down.
    pub fn is_terminal(self) -> bool {
        matches!(self, SocketState::Closed | SocketState::Reset)
    }
}

/// A single TCP connection endpoint.
///
/// # Examples
///
/// Loopback handshake between two sockets:
///
/// ```
/// use yoda_netsim::{Addr, Endpoint, SimTime};
/// use yoda_tcp::{TcpSocket, TcpConfig, SeqNum, SocketState};
///
/// let cfg = TcpConfig::default();
/// let a_ep = Endpoint::new(Addr::new(10, 0, 0, 1), 1000);
/// let b_ep = Endpoint::new(Addr::new(10, 0, 0, 2), 80);
/// let t = SimTime::ZERO;
///
/// let (mut a, syn) = TcpSocket::connect(cfg, a_ep, b_ep, SeqNum::new(100), t);
/// let (mut b, synack) = TcpSocket::accept(cfg, b_ep, a_ep, &syn, SeqNum::new(900), t).unwrap();
/// let acks = a.on_segment(&synack, t);
/// assert_eq!(a.state(), SocketState::Established);
/// for s in &acks {
///     b.on_segment(s, t);
/// }
/// assert_eq!(b.state(), SocketState::Established);
/// ```
#[derive(Debug, Clone)]
pub struct TcpSocket {
    cfg: TcpConfig,
    state: SocketState,
    local: Endpoint,
    remote: Endpoint,

    // Send side.
    iss: SeqNum,
    snd_una: SeqNum,
    snd_nxt: SeqNum,
    /// Sent-but-unacked followed by queued-unsent data, as the chunks the
    /// application queued. Once connected its first byte is `snd_una`.
    unacked: SendQueue,
    fin_queued: bool,
    fin_sent: bool,
    peer_window: u32,

    // Congestion control.
    cwnd: u32,
    ssthresh: u32,
    dup_acks: u32,

    // RTO machinery.
    srtt: Option<SimTime>,
    rttvar: SimTime,
    rto: SimTime,
    retries: u32,
    rtx_deadline: Option<SimTime>,
    /// Outstanding RTT measurement: (segment end seq, send time). Karn's
    /// rule: invalidated on retransmission.
    rtt_probe: Option<(SeqNum, SimTime)>,
    /// `snd_nxt` at the last RTO (NewReno-style recovery point). While
    /// `snd_una` is below it, every fresh ACK retransmits the next head
    /// immediately instead of waiting out the backed-off RTO.
    recover: Option<SeqNum>,

    // Receive side.
    irs: SeqNum,
    rcv_nxt: SeqNum,
    /// In-order payload slices not yet read by the application.
    assembled: Vec<Bytes>,
    out_of_order: BTreeMap<u32, Bytes>,
    peer_fin: Option<SeqNum>,
    time_wait_deadline: Option<SimTime>,

    // Counters for experiments.
    retransmitted_segments: u64,
}

impl TcpSocket {
    /// Starts an active open: returns the socket in `SynSent` plus the SYN
    /// segment to transmit.
    pub fn connect(
        cfg: TcpConfig,
        local: Endpoint,
        remote: Endpoint,
        iss: SeqNum,
        now: SimTime,
    ) -> (TcpSocket, Segment) {
        let mut sock = TcpSocket::blank(cfg, local, remote, iss);
        sock.state = SocketState::SynSent;
        sock.snd_nxt = iss + 1;
        sock.rto = cfg.syn_rto;
        sock.rtx_deadline = Some(now + cfg.syn_rto);
        let syn = sock.make_segment(iss, Flags::SYN, Bytes::new());
        (sock, syn)
    }

    /// Completes a passive open for a received SYN: returns the socket in
    /// `SynReceived` plus the SYN-ACK to transmit. The caller supplies the
    /// SYN-ACK ISN (`iss`) — Yoda derives it deterministically.
    ///
    /// Returns `None` when `syn` is not a pure SYN.
    pub fn accept(
        cfg: TcpConfig,
        local: Endpoint,
        remote: Endpoint,
        syn: &Segment,
        iss: SeqNum,
        now: SimTime,
    ) -> Option<(TcpSocket, Segment)> {
        if !syn.flags.syn || syn.flags.ack || syn.flags.rst {
            return None;
        }
        let mut sock = TcpSocket::blank(cfg, local, remote, iss);
        sock.state = SocketState::SynReceived;
        sock.snd_nxt = iss + 1;
        sock.irs = syn.seq;
        sock.rcv_nxt = syn.seq + 1;
        sock.peer_window = syn.window;
        sock.rto = cfg.syn_rto;
        sock.rtx_deadline = Some(now + cfg.syn_rto);
        let synack = sock.make_segment(iss, Flags::SYN_ACK, Bytes::new());
        Some((sock, synack))
    }

    fn blank(cfg: TcpConfig, local: Endpoint, remote: Endpoint, iss: SeqNum) -> TcpSocket {
        TcpSocket {
            cfg,
            state: SocketState::Closed,
            local,
            remote,
            iss,
            snd_una: iss,
            snd_nxt: iss,
            unacked: SendQueue::default(),
            fin_queued: false,
            fin_sent: false,
            peer_window: cfg.recv_window,
            cwnd: cfg.initial_cwnd_segments * cfg.mss as u32,
            ssthresh: u32::MAX,
            dup_acks: 0,
            srtt: None,
            rttvar: SimTime::ZERO,
            rto: cfg.min_rto,
            retries: 0,
            rtx_deadline: None,
            rtt_probe: None,
            recover: None,
            irs: SeqNum::new(0),
            rcv_nxt: SeqNum::new(0),
            assembled: Vec::new(),
            out_of_order: BTreeMap::new(),
            peer_fin: None,
            time_wait_deadline: None,
            retransmitted_segments: 0,
        }
    }

    fn make_segment(&self, seq: SeqNum, flags: Flags, payload: Bytes) -> Segment {
        Segment {
            src_port: self.local.port,
            dst_port: self.remote.port,
            seq,
            ack: if flags.ack { self.rcv_nxt } else { SeqNum::new(0) },
            flags,
            window: self.cfg.recv_window,
            payload,
        }
    }

    /// Current state.
    pub fn state(&self) -> SocketState {
        self.state
    }

    /// Local endpoint.
    pub fn local(&self) -> Endpoint {
        self.local
    }

    /// Remote endpoint.
    pub fn remote(&self) -> Endpoint {
        self.remote
    }

    /// Our initial send sequence number.
    pub fn iss(&self) -> SeqNum {
        self.iss
    }

    /// The peer's initial sequence number (valid once connected).
    pub fn irs(&self) -> SeqNum {
        self.irs
    }

    /// Total segments this socket retransmitted.
    pub fn retransmitted_segments(&self) -> u64 {
        self.retransmitted_segments
    }

    /// True once the peer's FIN has been fully received.
    pub fn peer_closed(&self) -> bool {
        self.peer_fin.map(|f| self.rcv_nxt.gt(f)).unwrap_or(false)
    }

    /// Bytes queued or in flight that the peer has not acknowledged.
    pub fn bytes_outstanding(&self) -> usize {
        self.unacked.len()
    }

    /// True while in-order data waits for [`TcpSocket::take_data`].
    pub fn has_unread(&self) -> bool {
        !self.assembled.is_empty()
    }

    /// Drains data received in order: one segment as a view, several joined.
    pub fn take_data(&mut self) -> Bytes {
        if self.assembled.len() > 1 {
            return Bytes::from(std::mem::take(&mut self.assembled).concat());
        }
        self.assembled.pop().unwrap_or_default()
    }

    /// Queues application data (kept, not copied, until acknowledged) and
    /// returns any segments transmittable now.
    ///
    /// Data queued after [`TcpSocket::close`] is discarded (the send side
    /// is shut).
    pub fn send(&mut self, data: Bytes, now: SimTime) -> Vec<Segment> {
        self.send_vectored([data], now)
    }

    /// [`TcpSocket::send`] for chunks queued back to back (a message head
    /// and its body): segments are cut as if they were one buffer.
    pub fn send_vectored(
        &mut self,
        chunks: impl IntoIterator<Item = Bytes>,
        now: SimTime,
    ) -> Vec<Segment> {
        if self.fin_queued
            || matches!(
                self.state,
                SocketState::FinWait1
                    | SocketState::FinWait2
                    | SocketState::Closing
                    | SocketState::LastAck
                    | SocketState::TimeWait
                    | SocketState::Closed
                    | SocketState::Reset
            )
        {
            return Vec::new();
        }
        for chunk in chunks {
            self.unacked.push(chunk);
        }
        self.transmit_window(now)
    }

    /// Initiates an orderly close; returns segments (possibly a FIN) to
    /// transmit. The FIN waits behind any queued data.
    pub fn close(&mut self, now: SimTime) -> Vec<Segment> {
        if self.fin_queued || self.state.is_terminal() {
            return Vec::new();
        }
        self.fin_queued = true;
        self.transmit_window(now)
    }

    /// Aborts the connection, returning the RST to transmit.
    pub fn abort(&mut self) -> Segment {
        self.state = SocketState::Reset;
        self.rtx_deadline = None;
        self.make_segment(self.snd_nxt, Flags::RST, Bytes::new())
    }

    /// The earliest time at which [`TcpSocket::on_timer`] should be called.
    pub fn next_deadline(&self) -> Option<SimTime> {
        match (self.rtx_deadline, self.time_wait_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }

    /// Handles timer expiry: retransmits, backs off, finishes TIME-WAIT.
    pub fn on_timer(&mut self, now: SimTime) -> Vec<Segment> {
        if let Some(tw) = self.time_wait_deadline {
            if now >= tw {
                self.time_wait_deadline = None;
                if self.state == SocketState::TimeWait {
                    self.state = SocketState::Closed;
                }
            }
        }
        let deadline = match self.rtx_deadline {
            Some(d) if now >= d => d,
            _ => return Vec::new(),
        };
        let _ = deadline;
        self.retries += 1;
        if self.retries > self.cfg.max_retries {
            self.state = SocketState::Reset;
            self.rtx_deadline = None;
            return Vec::new();
        }
        // Karn: outstanding RTT samples are invalid after a retransmission.
        self.rtt_probe = None;
        // Back off and collapse the window (RFC 5681 on RTO).
        let inflight = self.inflight_bytes();
        self.ssthresh = (inflight / 2).max(2 * self.cfg.mss as u32);
        self.cwnd = self.cfg.mss as u32;
        self.dup_acks = 0;
        self.rto = SimTime::from_micros(
            (self.rto.as_micros() * 2).min(self.cfg.max_rto.as_micros()),
        );
        self.rtx_deadline = Some(now + self.rto);
        self.retransmitted_segments += 1;
        match self.state {
            SocketState::SynSent => {
                vec![self.make_segment(self.iss, Flags::SYN, Bytes::new())]
            }
            SocketState::SynReceived => {
                vec![self.make_segment(self.iss, Flags::SYN_ACK, Bytes::new())]
            }
            _ => {
                // Everything in flight is presumed lost; fresh ACKs below
                // this point drive go-back-N retransmission (see
                // `process_ack`).
                self.recover = Some(self.snd_nxt);
                self.retransmit_head()
            }
        }
    }

    /// Returns the first unacked chunk for retransmission (go-back-1 MSS;
    /// the rest follows via normal ACK clocking).
    fn retransmit_head(&mut self) -> Vec<Segment> {
        let inflight = self.inflight_bytes() as usize;
        if inflight == 0 {
            if self.fin_sent && self.snd_una.lt(self.snd_nxt) {
                // Only the FIN is outstanding; its seq is snd_nxt - 1.
                let fin_seq = SeqNum::new(self.snd_nxt.raw().wrapping_sub(1));
                return vec![self.make_segment(fin_seq, Flags::FIN_ACK, Bytes::new())];
            }
            return Vec::new();
        }
        let Some(chunk) = self.unacked.head(inflight.min(self.cfg.mss)) else {
            // Accounting drift between snd_una and the buffer; nothing
            // sane to retransmit, recover via ACK clocking instead.
            return Vec::new();
        };
        vec![self.make_segment(self.snd_una, Flags::ACK, chunk)]
    }

    fn inflight_bytes(&self) -> u32 {
        // Data bytes between snd_una and snd_nxt (excluding SYN/FIN).
        let mut inflight = self.snd_nxt - self.snd_una;
        if self.state == SocketState::SynSent || self.state == SocketState::SynReceived {
            inflight = inflight.saturating_sub(1);
        }
        if self.fin_sent {
            inflight = inflight.saturating_sub(1);
        }
        inflight
    }

    /// Sends as much queued data as the congestion and peer windows allow;
    /// appends the FIN when everything is flushed and close was requested.
    fn transmit_window(&mut self, now: SimTime) -> Vec<Segment> {
        let mut out = Vec::new();
        // Before the handshake completes, data waits in `unacked`.
        if !matches!(
            self.state,
            SocketState::Established | SocketState::CloseWait
        ) {
            return out;
        }
        loop {
            let inflight = self.inflight_bytes();
            let window = self.cwnd.min(self.peer_window);
            let budget = window.saturating_sub(inflight) as usize;
            let len = budget.min(self.unacked.unsent()).min(self.cfg.mss);
            if len == 0 {
                break;
            }
            let Some(chunk) = self.unacked.take_unsent(len) else {
                break;
            };
            let mut flags = Flags::ACK;
            flags.psh = self.unacked.unsent() == 0;
            let seg = self.make_segment(self.snd_nxt, flags, chunk);
            if self.rtt_probe.is_none() {
                self.rtt_probe = Some((seg.seq_end(), now));
            }
            self.snd_nxt += len as u32;
            out.push(seg);
        }
        // Flush FIN once all data is out.
        if self.fin_queued && !self.fin_sent && self.unacked.unsent() == 0 {
            let fin = self.make_segment(self.snd_nxt, Flags::FIN_ACK, Bytes::new());
            self.snd_nxt += 1;
            self.fin_sent = true;
            self.state = match self.state {
                SocketState::CloseWait => SocketState::LastAck,
                _ => SocketState::FinWait1,
            };
            out.push(fin);
        }
        if !out.is_empty() && self.rtx_deadline.is_none() {
            self.rtx_deadline = Some(now + self.rto);
        }
        out
    }

    /// Processes an incoming segment; returns segments to transmit.
    pub fn on_segment(&mut self, seg: &Segment, now: SimTime) -> Vec<Segment> {
        if self.state.is_terminal() {
            return Vec::new();
        }
        if seg.flags.rst {
            self.state = SocketState::Reset;
            self.rtx_deadline = None;
            return Vec::new();
        }
        match self.state {
            SocketState::SynSent => self.on_segment_syn_sent(seg, now),
            SocketState::SynReceived => self.on_segment_syn_received(seg, now),
            _ => self.on_segment_connected(seg, now),
        }
    }

    fn on_segment_syn_sent(&mut self, seg: &Segment, now: SimTime) -> Vec<Segment> {
        if !(seg.flags.syn && seg.flags.ack) || seg.ack != self.iss + 1 {
            // Not our SYN-ACK; ignore (simultaneous open unsupported).
            return Vec::new();
        }
        self.irs = seg.seq;
        self.rcv_nxt = seg.seq + 1;
        self.snd_una = seg.ack;
        self.peer_window = seg.window;
        self.state = SocketState::Established;
        self.retries = 0;
        self.rto = self.cfg.min_rto;
        self.rtx_deadline = None;
        let mut out = vec![self.make_segment(self.snd_nxt, Flags::ACK, Bytes::new())];
        out.extend(self.transmit_window(now));
        out
    }

    fn on_segment_syn_received(&mut self, seg: &Segment, now: SimTime) -> Vec<Segment> {
        if seg.flags.syn && !seg.flags.ack {
            // Duplicate SYN (client retransmitted): resend SYN-ACK.
            return vec![self.make_segment(self.iss, Flags::SYN_ACK, Bytes::new())];
        }
        if seg.flags.ack && seg.ack == self.iss + 1 {
            self.snd_una = seg.ack;
            self.peer_window = seg.window;
            self.state = SocketState::Established;
            self.retries = 0;
            self.rto = self.cfg.min_rto;
            self.rtx_deadline = None;
            // The ACK may carry data (and often does: the HTTP request).
            let mut out = self.on_segment_connected(seg, now);
            out.extend(self.transmit_window(now));
            return out;
        }
        Vec::new()
    }

    fn on_segment_connected(&mut self, seg: &Segment, now: SimTime) -> Vec<Segment> {
        let mut out = Vec::new();
        if seg.flags.ack {
            self.process_ack(seg, now, &mut out);
        }
        if !seg.payload.is_empty() || seg.flags.fin {
            self.process_data(seg, now, &mut out);
        }
        out.extend(self.transmit_window(now));
        out
    }

    fn process_ack(&mut self, seg: &Segment, now: SimTime, out: &mut Vec<Segment>) {
        let ack = seg.ack;
        if ack.le(self.snd_una) {
            // Duplicate or old ACK.
            if ack == self.snd_una
                && seg.payload.is_empty()
                && !seg.flags.syn
                && !seg.flags.fin
                && self.inflight_bytes() > 0
            {
                self.dup_acks += 1;
                if self.dup_acks == 3 {
                    // Fast retransmit.
                    self.ssthresh = (self.inflight_bytes() / 2).max(2 * self.cfg.mss as u32);
                    self.cwnd = self.ssthresh + 3 * self.cfg.mss as u32;
                    self.retransmitted_segments += 1;
                    self.rtt_probe = None;
                    out.extend(self.retransmit_head());
                }
            }
            self.peer_window = seg.window;
            return;
        }
        if self.snd_nxt.lt(ack) {
            // Acks data we never sent; ignore.
            return;
        }
        // Fresh ACK: drop acknowledged bytes from the send buffer. The
        // buffer holds data only and clamps to what it sent (our FIN
        // occupies sequence space but no buffer bytes).
        let acked = ack - self.snd_una;
        self.unacked.ack(acked as usize);
        self.snd_una = ack;
        self.dup_acks = 0;
        self.retries = 0;
        self.peer_window = seg.window;
        // RTT sample (Karn-safe: probe cleared on retransmit).
        if let Some((probe_seq, sent_at)) = self.rtt_probe {
            if probe_seq.le(ack) {
                self.rtt_probe = None;
                let sample = now.saturating_sub(sent_at);
                self.update_rto(sample);
            }
        }
        // Congestion window growth.
        let mss = self.cfg.mss as u32;
        if self.cwnd < self.ssthresh {
            self.cwnd = self.cwnd.saturating_add(acked.min(mss));
        } else {
            self.cwnd = self
                .cwnd
                .saturating_add((mss * mss / self.cwnd.max(1)).max(1));
        }
        // RTO recovery (the "ACK clocking" promised by `retransmit_head`):
        // a partial ACK means the rest of the lost flight is still missing,
        // so retransmit the next head per fresh ACK — one segment per RTT —
        // rather than one per exponentially backed-off RTO. Once the ACK
        // covers the recovery point, drop the backoff (Karn froze the RTT
        // estimator during the episode, so `rto` never decays on its own).
        if let Some(rec) = self.recover {
            if ack.lt(rec) {
                self.retransmitted_segments += 1;
                self.rtt_probe = None;
                out.extend(self.retransmit_head());
            } else {
                self.recover = None;
                self.rto = self.estimated_rto();
            }
        }
        // Restart or clear the retransmission timer.
        let fin_outstanding = self.fin_sent && self.snd_una.lt(self.snd_nxt);
        if self.inflight_bytes() > 0 || fin_outstanding {
            self.rtx_deadline = Some(now + self.rto);
        } else {
            self.rtx_deadline = None;
        }
        // Teardown progress when our FIN got acked.
        if self.fin_sent && ack == self.snd_nxt {
            self.state = match self.state {
                SocketState::FinWait1 => SocketState::FinWait2,
                SocketState::Closing => {
                    self.enter_time_wait(now);
                    SocketState::TimeWait
                }
                SocketState::LastAck => SocketState::Closed,
                s => s,
            };
        }
    }

    fn update_rto(&mut self, sample: SimTime) {
        // Jacobson/Karels (RFC 6298) in microsecond integers.
        let s = sample.as_micros() as i64;
        let srtt = match self.srtt {
            None => {
                self.rttvar = SimTime::from_micros((s / 2) as u64);
                sample
            }
            Some(srtt) => {
                let srtt_us = srtt.as_micros() as i64;
                let err = (s - srtt_us).abs();
                let rttvar_us = (self.rttvar.as_micros() as i64 * 3 + err) / 4;
                self.rttvar = SimTime::from_micros(rttvar_us as u64);
                SimTime::from_micros(((srtt_us * 7 + s) / 8) as u64)
            }
        };
        self.srtt = Some(srtt);
        self.rto = self.estimated_rto();
    }

    /// RTO from the current Jacobson estimate (min_rto when unsampled).
    fn estimated_rto(&self) -> SimTime {
        match self.srtt {
            Some(srtt) => {
                let rto_us = srtt.as_micros() + 4 * self.rttvar.as_micros();
                SimTime::from_micros(
                    rto_us.clamp(self.cfg.min_rto.as_micros(), self.cfg.max_rto.as_micros()),
                )
            }
            None => self.cfg.min_rto,
        }
    }

    fn process_data(&mut self, seg: &Segment, now: SimTime, out: &mut Vec<Segment>) {
        if seg.flags.fin {
            self.peer_fin = Some(seg.seq + seg.payload.len() as u32);
        }
        if !seg.payload.is_empty() {
            if seg.seq.le(self.rcv_nxt) {
                // Possibly overlapping: trim the already-received prefix.
                let skip = (self.rcv_nxt - seg.seq) as usize;
                if skip < seg.payload.len() {
                    let fresh = seg.payload.slice(skip..);
                    self.rcv_nxt += fresh.len() as u32;
                    self.assembled.push(fresh);
                    self.drain_out_of_order();
                }
            } else {
                // Future data: stash for reassembly, send a duplicate ACK.
                self.out_of_order
                    .entry(seg.seq.raw())
                    .or_insert_with(|| seg.payload.clone());
            }
        }
        // Consume the FIN when it is next in sequence.
        if let Some(fin_seq) = self.peer_fin {
            if fin_seq == self.rcv_nxt {
                self.rcv_nxt += 1;
                self.state = match self.state {
                    SocketState::Established | SocketState::SynReceived => SocketState::CloseWait,
                    SocketState::FinWait1 => SocketState::Closing,
                    SocketState::FinWait2 => {
                        self.enter_time_wait(now);
                        SocketState::TimeWait
                    }
                    s => s,
                };
            }
        }
        // Acknowledge everything received so far.
        out.push(self.make_segment(self.snd_nxt, Flags::ACK, Bytes::new()));
    }

    fn drain_out_of_order(&mut self) {
        while let Some((seq_raw, payload)) = self.out_of_order.pop_first() {
            let seq = SeqNum::new(seq_raw);
            if self.rcv_nxt.lt(seq) {
                // Still a gap before this chunk: put it back and stop.
                self.out_of_order.insert(seq_raw, payload);
                break;
            }
            if seq.le(self.rcv_nxt) {
                let skip = (self.rcv_nxt - seq) as usize;
                if skip < payload.len() {
                    let fresh = payload.slice(skip..);
                    self.rcv_nxt += fresh.len() as u32;
                    self.assembled.push(fresh);
                }
            }
        }
    }

    fn enter_time_wait(&mut self, now: SimTime) {
        self.time_wait_deadline = Some(now + self.cfg.time_wait);
        self.rtx_deadline = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yoda_netsim::Addr;

    fn eps() -> (Endpoint, Endpoint) {
        (
            Endpoint::new(Addr::new(172, 16, 0, 1), 40000),
            Endpoint::new(Addr::new(10, 1, 0, 1), 80),
        )
    }

    /// Drives two sockets to Established and returns them.
    fn handshake() -> (TcpSocket, TcpSocket) {
        let cfg = TcpConfig::default();
        let (c_ep, s_ep) = eps();
        let t = SimTime::ZERO;
        let (mut client, syn) = TcpSocket::connect(cfg, c_ep, s_ep, SeqNum::new(1000), t);
        let (mut server, synack) =
            TcpSocket::accept(cfg, s_ep, c_ep, &syn, SeqNum::new(5000), t).unwrap();
        let acks = client.on_segment(&synack, t);
        for s in &acks {
            server.on_segment(s, t);
        }
        assert_eq!(client.state(), SocketState::Established);
        assert_eq!(server.state(), SocketState::Established);
        (client, server)
    }

    /// Delivers `segs` to `to`, returning its replies.
    fn deliver(to: &mut TcpSocket, segs: &[Segment], t: SimTime) -> Vec<Segment> {
        let mut out = Vec::new();
        for s in segs {
            out.extend(to.on_segment(s, t));
        }
        out
    }

    /// Fully exchanges segments until both sides go quiet.
    fn pump(a: &mut TcpSocket, b: &mut TcpSocket, first: Vec<Segment>, t: SimTime) {
        let mut to_b = first;
        loop {
            let to_a = deliver(b, &to_b, t);
            if to_a.is_empty() {
                break;
            }
            to_b = deliver(a, &to_a, t);
            if to_b.is_empty() {
                break;
            }
        }
    }

    #[test]
    fn accept_rejects_non_syn() {
        let cfg = TcpConfig::default();
        let (c_ep, s_ep) = eps();
        let not_syn = Segment {
            src_port: c_ep.port,
            dst_port: s_ep.port,
            seq: SeqNum::new(1),
            ack: SeqNum::new(0),
            flags: Flags::ACK,
            window: 1000,
            payload: Bytes::new(),
        };
        assert!(TcpSocket::accept(cfg, s_ep, c_ep, &not_syn, SeqNum::new(1), SimTime::ZERO)
            .is_none());
    }

    #[test]
    fn small_transfer_delivers_bytes() {
        let (mut client, mut server) = handshake();
        let t = SimTime::from_millis(1);
        let segs = client.send(Bytes::from_static(b"GET / HTTP/1.0\r\n\r\n"), t);
        assert!(!segs.is_empty());
        pump(&mut client, &mut server, segs, t);
        assert_eq!(&server.take_data()[..], b"GET / HTTP/1.0\r\n\r\n");
    }

    #[test]
    fn large_transfer_respects_mss_and_reassembles() {
        let (mut client, mut server) = handshake();
        let t = SimTime::from_millis(1);
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let segs = client.send(Bytes::from(data.clone()), t);
        for s in &segs {
            assert!(s.payload.len() <= 1460);
        }
        pump(&mut client, &mut server, segs, t);
        assert_eq!(&server.take_data()[..], &data[..]);
    }

    #[test]
    fn out_of_order_reassembly() {
        let (mut client, mut server) = handshake();
        let t = SimTime::from_millis(1);
        let segs = client.send(Bytes::from(vec![1u8; 1460]), t);
        let segs2 = client.send(Bytes::from(vec![2u8; 1460]), t);
        // Deliver the second segment first.
        let dup_acks = deliver(&mut server, &segs2, t);
        // Out-of-order data elicits an ACK for the old rcv_nxt.
        assert!(dup_acks.iter().all(|s| s.flags.ack));
        deliver(&mut server, &segs, t);
        let got = server.take_data();
        assert_eq!(got.len(), 2920);
        assert_eq!(got[0], 1);
        assert_eq!(got[2919], 2);
    }

    #[test]
    fn retransmission_after_loss() {
        let (mut client, mut server) = handshake();
        let t0 = SimTime::from_millis(1);
        let segs = client.send(Bytes::from_static(b"hello"), t0);
        // Segments lost: nothing delivered. RTO fires at min_rto (300 ms).
        drop(segs);
        let deadline = client.next_deadline().expect("rtx armed");
        assert_eq!(deadline, t0 + SimTime::from_millis(300));
        let rtx = client.on_timer(deadline);
        assert_eq!(rtx.len(), 1);
        assert_eq!(&rtx[0].payload[..], b"hello");
        assert_eq!(client.retransmitted_segments(), 1);
        // Second loss backs off to 600 ms (paper Fig. 12b timeline).
        let d2 = client.next_deadline().unwrap();
        assert_eq!(d2, deadline + SimTime::from_millis(600));
        let rtx2 = client.on_timer(d2);
        assert_eq!(&rtx2[0].payload[..], b"hello");
        // Delivery after retransmission still works.
        pump(&mut client, &mut server, rtx2, d2);
        assert_eq!(&server.take_data()[..], b"hello");
    }

    #[test]
    fn syn_retransmit_uses_3s_timeout() {
        let cfg = TcpConfig::default();
        let (c_ep, s_ep) = eps();
        let (mut client, _syn) =
            TcpSocket::connect(cfg, c_ep, s_ep, SeqNum::new(1), SimTime::ZERO);
        assert_eq!(client.next_deadline(), Some(SimTime::from_secs(3)));
        let rtx = client.on_timer(SimTime::from_secs(3));
        assert_eq!(rtx.len(), 1);
        assert!(rtx[0].flags.syn && !rtx[0].flags.ack);
    }

    #[test]
    fn duplicate_syn_gets_synack_again() {
        let cfg = TcpConfig::default();
        let (c_ep, s_ep) = eps();
        let t = SimTime::ZERO;
        let (_client, syn) = TcpSocket::connect(cfg, c_ep, s_ep, SeqNum::new(1), t);
        let (mut server, synack1) =
            TcpSocket::accept(cfg, s_ep, c_ep, &syn, SeqNum::new(9), t).unwrap();
        let reply = server.on_segment(&syn, t);
        assert_eq!(reply.len(), 1);
        assert_eq!(reply[0], synack1);
    }

    #[test]
    fn retry_exhaustion_resets() {
        let cfg = TcpConfig {
            max_retries: 2,
            ..TcpConfig::default()
        };
        let (c_ep, s_ep) = eps();
        let (mut client, _) = TcpSocket::connect(cfg, c_ep, s_ep, SeqNum::new(1), SimTime::ZERO);
        let mut now = SimTime::ZERO;
        for _ in 0..3 {
            now = client.next_deadline().unwrap_or(now + SimTime::from_secs(100));
            client.on_timer(now);
        }
        assert_eq!(client.state(), SocketState::Reset);
    }

    #[test]
    fn rst_kills_connection() {
        let (mut client, mut server) = handshake();
        let rst = client.abort();
        server.on_segment(&rst, SimTime::from_millis(2));
        assert_eq!(server.state(), SocketState::Reset);
        assert_eq!(client.state(), SocketState::Reset);
    }

    #[test]
    fn orderly_close_both_sides() {
        let (mut client, mut server) = handshake();
        let t = SimTime::from_millis(5);
        // Client sends request, server answers, both close.
        let req = client.send(Bytes::from_static(b"req"), t);
        pump(&mut client, &mut server, req, t);
        let resp = server.send(Bytes::from_static(b"resp"), t);
        pump(&mut server, &mut client, resp, t);
        assert_eq!(&client.take_data()[..], b"resp");

        let fin = client.close(t);
        assert_eq!(client.state(), SocketState::FinWait1);
        let back = deliver(&mut server, &fin, t);
        assert_eq!(server.state(), SocketState::CloseWait);
        let more = deliver(&mut client, &back, t);
        assert_eq!(client.state(), SocketState::FinWait2);
        deliver(&mut server, &more, t);
        let server_fin = server.close(t);
        assert_eq!(server.state(), SocketState::LastAck);
        let last_ack = deliver(&mut client, &server_fin, t);
        assert_eq!(client.state(), SocketState::TimeWait);
        deliver(&mut server, &last_ack, t);
        assert_eq!(server.state(), SocketState::Closed);
        assert!(client.peer_closed());
    }

    #[test]
    fn fin_waits_for_queued_data() {
        let (mut client, mut server) = handshake();
        let t = SimTime::from_millis(1);
        // Fill beyond the initial cwnd so data remains queued, then close.
        let big = vec![7u8; 30_000];
        let segs = client.send(Bytes::from(big), t);
        let fin_now = client.close(t);
        // FIN must not have been emitted while data is still queued.
        assert!(fin_now.iter().all(|s| !s.flags.fin));
        assert!(segs.iter().all(|s| !s.flags.fin));
        pump(&mut client, &mut server, segs, t);
        assert_eq!(server.take_data().len(), 30_000);
        // After everything is acked the FIN flows and teardown progresses.
        assert!(client.state() == SocketState::FinWait1 || client.state() == SocketState::FinWait2);
    }

    #[test]
    fn send_after_close_discarded() {
        let (mut client, _server) = handshake();
        let t = SimTime::from_millis(1);
        client.close(t);
        assert!(client.send(Bytes::from_static(b"late"), t).is_empty());
    }

    #[test]
    fn fast_retransmit_on_three_dup_acks() {
        let (mut client, mut server) = handshake();
        let t = SimTime::from_millis(1);
        // Send 5 segments; drop the first, deliver the rest.
        let data = vec![9u8; 1460 * 5];
        let segs = client.send(Bytes::from(data.clone()), t);
        assert_eq!(segs.len(), 5);
        let mut dup_acks = Vec::new();
        for s in &segs[1..] {
            dup_acks.extend(server.on_segment(s, t));
        }
        assert!(dup_acks.len() >= 3);
        let mut rtx = Vec::new();
        for a in &dup_acks {
            rtx.extend(client.on_segment(a, t));
        }
        // The lost head was fast-retransmitted.
        assert!(rtx.iter().any(|s| s.seq == segs[0].seq));
        assert!(client.retransmitted_segments() >= 1);
        // Deliver it; the server reassembles everything.
        pump(&mut client, &mut server, rtx, t);
        assert_eq!(server.take_data().len(), 1460 * 5);
    }

    #[test]
    fn rtt_estimation_updates_rto() {
        let (mut client, mut server) = handshake();
        let t0 = SimTime::from_millis(10);
        let segs = client.send(Bytes::from_static(b"x"), t0);
        let acks = deliver(&mut server, &segs, t0 + SimTime::from_millis(100));
        deliver(&mut client, &acks, t0 + SimTime::from_millis(200));
        // SRTT ≈ 200 ms; RTO = srtt + 4*rttvar ≈ 600 ms, above min_rto.
        let segs2 = client.send(Bytes::from_static(b"y"), SimTime::from_millis(300));
        let _ = segs2;
        let dl = client.next_deadline().expect("armed");
        assert!(dl > SimTime::from_millis(300) + SimTime::from_millis(300));
    }

    /// An ACK as the peer of `handshake()`'s client would send it.
    fn peer_ack(sock: &TcpSocket, ack: SeqNum) -> Segment {
        Segment {
            src_port: sock.remote().port,
            dst_port: sock.local().port,
            seq: sock.irs() + 1,
            ack,
            flags: Flags::ACK,
            window: 1 << 20,
            payload: Bytes::new(),
        }
    }

    /// An established sender whose ISS sits `below_wrap` short of 2^32.
    fn sender(below_wrap: u32) -> TcpSocket {
        let cfg = TcpConfig::default();
        let (c_ep, s_ep) = eps();
        let iss = SeqNum::new(u32::MAX - below_wrap);
        let (mut sock, syn) = TcpSocket::connect(cfg, c_ep, s_ep, iss, SimTime::ZERO);
        let (_, synack) =
            TcpSocket::accept(cfg, s_ep, c_ep, &syn, SeqNum::new(77), SimTime::ZERO).unwrap();
        sock.on_segment(&synack, SimTime::ZERO);
        assert_eq!(sock.state(), SocketState::Established);
        sock
    }

    /// The two senders of the differential test below plus the oracle: the
    /// plain `Vec<u8>` of every byte written so far.
    struct Differential {
        seed: u64,
        chunked: TcpSocket,
        whole: TcpSocket,
        stream: Vec<u8>,
        /// Sequence number of `stream[0]`.
        first_seq: SeqNum,
        /// Stream offset just past the highest byte emitted so far.
        sent_hi: u32,
        fin_seen: bool,
    }

    impl Differential {
        /// Applies one input to both senders and checks what they emit.
        fn both(&mut self, input: impl Fn(&mut TcpSocket) -> Vec<Segment>) {
            let (a, b) = (input(&mut self.chunked), input(&mut self.whole));
            self.check(a, b);
        }

        fn check(&mut self, chunked: Vec<Segment>, whole: Vec<Segment>) {
            let seed = self.seed;
            assert_eq!(
                chunked, whole,
                "seed {seed}: differs from the contiguous sender"
            );
            for seg in &chunked {
                let off = seg.seq - self.first_seq;
                assert_eq!(
                    &seg.payload[..],
                    &self.stream[off as usize..][..seg.payload.len()],
                    "seed {seed}: payload at stream offset {off}"
                );
                self.sent_hi = self.sent_hi.max(off + seg.payload.len() as u32);
                self.fin_seen |= seg.flags.fin;
            }
        }
    }

    /// Differential test of the chunked send buffer. `chunked` is handed
    /// every write cut into random chunks (1 B .. 600 KB); `whole` is handed
    /// the same write as one buffer, which is all the old contiguous send
    /// buffer ever saw. Both get identical ACKs (mid-chunk, on a chunk
    /// boundary, duplicate, old, beyond `snd_nxt`), triple duplicate ACKs,
    /// RTOs and a close behind queued data, with the ISS within 3 MSS of the
    /// sequence wrap. Every segment `chunked` emits must equal `whole`'s,
    /// and every payload must equal the plain `Vec<u8>` of all bytes
    /// written, at the offset its sequence number names.
    #[test]
    fn chunked_send_buffer_matches_contiguous_oracle() {
        use yoda_netsim::rng::Rng;
        const MSS: u32 = 1460;
        for seed in 0..24u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let below_wrap = rng.gen_range(0..3 * MSS);
            let chunked = sender(below_wrap);
            let mut d = Differential {
                seed,
                first_seq: chunked.iss() + 1,
                chunked,
                whole: sender(below_wrap),
                stream: Vec::new(),
                sent_hi: 0,
                fin_seen: false,
            };
            let ack_to = |d: &Differential, to: u32| peer_ack(&d.chunked, d.first_seq + to);
            let mut boundaries: Vec<u32> = Vec::new();
            // Stream offset of the highest cumulative ACK fed so far.
            let mut acked = 0u32;
            let mut now = SimTime::from_millis(1);
            for step in 0..400 {
                now += SimTime::from_millis(7);
                let closing = step >= 300;
                match rng.gen_range(0..10u64) {
                    0..=2 if !closing && d.stream.len() < 3_000_000 => {
                        let len = match rng.gen_range(0..4u64) {
                            0 => rng.gen_range(1..=MSS),
                            1 => rng.gen_range(MSS..40 * MSS),
                            _ => rng.gen_range(1..=600_000u32),
                        } as usize;
                        let at = d.stream.len();
                        d.stream
                            .extend((at..at + len).map(|i| (i * 31 % 251) as u8));
                        let mut chunks = Vec::new();
                        let mut cut_at = at;
                        while cut_at < at + len {
                            let cut = match rng.gen_range(0..3u64) {
                                0 => rng.gen_range(1..=3u32),
                                1 => rng.gen_range(1..=2 * MSS),
                                _ => rng.gen_range(1..=600_000u32),
                            } as usize;
                            let end = (cut_at + cut).min(at + len);
                            chunks.push(Bytes::copy_from_slice(&d.stream[cut_at..end]));
                            boundaries.push(end as u32);
                            cut_at = end;
                        }
                        let a = d.chunked.send_vectored(chunks, now);
                        let b = d.whole.send(Bytes::copy_from_slice(&d.stream[at..]), now);
                        d.check(a, b);
                    }
                    3..=6 => {
                        let sent_hi = d.sent_hi;
                        let on_boundary = boundaries
                            .iter()
                            .copied()
                            .find(|&b| b > acked && b <= sent_hi);
                        let to = match (rng.gen_range(0..6u64), on_boundary) {
                            (0, _) => acked,                                        // duplicate
                            (1, _) => acked.saturating_sub(rng.gen_range(1..=MSS)), // old
                            (2, _) => sent_hi + 1 + rng.gen_range(1..=MSS),         // never sent
                            (3, Some(b)) => b,
                            _ if sent_hi > acked => rng.gen_range(acked + 1..=sent_hi),
                            _ => acked,
                        };
                        let ack = ack_to(&d, to);
                        d.both(|s| s.on_segment(&ack, now));
                        if to <= sent_hi {
                            acked = acked.max(to);
                        }
                    }
                    7 => {
                        // Triple duplicate ACK: fast retransmit of the head.
                        let ack = ack_to(&d, acked);
                        for _ in 0..3 {
                            d.both(|s| s.on_segment(&ack, now));
                        }
                    }
                    8 => {
                        if let Some(deadline) = d.chunked.next_deadline() {
                            assert_eq!(d.whole.next_deadline(), Some(deadline));
                            now = now.max(deadline);
                            d.both(|s| s.on_timer(now));
                        }
                    }
                    _ if closing => d.both(|s| s.close(now)),
                    _ => {}
                }
                assert_eq!(
                    d.chunked.bytes_outstanding(),
                    d.stream.len() - acked as usize
                );
            }
            // Drain: acknowledge whatever is emitted until the FIN is out.
            d.both(|s| s.close(now));
            for _ in 0..10_000 {
                if d.fin_seen && acked as usize == d.stream.len() {
                    break;
                }
                now += SimTime::from_millis(7);
                acked = d.sent_hi;
                let ack = ack_to(&d, acked);
                d.both(|s| s.on_segment(&ack, now));
            }
            assert!(d.fin_seen, "seed {seed}: FIN never followed the data");
            assert_eq!(
                d.sent_hi as usize,
                d.stream.len(),
                "seed {seed}: bytes never sent"
            );
            assert_eq!(d.chunked.bytes_outstanding(), 0);
        }
    }

    #[test]
    fn full_segments_are_views_of_the_callers_buffer() {
        let mut sock = sender(5);
        let object = Bytes::from(vec![3u8; 100_000]);
        let span = object.as_ptr() as usize..object.as_ptr() as usize + object.len();
        let mut now = SimTime::from_millis(1);
        let mut segs = sock.send(object.clone(), now);
        let (mut seen, mut full) = (0usize, 0);
        while seen < object.len() {
            assert!(!segs.is_empty(), "stalled at {seen}");
            for seg in &segs {
                seen += seg.payload.len();
                if seg.payload.len() == 1460 {
                    full += 1;
                    assert!(
                        span.contains(&(seg.payload.as_ptr() as usize)),
                        "a full segment was copied out of the caller's allocation"
                    );
                }
            }
            now += SimTime::from_millis(1);
            segs = sock.on_segment(&peer_ack(&sock, sock.iss() + 1 + seen as u32), now);
        }
        assert_eq!(full, 100_000 / 1460);
    }

    #[test]
    fn data_on_handshake_ack_is_processed() {
        // The client's first data segment often rides right behind the
        // handshake ACK; Yoda depends on the server accepting data carried
        // on the ACK that completes the handshake.
        let cfg = TcpConfig::default();
        let (c_ep, s_ep) = eps();
        let t = SimTime::ZERO;
        let (mut client, syn) = TcpSocket::connect(cfg, c_ep, s_ep, SeqNum::new(50), t);
        let (mut server, synack) =
            TcpSocket::accept(cfg, s_ep, c_ep, &syn, SeqNum::new(80), t).unwrap();
        let mut from_client = client.on_segment(&synack, t);
        from_client.extend(client.send(Bytes::from_static(b"payload"), t));
        // Merge: deliver ACK then data (two segments is fine too).
        deliver(&mut server, &from_client, t);
        assert_eq!(server.state(), SocketState::Established);
        assert_eq!(&server.take_data()[..], b"payload");
    }
}
