//! Workload generators.
//!
//! * [`BrowserClient`] — the paper's closed-loop client (§7.2): N
//!   "processes", each fetching a page (HTML + embedded objects) and
//!   waiting for completion or HTTP timeout before the next request.
//!   Configurable timeout (30 s default, the least among browsers the
//!   authors tested), retry budget (HAProxy-retry vs. -noretry), and a
//!   streaming/session mode used to reproduce Table 1's session resets.
//! * [`RateClient`] — the paper's open-loop Apache-bench-style client
//!   (§7.1, §7.3): issues single-object fetches at a fixed rate,
//!   recording per-request latencies.

use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use yoda_netsim::{
    Addr, Ctx, Endpoint, FlowTable, Histogram, Node, Packet, SimTime, TimerId, TimerToken,
};
use yoda_tcp::{ConnId, TcpConfig, TcpEvent, TcpStack};

use crate::message::{parse_response_head, HttpRequest};
use crate::site::{ObjectId, SiteCatalog};

/// Timer kind of a fetch's HTTP timeout (both clients).
pub const TIMEOUT_KIND: u32 = 0xB01;
const STALL_KIND: u32 = 0xB02;
const TICK_KIND: u32 = 0xB03;
const TLS_RETRY_KIND: u32 = 0xB04;

/// The fixed ClientHello stand-in a TLS-mode browser sends before its
/// HTTP request (must match the LB's expectation).
pub const TLS_HELLO: &[u8] = b"CLIENTHELLO\n";
/// How long a TLS client waits for the certificate before re-sending its
/// hello (drives certificate re-transmission across an LB failover).
const TLS_RETRY: SimTime = SimTime::from_secs(3);

/// Terminal outcome of one object fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Response fully received.
    Ok,
    /// HTTP timeout expired (no/partial response).
    TimedOut,
    /// Connection reset by peer.
    Reset,
    /// Stream stalled longer than the stall timeout (session reset).
    Stalled,
}

/// Browser emulator configuration.
#[derive(Debug, Clone)]
pub struct BrowserConfig {
    /// Number of concurrent fetch processes (paper: 20 per client).
    pub processes: usize,
    /// Which site of the catalog this client browses.
    pub site: usize,
    /// The VIP (or direct server) endpoint to fetch from.
    pub target: Endpoint,
    /// HTTP timeout (paper: 30 s, "the least among the popular web
    /// browsers we tested").
    pub http_timeout: SimTime,
    /// Retries after a timeout/reset (0 = noretry, 1 = browser retry).
    pub retries: u32,
    /// Abort a transfer whose body stalls this long (streaming sessions,
    /// Table 1); `None` disables stall detection.
    pub stall_timeout: Option<SimTime>,
    /// Stop each process after this many pages (`None` = run forever).
    pub max_pages: Option<u64>,
    /// Attach a per-process session cookie to every request.
    pub session_cookie: bool,
    /// Fetch only this object path, one per "page" (used by streaming /
    /// fixed-workload profiles instead of whole-page fetches).
    pub fixed_object: Option<String>,
    /// TLS mode (§5.2 SSL support): send a ClientHello first, receive the
    /// LB's certificate, then send the HTTP request.
    pub tls: bool,
    /// Hostname for the `Host` header.
    pub host: String,
    /// TCP tuning.
    pub tcp: TcpConfig,
}

impl Default for BrowserConfig {
    fn default() -> Self {
        BrowserConfig {
            processes: 20,
            site: 0,
            target: Endpoint::new(Addr::new(100, 0, 0, 1), 80),
            http_timeout: SimTime::from_secs(30),
            retries: 0,
            stall_timeout: None,
            max_pages: None,
            session_cookie: false,
            fixed_object: None,
            tls: false,
            host: "mysite.test".to_string(),
            tcp: TcpConfig::default(),
        }
    }
}

#[derive(Debug)]
struct Fetch {
    process: usize,
    object: ObjectId,
    conn: ConnId,
    /// Unparsed arrivals: a TLS certificate or an incomplete response head.
    buf: BytesMut,
    /// Once the response head has arrived: its `Content-Length` and the
    /// response bytes still to come, which are counted, not kept.
    body: Option<(usize, usize)>,
    started: SimTime,
    /// When the HTTP request actually went out (after the handshake);
    /// the paper's "request completion time" measures from here.
    request_sent_at: Option<SimTime>,
    /// TLS mode: still waiting for the certificate.
    tls_awaiting_cert: bool,
    attempt: u32,
    last_progress: SimTime,
    /// The HTTP timeout, cancelled when the fetch ends first.
    timeout: TimerId,
    /// The pending stall check, if stall detection is on.
    stall: Option<TimerId>,
}

impl Fetch {
    fn new(process: usize, object: ObjectId, conn: ConnId, now: SimTime, timeout: TimerId) -> Self {
        Fetch {
            process,
            object,
            conn,
            buf: BytesMut::new(),
            body: None,
            started: now,
            request_sent_at: None,
            tls_awaiting_cert: false,
            attempt: 0,
            last_progress: now,
            timeout,
            stall: None,
        }
    }

    /// Cancels the fetch's timers: it has ended, and they would fire
    /// into nothing.
    fn cancel_timers(&self, ctx: &mut Ctx<'_>) {
        ctx.cancel_timer(self.timeout);
        if let Some(stall) = self.stall {
            ctx.cancel_timer(stall);
        }
    }

    /// Accounts for newly arrived response bytes. Returns the body length
    /// once the whole response (head + `Content-Length` bytes) is in.
    fn on_response_bytes(&mut self, data: &[u8]) -> Option<usize> {
        let mut arrived = data.len();
        if self.body.is_none() {
            self.buf.extend_from_slice(data);
            let (_, head_len, content_length) = parse_response_head(&self.buf)?;
            self.body = Some((content_length, head_len + content_length));
            arrived = std::mem::take(&mut self.buf).len();
        }
        let (content_length, missing) = self.body.as_mut()?;
        *missing = missing.saturating_sub(arrived);
        (*missing == 0).then_some(*content_length)
    }
}

#[derive(Debug)]
struct Process {
    /// Objects still to fetch for the current page (front = next).
    queue: Vec<ObjectId>,
    page_started: SimTime,
    pages_done: u64,
    active_fetch: Option<u64>,
}

/// Closed-loop browser emulator node.
///
/// Metrics are public fields read by scenario harnesses after the run.
pub struct BrowserClient {
    cfg: BrowserConfig,
    addr: Addr,
    catalog: Arc<SiteCatalog>,
    stack: TcpStack,
    fetches: FlowTable<u64, Fetch>,
    by_conn: FlowTable<ConnId, u64>,
    processes: Vec<Process>,
    next_fetch: u64,
    /// Latency of each completed (or failed-at-timeout) object fetch, ms.
    pub request_latencies: Histogram,
    /// Latency of each completed page (HTML + all objects), ms.
    pub page_latencies: Histogram,
    /// Fetches that timed out at least once.
    pub timeouts: u64,
    /// Fetches that saw a TCP reset.
    pub resets: u64,
    /// Streaming sessions aborted due to stall.
    pub session_resets: u64,
    /// Fetches abandoned with no retry budget left ("broken flows").
    pub broken_flows: u64,
    /// Successfully completed object fetches.
    pub completed: u64,
    /// Successfully completed pages.
    pub pages_completed: u64,
    /// Body bytes of completed fetches (counted past each response head).
    pub body_bytes: u64,
    /// Every fetch attempt ever issued (retries issue a fresh fetch).
    /// Conservation invariant: `started_fetches == completed + timeouts +
    /// resets + session_resets + in_flight()` — no fetch ever vanishes
    /// unaccounted. The chaos harness asserts this after every run.
    pub started_fetches: u64,
    /// Local ports of fetches that ended broken (for debugging traces).
    pub broken_ports: Vec<u16>,
}

impl BrowserClient {
    /// Creates a browser bound to `addr`.
    pub fn new(cfg: BrowserConfig, addr: Addr, catalog: Arc<SiteCatalog>) -> Self {
        let tcp = cfg.tcp;
        let mut stack = TcpStack::new(tcp);
        stack.set_ephemeral_base(
            (yoda_netsim::hash::hash_bytes(0xE9, &addr.as_u32().to_be_bytes()) % 28_000) as u16,
        );
        BrowserClient {
            cfg,
            addr,
            catalog,
            stack,
            fetches: FlowTable::new(),
            by_conn: FlowTable::new(),
            processes: Vec::new(),
            next_fetch: 0,
            request_latencies: Histogram::new(),
            page_latencies: Histogram::new(),
            timeouts: 0,
            resets: 0,
            session_resets: 0,
            broken_flows: 0,
            completed: 0,
            pages_completed: 0,
            body_bytes: 0,
            started_fetches: 0,
            broken_ports: Vec::new(),
        }
    }

    /// Object fetches currently in flight (issued, not yet resolved).
    pub fn in_flight(&self) -> usize {
        self.fetches.len()
    }

    /// Fraction of fetches that ended broken (never completed).
    pub fn broken_fraction(&self) -> f64 {
        let total = self.completed + self.broken_flows;
        if total == 0 {
            return 0.0;
        }
        self.broken_flows as f64 / total as f64
    }

    fn start_page(&mut self, ctx: &mut Ctx<'_>, process: usize) {
        self.start_page_inner(ctx, process);
    }

    fn start_page_inner(&mut self, ctx: &mut Ctx<'_>, process: usize) {
        let queue = if let Some(path) = &self.cfg.fixed_object {
            match self.catalog.lookup(path) {
                Some((id, _)) => vec![id],
                None => Vec::new(),
            }
        } else {
            let site = self.catalog.site(self.cfg.site);
            let page_idx = ctx.node_rng().gen_range(0..site.pages.len());
            let page = self.catalog.page(self.cfg.site, page_idx);
            let mut q = vec![page.html];
            q.extend(page.embedded.iter().copied());
            q.reverse(); // pop from the back
            q
        };
        let now = ctx.now();
        let Some(p) = self.processes.get_mut(process) else {
            return;
        };
        if queue.is_empty() {
            // Misconfigured fixed object: idle this process rather than
            // spinning through empty "pages".
            p.active_fetch = None;
            return;
        }
        p.queue = queue;
        p.page_started = now;
        self.next_object(ctx, process, 0, None);
    }

    /// Starts the next object fetch for a process. `carry_started`
    /// preserves the original request time across browser retries so a
    /// retried fetch's latency includes the timeout the user sat through
    /// (paper Fig. 12: HAProxy-retry latencies exceed 30 s).
    fn next_object(
        &mut self,
        ctx: &mut Ctx<'_>,
        process: usize,
        attempt: u32,
        carry_started: Option<SimTime>,
    ) {
        let queued = self
            .processes
            .get(process)
            .and_then(|p| p.queue.last().copied());
        let Some(object) = queued else {
            // Page complete.
            let Some(p) = self.processes.get_mut(process) else {
                return;
            };
            let started = p.page_started;
            p.pages_done += 1;
            let pages_done = p.pages_done;
            self.page_latencies
                .record_time_ms(ctx.now().saturating_sub(started));
            self.pages_completed += 1;
            if let Some(max) = self.cfg.max_pages {
                if pages_done >= max {
                    if let Some(p) = self.processes.get_mut(process) {
                        p.active_fetch = None;
                    }
                    return;
                }
            }
            self.start_page_inner(ctx, process);
            return;
        };
        let port = self.stack.ephemeral_port();
        let local = Endpoint::new(self.addr, port);
        let conn = self.stack.connect(ctx, local, self.cfg.target);
        let id = self.next_fetch;
        self.next_fetch += 1;
        let timeout = ctx.set_timer(
            self.cfg.http_timeout,
            TimerToken::new(TIMEOUT_KIND).with_a(id),
        );
        let stall = self
            .cfg
            .stall_timeout
            .map(|stall| ctx.set_timer(stall, TimerToken::new(STALL_KIND).with_a(id)));
        let fetch = Fetch {
            started: carry_started.unwrap_or(ctx.now()),
            tls_awaiting_cert: self.cfg.tls,
            attempt,
            stall,
            ..Fetch::new(process, object, conn, ctx.now(), timeout)
        };
        self.fetches.insert(id, fetch);
        self.started_fetches += 1;
        self.by_conn.insert(conn, id);
        if let Some(p) = self.processes.get_mut(process) {
            p.active_fetch = Some(id);
        }
    }

    fn send_request(&mut self, ctx: &mut Ctx<'_>, fetch_id: u64) {
        let Some(fetch) = self.fetches.get(&fetch_id) else {
            return;
        };
        let path = self.catalog.path_of(fetch.object).to_string();
        let mut req = HttpRequest::get(path).with_header("Host", self.cfg.host.clone());
        if self.cfg.session_cookie {
            req = req.with_header("Cookie", format!("session=p{}", fetch.process));
        }
        let conn = fetch.conn;
        self.stack.send(ctx, conn, req.encode());
        if let Some(f) = self.fetches.get_mut(&fetch_id) {
            f.request_sent_at.get_or_insert(ctx.now());
        }
    }

    fn finish_fetch(&mut self, ctx: &mut Ctx<'_>, fetch_id: u64, outcome: RequestOutcome) {
        let Some(fetch) = self.fetches.remove(&fetch_id) else {
            return;
        };
        fetch.cancel_timers(ctx);
        self.by_conn.remove(&fetch.conn);
        let process = fetch.process;
        match outcome {
            RequestOutcome::Ok => {
                self.completed += 1;
                self.request_latencies
                    .record_time_ms(ctx.now().saturating_sub(fetch.started));
                self.stack.close(ctx, fetch.conn);
                if let Some(p) = self.processes.get_mut(process) {
                    p.queue.pop();
                }
                self.next_object(ctx, process, 0, None);
            }
            RequestOutcome::TimedOut | RequestOutcome::Reset | RequestOutcome::Stalled => {
                match outcome {
                    RequestOutcome::TimedOut => self.timeouts += 1,
                    RequestOutcome::Reset => self.resets += 1,
                    RequestOutcome::Stalled => {
                        self.session_resets += 1;
                    }
                    // Excluded by the outer match arm.
                    RequestOutcome::Ok => {}
                }
                self.stack.abort(ctx, fetch.conn);
                if fetch.attempt < self.cfg.retries {
                    // Browser retry: reissue the same object, keeping the
                    // original start time for latency accounting.
                    self.next_object(ctx, process, fetch.attempt + 1, Some(fetch.started));
                } else {
                    // Broken flow: record at the timeout value and move on
                    // (the user gave up on this object).
                    self.broken_flows += 1;
                    if let Some(sock) = self.stack.socket(fetch.conn) {
                        self.broken_ports.push(sock.local().port);
                    }
                    self.request_latencies
                        .record_time_ms(ctx.now().saturating_sub(fetch.started));
                    if let Some(p) = self.processes.get_mut(process) {
                        p.queue.pop();
                    }
                    self.next_object(ctx, process, 0, None);
                }
            }
        }
    }

    fn on_conn_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        let Some(&fetch_id) = self.by_conn.get(&conn) else {
            return;
        };
        let data = self.stack.recv(conn);
        let Some(fetch) = self.fetches.get_mut(&fetch_id) else {
            return;
        };
        if !data.is_empty() {
            fetch.last_progress = ctx.now();
        }
        if fetch.tls_awaiting_cert {
            fetch.buf.extend_from_slice(&data);
            // The certificate blob is "SSLCERT:<len10>\n" padded to len.
            if fetch.buf.len() < 19 || !fetch.buf.starts_with(b"SSLCERT:") {
                return;
            }
            let Some(len) = fetch
                .buf
                .get(8..18)
                .and_then(|d| std::str::from_utf8(d).ok())
                .and_then(|d| d.parse::<usize>().ok())
            else {
                return;
            };
            if fetch.buf.len() < len {
                return; // Certificate still arriving.
            }
            let _ = fetch.buf.split_to(len);
            fetch.tls_awaiting_cert = false;
            self.send_request(ctx, fetch_id);
            return;
        }
        if let Some(body_len) = fetch.on_response_bytes(&data) {
            self.body_bytes += body_len as u64;
            self.finish_fetch(ctx, fetch_id, RequestOutcome::Ok);
        }
    }

    /// TLS mode: sends the ClientHello and arms the handshake-retry timer
    /// (a failed-over LB instance learns to resend the certificate from
    /// the retried hello).
    fn send_hello(&mut self, ctx: &mut Ctx<'_>, fetch_id: u64) {
        let Some(fetch) = self.fetches.get(&fetch_id) else {
            return;
        };
        let conn = fetch.conn;
        self.stack.send(ctx, conn, Bytes::from_static(TLS_HELLO));
        ctx.set_timer(TLS_RETRY, TimerToken::new(TLS_RETRY_KIND).with_a(fetch_id));
    }
}

impl Node for BrowserClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.processes = (0..self.cfg.processes)
            .map(|_| Process {
                queue: Vec::new(),
                page_started: ctx.now(),
                pages_done: 0,
                active_fetch: None,
            })
            .collect();
        for p in 0..self.cfg.processes {
            self.start_page(ctx, p);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        for ev in self.stack.on_packet(ctx, pkt) {
            match ev {
                TcpEvent::Connected(conn) => {
                    if let Some(&fetch_id) = self.by_conn.get(&conn) {
                        if self.cfg.tls {
                            self.send_hello(ctx, fetch_id);
                        } else {
                            self.send_request(ctx, fetch_id);
                        }
                    }
                }
                TcpEvent::Data(conn) => self.on_conn_data(ctx, conn),
                TcpEvent::Reset(conn) => {
                    if let Some(&fetch_id) = self.by_conn.get(&conn) {
                        self.finish_fetch(ctx, fetch_id, RequestOutcome::Reset);
                    }
                }
                _ => {}
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        match token.kind {
            yoda_tcp::TCP_TIMER_KIND => {
                let events = self.stack.on_timer(ctx, token);
                for ev in events {
                    match ev {
                        TcpEvent::Data(conn) => self.on_conn_data(ctx, conn),
                        TcpEvent::Reset(conn) => {
                            if let Some(&fetch_id) = self.by_conn.get(&conn) {
                                self.finish_fetch(ctx, fetch_id, RequestOutcome::Reset);
                            }
                        }
                        _ => {}
                    }
                }
            }
            TIMEOUT_KIND
                if self.fetches.contains_key(&token.a) => {
                    self.finish_fetch(ctx, token.a, RequestOutcome::TimedOut);
                }
            TLS_RETRY_KIND => {
                let retry = self
                    .fetches
                    .get(&token.a)
                    .map(|f| f.tls_awaiting_cert)
                    .unwrap_or(false);
                if retry {
                    self.send_hello(ctx, token.a);
                }
            }
            STALL_KIND => {
                let Some(stall) = self.cfg.stall_timeout else {
                    return;
                };
                if let Some(fetch) = self.fetches.get_mut(&token.a) {
                    let idle = ctx.now().saturating_sub(fetch.last_progress);
                    if idle >= stall && (!fetch.buf.is_empty() || fetch.body.is_some()) {
                        // Mid-stream stall: the session is visibly broken.
                        self.finish_fetch(ctx, token.a, RequestOutcome::Stalled);
                    } else {
                        // Still progressing (or not started): check again.
                        let check = TimerToken::new(STALL_KIND).with_a(token.a);
                        fetch.stall = Some(ctx.set_timer(stall, check));
                    }
                }
            }
            _ => {}
        }
    }
}

/// Open-loop rate client configuration.
#[derive(Debug, Clone)]
pub struct RateClientConfig {
    /// Requests per second issued by this client.
    pub rate_per_sec: f64,
    /// Target endpoint (VIP).
    pub target: Endpoint,
    /// Fixed object path to fetch (`None` = random object of `site`).
    pub object_path: Option<String>,
    /// Site used when sampling random objects.
    pub site: usize,
    /// Stop issuing after this long (`None` = run forever).
    pub duration: Option<SimTime>,
    /// Per-request timeout.
    pub timeout: SimTime,
    /// Hostname for the `Host` header.
    pub host: String,
    /// TCP tuning.
    pub tcp: TcpConfig,
}

impl Default for RateClientConfig {
    fn default() -> Self {
        RateClientConfig {
            rate_per_sec: 100.0,
            target: Endpoint::new(Addr::new(100, 0, 0, 1), 80),
            object_path: None,
            site: 0,
            duration: None,
            timeout: SimTime::from_secs(30),
            host: "mysite.test".to_string(),
            tcp: TcpConfig::default(),
        }
    }
}

/// Open-loop Apache-bench-style load generator node.
pub struct RateClient {
    cfg: RateClientConfig,
    addr: Addr,
    catalog: Arc<SiteCatalog>,
    stack: TcpStack,
    started_at: SimTime,
    fetches: FlowTable<u64, Fetch>,
    by_conn: FlowTable<ConnId, u64>,
    next_fetch: u64,
    /// Completed request latencies (connection setup + fetch), ms.
    pub latencies: Histogram,
    /// Request→response latencies (excluding the client handshake) — the
    /// paper's "request completion time", ms.
    pub fetch_latencies: Histogram,
    /// Completed requests.
    pub completed: u64,
    /// Body bytes of completed requests (counted past each response head).
    pub body_bytes: u64,
    /// Requests issued.
    pub issued: u64,
    /// Timed-out requests.
    pub timeouts: u64,
    /// Reset requests.
    pub resets: u64,
}

impl RateClient {
    /// Creates a rate client bound to `addr`.
    pub fn new(cfg: RateClientConfig, addr: Addr, catalog: Arc<SiteCatalog>) -> Self {
        let tcp = cfg.tcp;
        let mut stack = TcpStack::new(tcp);
        stack.set_ephemeral_base(
            (yoda_netsim::hash::hash_bytes(0xE9, &addr.as_u32().to_be_bytes()) % 28_000) as u16,
        );
        RateClient {
            cfg,
            addr,
            catalog,
            stack,
            started_at: SimTime::ZERO,
            fetches: FlowTable::new(),
            by_conn: FlowTable::new(),
            next_fetch: 0,
            latencies: Histogram::new(),
            fetch_latencies: Histogram::new(),
            completed: 0,
            body_bytes: 0,
            issued: 0,
            timeouts: 0,
            resets: 0,
        }
    }

    /// Changes the request rate; takes effect at the next tick, which
    /// lets scenarios drive bursty (square-wave) load.
    pub fn set_rate(&mut self, rate_per_sec: f64) {
        self.cfg.rate_per_sec = rate_per_sec.max(0.001);
    }

    fn tick_interval(&self) -> SimTime {
        SimTime::from_secs_f64(1.0 / self.cfg.rate_per_sec)
    }

    fn issue(&mut self, ctx: &mut Ctx<'_>) {
        let object = match &self.cfg.object_path {
            Some(p) => match self.catalog.lookup(p) {
                Some((id, _)) => id,
                None => return,
            },
            None => {
                let site = self.catalog.site(self.cfg.site);
                let oi = ctx.node_rng().gen_range(0..site.objects.len());
                ObjectId {
                    site: self.cfg.site,
                    object: oi,
                }
            }
        };
        let port = self.stack.ephemeral_port();
        let local = Endpoint::new(self.addr, port);
        let conn = self.stack.connect(ctx, local, self.cfg.target);
        let id = self.next_fetch;
        self.next_fetch += 1;
        let timeout = ctx.set_timer(self.cfg.timeout, TimerToken::new(TIMEOUT_KIND).with_a(id));
        self.fetches
            .insert(id, Fetch::new(0, object, conn, ctx.now(), timeout));
        self.by_conn.insert(conn, id);
        self.issued += 1;
    }

    fn finish(&mut self, ctx: &mut Ctx<'_>, fetch_id: u64, outcome: RequestOutcome) {
        let Some(fetch) = self.fetches.remove(&fetch_id) else {
            return;
        };
        fetch.cancel_timers(ctx);
        self.by_conn.remove(&fetch.conn);
        match outcome {
            RequestOutcome::Ok => {
                self.completed += 1;
                self.latencies
                    .record_time_ms(ctx.now().saturating_sub(fetch.started));
                if let Some(at) = fetch.request_sent_at {
                    self.fetch_latencies
                        .record_time_ms(ctx.now().saturating_sub(at));
                }
                self.stack.close(ctx, fetch.conn);
            }
            RequestOutcome::TimedOut => {
                self.timeouts += 1;
                self.stack.abort(ctx, fetch.conn);
            }
            RequestOutcome::Reset | RequestOutcome::Stalled => {
                self.resets += 1;
            }
        }
    }

    fn on_conn_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        let Some(&fetch_id) = self.by_conn.get(&conn) else {
            return;
        };
        let data = self.stack.recv(conn);
        let Some(fetch) = self.fetches.get_mut(&fetch_id) else {
            return;
        };
        if let Some(body_len) = fetch.on_response_bytes(&data) {
            self.body_bytes += body_len as u64;
            self.finish(ctx, fetch_id, RequestOutcome::Ok);
        }
    }
}

impl Node for RateClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.started_at = ctx.now();
        ctx.set_timer(self.tick_interval(), TimerToken::new(TICK_KIND));
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        for ev in self.stack.on_packet(ctx, pkt) {
            match ev {
                TcpEvent::Connected(conn) => {
                    if let Some((&fetch_id, fetch)) = self
                        .by_conn
                        .get(&conn)
                        .and_then(|id| Some(id).zip(self.fetches.get(id)))
                    {
                        let path = self.catalog.path_of(fetch.object).to_string();
                        let req = HttpRequest::get(path)
                            .with_header("Host", self.cfg.host.clone())
                            .encode();
                        self.stack.send(ctx, conn, req);
                        if let Some(f) = self.fetches.get_mut(&fetch_id) {
                            f.request_sent_at.get_or_insert(ctx.now());
                        }
                    }
                }
                TcpEvent::Data(conn) => self.on_conn_data(ctx, conn),
                TcpEvent::Reset(conn) => {
                    if let Some(&fetch_id) = self.by_conn.get(&conn) {
                        self.finish(ctx, fetch_id, RequestOutcome::Reset);
                    }
                }
                _ => {}
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        match token.kind {
            yoda_tcp::TCP_TIMER_KIND => {
                let events = self.stack.on_timer(ctx, token);
                for ev in events {
                    match ev {
                        TcpEvent::Data(conn) => self.on_conn_data(ctx, conn),
                        TcpEvent::Reset(conn) => {
                            if let Some(&fetch_id) = self.by_conn.get(&conn) {
                                self.finish(ctx, fetch_id, RequestOutcome::Reset);
                            }
                        }
                        _ => {}
                    }
                }
            }
            TICK_KIND => {
                let elapsed = ctx.now().saturating_sub(self.started_at);
                let running = match self.cfg.duration {
                    Some(d) => elapsed < d,
                    None => true,
                };
                if running {
                    self.issue(ctx);
                    ctx.set_timer(self.tick_interval(), TimerToken::new(TICK_KIND));
                }
            }
            TIMEOUT_KIND
                if self.fetches.contains_key(&token.a) => {
                    self.finish(ctx, token.a, RequestOutcome::TimedOut);
                }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{OriginServer, ServerConfig};
    use crate::site::SiteConfig;
    use yoda_netsim::{Engine, NodeId, Topology, Zone};

    fn direct_setup(browser_cfg: BrowserConfig) -> (Engine, NodeId) {
        let catalog = Arc::new(SiteCatalog::generate(
            5,
            &[SiteConfig {
                pages: 50,
                ..SiteConfig::default()
            }],
        ));
        let server_ep = Endpoint::new(Addr::new(10, 1, 0, 1), 80);
        let mut eng = Engine::with_topology(9, Topology::uniform(SimTime::from_millis(2)));
        eng.add_node(
            "origin",
            server_ep.addr,
            Zone::Dc,
            Box::new(OriginServer::new(
                ServerConfig::default(),
                server_ep,
                catalog.clone(),
            )),
        );
        let cfg = BrowserConfig {
            target: server_ep,
            ..browser_cfg
        };
        let client_addr = Addr::new(172, 16, 0, 1);
        let id = eng.add_node(
            "browser",
            client_addr,
            Zone::Dc,
            Box::new(BrowserClient::new(cfg, client_addr, catalog)),
        );
        (eng, id)
    }

    #[test]
    fn browser_fetches_pages_directly() {
        let (mut eng, id) = direct_setup(BrowserConfig {
            processes: 4,
            max_pages: Some(3),
            ..BrowserConfig::default()
        });
        eng.run_for(SimTime::from_secs(120));
        let b = eng.node_ref::<BrowserClient>(id);
        assert_eq!(b.pages_completed, 12, "all pages complete");
        assert_eq!(b.broken_flows, 0);
        assert_eq!(b.timeouts, 0);
        assert!(b.completed > 12, "html + embedded objects each fetched");
        assert!(b.request_latencies.len() as u64 == b.completed);
    }

    #[test]
    fn browser_with_sessions_sets_cookie() {
        let (mut eng, id) = direct_setup(BrowserConfig {
            processes: 1,
            max_pages: Some(1),
            session_cookie: true,
            ..BrowserConfig::default()
        });
        eng.run_for(SimTime::from_secs(30));
        let b = eng.node_ref::<BrowserClient>(id);
        assert!(b.pages_completed >= 1);
    }

    #[test]
    fn rate_client_hits_target_rate() {
        let catalog = Arc::new(SiteCatalog::generate(
            5,
            &[SiteConfig {
                pages: 30,
                ..SiteConfig::default()
            }],
        ));
        let server_ep = Endpoint::new(Addr::new(10, 1, 0, 1), 80);
        let mut eng = Engine::with_topology(9, Topology::uniform(SimTime::from_millis(1)));
        eng.add_node(
            "origin",
            server_ep.addr,
            Zone::Dc,
            Box::new(OriginServer::new(
                ServerConfig::default(),
                server_ep,
                catalog.clone(),
            )),
        );
        let addr = Addr::new(172, 16, 0, 2);
        let id = eng.add_node(
            "rate",
            addr,
            Zone::Dc,
            Box::new(RateClient::new(
                RateClientConfig {
                    rate_per_sec: 200.0,
                    target: server_ep,
                    duration: Some(SimTime::from_secs(2)),
                    ..RateClientConfig::default()
                },
                addr,
                catalog,
            )),
        );
        eng.run_for(SimTime::from_secs(10));
        let (issued, completed, timeouts) = {
            let c = eng.node_ref::<RateClient>(id);
            (c.issued, c.completed, c.timeouts)
        };
        assert!(
            (issued as i64 - 400).abs() <= 2,
            "open loop issued {issued} requests"
        );
        assert_eq!(completed, issued, "all complete");
        assert_eq!(timeouts, 0);
        // Done issuing at 2 s, done completing long before 10 s, and every
        // fetch cancelled its 30 s timeout when it finished.
        assert_eq!(eng.timer_backlog(), 0);
        let c = eng.node_mut::<RateClient>(id);
        assert!(
            c.latencies.median().expect("completed > 0") < 200.0,
            "fast LAN fetches"
        );
    }

    #[test]
    fn browser_timeout_fires_when_server_dead() {
        let catalog = Arc::new(SiteCatalog::generate(5, &[SiteConfig::default()]));
        let server_ep = Endpoint::new(Addr::new(10, 1, 0, 1), 80);
        let mut eng = Engine::with_topology(9, Topology::uniform(SimTime::from_millis(1)));
        let srv = eng.add_node(
            "origin",
            server_ep.addr,
            Zone::Dc,
            Box::new(OriginServer::new(
                ServerConfig::default(),
                server_ep,
                catalog.clone(),
            )),
        );
        eng.fail_node(srv);
        let addr = Addr::new(172, 16, 0, 3);
        let id = eng.add_node(
            "browser",
            addr,
            Zone::Dc,
            Box::new(BrowserClient::new(
                BrowserConfig {
                    processes: 1,
                    max_pages: Some(1),
                    http_timeout: SimTime::from_secs(5),
                    target: server_ep,
                    ..BrowserConfig::default()
                },
                addr,
                catalog,
            )),
        );
        eng.run_for(SimTime::from_secs(20));
        let b = eng.node_ref::<BrowserClient>(id);
        assert!(b.timeouts >= 1, "dead server must time out");
        assert!(b.broken_flows >= 1);
        assert_eq!(b.completed, 0);
    }
}
