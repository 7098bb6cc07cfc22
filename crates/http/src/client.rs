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
//!
//! Each client keeps only its arrival process and its counters. Both run
//! their fetches through one `Fetches` table, which owns the TCP stack and
//! every connection's lifecycle (DESIGN.md "One fetch engine").

use std::sync::Arc;

use yoda_netsim::{
    Addr, Bytes, Ctx, Endpoint, FlowTable, Histogram, Node, Packet, SimTime, TimerId, TimerToken,
};
use yoda_tcp::{ConnId, TcpEvent, TcpEvents, TcpStack};

use crate::message::{parse_response_head, HttpRequest};
use crate::site::{ObjectId, SiteCatalog};

/// Timer kind of a fetch's HTTP timeout (both clients).
pub const TIMEOUT_KIND: u32 = 0xB01;
/// Timer kind of a TLS fetch's hello retry, pending until the certificate
/// is in or the fetch ends.
pub const TLS_RETRY_KIND: u32 = 0xB04;
const STALL_KIND: u32 = 0xB02;
const TICK_KIND: u32 = 0xB03;

/// The fixed ClientHello stand-in a TLS-mode browser sends before its
/// HTTP request (must match the LB's expectation).
pub(crate) const TLS_HELLO: &[u8] = b"CLIENTHELLO\n";
/// How long a TLS client waits for the certificate before re-sending its
/// hello (drives certificate re-transmission across an LB failover).
const TLS_RETRY: SimTime = SimTime::from_secs(3);
/// The rate client's per-request timeout (the browser's default HTTP
/// timeout, §7).
const RATE_TIMEOUT: SimTime = SimTime::from_secs(30);

/// Terminal outcome of one object fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RequestOutcome {
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
        }
    }
}

/// What a fetch's newly arrived bytes completed.
enum Completed {
    /// The TLS certificate: the hello retry it leaves pending is handed
    /// back for cancelling.
    Certificate(TimerId),
    Response,
}

struct Fetch {
    process: usize,
    object: ObjectId,
    conn: ConnId,
    /// Unparsed arrivals: a TLS certificate or an incomplete response head.
    buf: Vec<u8>,
    /// Once the response head has arrived: its `Content-Length` and the
    /// response bytes still to come, which are counted, not kept.
    body: Option<(usize, usize)>,
    started: SimTime,
    /// When the HTTP request actually went out (after the handshake);
    /// the paper's "request completion time" measures from here.
    request_sent_at: Option<SimTime>,
    attempt: u32,
    last_progress: SimTime,
    /// The HTTP timeout, cancelled when the fetch ends first.
    timeout: TimerId,
    /// The pending stall check, if stall detection is on.
    stall: Option<TimerId>,
    /// TLS mode: the pending hello retry, present exactly while the hello
    /// is out and the certificate not yet in.
    hello_retry: Option<TimerId>,
}

impl Fetch {
    /// Buffers newly arrived certificate bytes. Returns true, and drops the
    /// certificate from the buffer, once all of it is in.
    fn on_cert_bytes(&mut self, data: &[u8]) -> bool {
        self.buf.extend_from_slice(data);
        // The certificate blob is "SSLCERT:<len10>\n" padded to len.
        if self.buf.len() < 19 || !self.buf.starts_with(b"SSLCERT:") {
            return false;
        }
        let len = self
            .buf
            .get(8..18)
            .and_then(|d| std::str::from_utf8(d).ok())
            .and_then(|d| d.parse::<usize>().ok());
        let Some(len) = len.filter(|&len| self.buf.len() >= len) else {
            return false; // Certificate still arriving.
        };
        self.buf.drain(..len);
        true
    }

    /// Accounts for newly arrived response bytes. Returns the body length
    /// once the whole response (head + `Content-Length` bytes) is in.
    /// Bytes fed in pieces count as fed at once: the head is parsed the
    /// first time the buffer holds all of it.
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

    /// Takes a read's slices: certificate bytes while the hello is out
    /// (whatever follows the certificate waits in `buf`), else response
    /// bytes. Returns what they completed, if anything.
    fn on_slices(&mut self, slices: &[Bytes]) -> Option<Completed> {
        let mut slices = slices.iter();
        let Some(retry) = self.hello_retry else {
            let done = slices.any(|s| self.on_response_bytes(s).is_some());
            return done.then_some(Completed::Response);
        };
        if !slices.any(|s| self.on_cert_bytes(s)) {
            return None;
        }
        slices.for_each(|s| self.buf.extend_from_slice(s));
        self.hello_retry = None;
        Some(Completed::Certificate(retry))
    }

    /// The `Content-Length` of the response, once its head has arrived.
    fn body_len(&self) -> u64 {
        self.body.map_or(0, |(len, _)| len as u64)
    }
}

/// What a [`Fetches`] call hands back: the fetch it ended, if any.
type Ended = Option<(Fetch, RequestOutcome)>;

/// One client's fetches and the TCP stack they run on: connect → (TLS
/// hello → certificate) → request → response head → body count, under the
/// HTTP timeout, the stall check and the hello retry.
///
/// A stack call concerns one connection, so each call here ends at most
/// one fetch and hands it back; the client acts on it after the call.
/// Ending a fetch cancels its timers, then closes its connection after a
/// response or aborts it after any failure, so a client's next `connect`
/// always follows those, in that order.
struct Fetches {
    addr: Addr,
    catalog: Arc<SiteCatalog>,
    target: Endpoint,
    host: String,
    http_timeout: SimTime,
    stall_timeout: Option<SimTime>,
    tls: bool,
    session_cookie: bool,
    stack: TcpStack,
    /// What the stack hands over on `Data`: kept, cleared after each read.
    rx: Vec<Bytes>,
    table: FlowTable<u64, Fetch>,
    by_conn: FlowTable<ConnId, u64>,
    next_id: u64,
}

impl Fetches {
    /// Plain-HTTP fetches from `addr` to `target` under the rate client's
    /// timeout, with no cookie and no stall check.
    fn new(addr: Addr, catalog: Arc<SiteCatalog>, target: Endpoint, host: String) -> Self {
        let mut stack = TcpStack::new();
        stack.set_ephemeral_base(
            (yoda_netsim::hash_bytes(0xE9, &addr.as_u32().to_be_bytes()) % 28_000) as u16,
        );
        Fetches {
            addr,
            catalog,
            target,
            host,
            http_timeout: RATE_TIMEOUT,
            stall_timeout: None,
            tls: false,
            session_cookie: false,
            stack,
            rx: Vec::new(),
            table: FlowTable::new(),
            by_conn: FlowTable::new(),
            next_id: 0,
        }
    }

    /// Opens a connection for `object` and arms the fetch's timeout (and
    /// stall check). Its latency counts from `started`.
    fn start(
        &mut self,
        ctx: &mut Ctx<'_>,
        process: usize,
        object: ObjectId,
        attempt: u32,
        started: SimTime,
    ) {
        let local = Endpoint::new(self.addr, self.stack.ephemeral_port());
        let conn = self.stack.connect(ctx, local, self.target);
        let id = self.next_id;
        self.next_id += 1;
        let timeout = ctx.set_timer(self.http_timeout, TimerToken::new(TIMEOUT_KIND).with_a(id));
        let stall = self
            .stall_timeout
            .map(|stall| ctx.set_timer(stall, TimerToken::new(STALL_KIND).with_a(id)));
        let fetch = Fetch {
            process,
            object,
            conn,
            buf: Vec::new(),
            body: None,
            started,
            request_sent_at: None,
            attempt,
            last_progress: ctx.now(),
            timeout,
            stall,
            hello_retry: None,
        };
        self.table.insert(id, fetch);
        self.by_conn.insert(conn, id);
    }

    /// Handles a packet; returns the fetch it ended, if any.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) -> Ended {
        let events = self.stack.on_packet(ctx, pkt);
        self.on_events(ctx, events)
    }

    /// Handles a stack or fetch timer; returns the fetch it ended, if any.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) -> Ended {
        match token.kind {
            yoda_tcp::TCP_TIMER_KIND => {
                let events = self.stack.on_timer(ctx, token);
                self.on_events(ctx, events)
            }
            TIMEOUT_KIND => self.end(ctx, token.a, RequestOutcome::TimedOut),
            TLS_RETRY_KIND => {
                self.send_hello(ctx, token.a);
                None
            }
            STALL_KIND => self.check_stall(ctx, token.a),
            _ => None,
        }
    }

    /// Dispatches one stack call's events. They concern one connection, so
    /// once one of them ends its fetch the rest find no fetch to act on.
    fn on_events(&mut self, ctx: &mut Ctx<'_>, events: TcpEvents) -> Ended {
        let mut ended = None;
        for ev in events {
            let Some(&id) = self.by_conn.get(&ev.conn()) else {
                continue;
            };
            match ev {
                TcpEvent::Connected(_) if self.tls => self.send_hello(ctx, id),
                TcpEvent::Connected(_) => self.send_request(ctx, id),
                TcpEvent::Data(conn) => ended = self.on_data(ctx, conn, id),
                TcpEvent::Reset(_) => ended = self.end(ctx, id, RequestOutcome::Reset),
                _ => {}
            }
        }
        ended
    }

    /// TLS mode: sends the ClientHello and arms the hello retry (a
    /// failed-over LB instance learns to resend the certificate from the
    /// retried hello).
    fn send_hello(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        let Some(fetch) = self.table.get_mut(&id) else {
            return;
        };
        self.stack
            .send(ctx, fetch.conn, Bytes::from_static(TLS_HELLO));
        let retry = TimerToken::new(TLS_RETRY_KIND).with_a(id);
        fetch.hello_retry = Some(ctx.set_timer(TLS_RETRY, retry));
    }

    fn send_request(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        let Some(fetch) = self.table.get_mut(&id) else {
            return;
        };
        let path = self.catalog.path_of(fetch.object).to_string();
        let mut req = HttpRequest::get(path).with_header("Host", self.host.clone());
        if self.session_cookie {
            req = req.with_header("Cookie", format!("session=p{}", fetch.process));
        }
        self.stack.send(ctx, fetch.conn, req.encode());
        fetch.request_sent_at.get_or_insert(ctx.now());
    }

    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, id: u64) -> Ended {
        self.stack.recv(conn, &mut self.rx);
        let completed = self.table.get_mut(&id).and_then(|fetch| {
            if !self.rx.is_empty() {
                fetch.last_progress = ctx.now();
            }
            fetch.on_slices(&self.rx)
        });
        self.rx.clear();
        match completed? {
            Completed::Certificate(retry) => {
                ctx.cancel_timer(retry);
                self.send_request(ctx, id);
                None
            }
            Completed::Response => self.end(ctx, id, RequestOutcome::Ok),
        }
    }

    /// Ends a fetch whose response stopped mid-stream for the stall
    /// timeout, or checks it again one stall timeout later.
    fn check_stall(&mut self, ctx: &mut Ctx<'_>, id: u64) -> Ended {
        let stall = self.stall_timeout?;
        let fetch = self.table.get_mut(&id)?;
        let idle = ctx.now().saturating_sub(fetch.last_progress);
        if idle >= stall && (!fetch.buf.is_empty() || fetch.body.is_some()) {
            // Mid-stream stall: the session is visibly broken.
            return self.end(ctx, id, RequestOutcome::Stalled);
        }
        // Still progressing (or not started): check again.
        fetch.stall = Some(ctx.set_timer(stall, TimerToken::new(STALL_KIND).with_a(id)));
        None
    }

    /// Ends a fetch: cancels its timers, closes its connection after a
    /// response or aborts it after any failure, and hands it back.
    fn end(&mut self, ctx: &mut Ctx<'_>, id: u64, outcome: RequestOutcome) -> Ended {
        let fetch = self.table.remove(&id)?;
        // The fetch's timers would fire into nothing now.
        ctx.cancel_timer(fetch.timeout);
        for timer in [fetch.stall, fetch.hello_retry].into_iter().flatten() {
            ctx.cancel_timer(timer);
        }
        self.by_conn.remove(&fetch.conn);
        if outcome == RequestOutcome::Ok {
            self.stack.close(ctx, fetch.conn);
        } else {
            self.stack.abort(ctx, fetch.conn);
        }
        Some((fetch, outcome))
    }
}

struct Process {
    /// Objects still to fetch for the current page (last = next).
    queue: Vec<ObjectId>,
    page_started: SimTime,
    pages_done: u64,
}

/// Closed-loop browser emulator node.
///
/// Metrics are public fields read by scenario harnesses after the run.
pub struct BrowserClient {
    cfg: BrowserConfig,
    fetches: Fetches,
    processes: Vec<Process>,
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
}

impl BrowserClient {
    /// Creates a browser bound to `addr`.
    pub fn new(cfg: BrowserConfig, addr: Addr, catalog: Arc<SiteCatalog>) -> Self {
        let fetches = Fetches {
            http_timeout: cfg.http_timeout,
            stall_timeout: cfg.stall_timeout,
            tls: cfg.tls,
            session_cookie: cfg.session_cookie,
            ..Fetches::new(addr, catalog, cfg.target, cfg.host.clone())
        };
        BrowserClient {
            cfg,
            fetches,
            processes: Vec::new(),
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
        }
    }

    /// Object fetches currently in flight (issued, not yet resolved).
    pub fn in_flight(&self) -> usize {
        self.fetches.table.len()
    }

    fn start_page(&mut self, ctx: &mut Ctx<'_>, process: usize) {
        let catalog = &self.fetches.catalog;
        let queue = if let Some(path) = &self.cfg.fixed_object {
            catalog
                .lookup(path)
                .map(|(id, _)| vec![id])
                .unwrap_or_default()
        } else {
            let site = catalog.site(self.cfg.site);
            let page_idx = ctx.node_rng().gen_range(0..site.pages.len());
            let page = catalog.page(self.cfg.site, page_idx);
            let mut q = vec![page.html];
            q.extend(page.embedded.iter().copied());
            q.reverse(); // pop from the back
            q
        };
        let Some(p) = self.processes.get_mut(process) else {
            return;
        };
        if queue.is_empty() {
            // Misconfigured fixed object: idle this process rather than
            // spinning through empty "pages".
            return;
        }
        p.queue = queue;
        p.page_started = ctx.now();
        self.next_object(ctx, process);
    }

    /// Starts the next object fetch for a process, or completes its page.
    fn next_object(&mut self, ctx: &mut Ctx<'_>, process: usize) {
        let Some(p) = self.processes.get_mut(process) else {
            return;
        };
        if let Some(&object) = p.queue.last() {
            self.fetches.start(ctx, process, object, 0, ctx.now());
            self.started_fetches += 1;
            return;
        }
        p.pages_done += 1;
        self.page_latencies
            .record_time_ms(ctx.now().saturating_sub(p.page_started));
        self.pages_completed += 1;
        if self.cfg.max_pages.is_some_and(|max| p.pages_done >= max) {
            return;
        }
        self.start_page(ctx, process);
    }

    /// Accounts for an ended fetch, then retries it or moves its process
    /// on.
    fn on_ended(&mut self, ctx: &mut Ctx<'_>, fetch: Fetch, outcome: RequestOutcome) {
        match outcome {
            RequestOutcome::Ok => {
                self.completed += 1;
                self.body_bytes += fetch.body_len();
            }
            RequestOutcome::TimedOut => self.timeouts += 1,
            RequestOutcome::Reset => self.resets += 1,
            RequestOutcome::Stalled => self.session_resets += 1,
        }
        if outcome != RequestOutcome::Ok {
            if fetch.attempt < self.cfg.retries {
                // Browser retry: reissue the same object, keeping the
                // original start time so its latency includes the timeout
                // the user sat through (paper Fig. 12: HAProxy-retry
                // latencies exceed 30 s).
                let (process, object) = (fetch.process, fetch.object);
                self.fetches
                    .start(ctx, process, object, fetch.attempt + 1, fetch.started);
                self.started_fetches += 1;
                return;
            }
            // Broken flow: record at the timeout value and move on (the
            // user gave up on this object).
            self.broken_flows += 1;
        }
        self.request_latencies
            .record_time_ms(ctx.now().saturating_sub(fetch.started));
        if let Some(p) = self.processes.get_mut(fetch.process) {
            p.queue.pop();
        }
        self.next_object(ctx, fetch.process);
    }
}

impl Node for BrowserClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.processes = (0..self.cfg.processes)
            .map(|_| Process {
                queue: Vec::new(),
                page_started: ctx.now(),
                pages_done: 0,
            })
            .collect();
        for p in 0..self.cfg.processes {
            self.start_page(ctx, p);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        if let Some((fetch, outcome)) = self.fetches.on_packet(ctx, pkt) {
            self.on_ended(ctx, fetch, outcome);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        if let Some((fetch, outcome)) = self.fetches.on_timer(ctx, token) {
            self.on_ended(ctx, fetch, outcome);
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
    /// Hostname for the `Host` header.
    pub host: String,
}

impl Default for RateClientConfig {
    fn default() -> Self {
        RateClientConfig {
            rate_per_sec: 100.0,
            target: Endpoint::new(Addr::new(100, 0, 0, 1), 80),
            object_path: None,
            site: 0,
            duration: None,
            host: "mysite.test".to_string(),
        }
    }
}

/// The lowest rate a [`RateClient`] issues at: one request per 1,000 s.
const MIN_RATE_PER_SEC: f64 = 0.001;

/// Open-loop Apache-bench-style load generator node.
pub struct RateClient {
    cfg: RateClientConfig,
    fetches: Fetches,
    started_at: SimTime,
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
    /// Creates a rate client bound to `addr`. A rate below one request
    /// per 1,000 s (zero, say) issues at that rate, as with `set_rate`.
    pub fn new(mut cfg: RateClientConfig, addr: Addr, catalog: Arc<SiteCatalog>) -> Self {
        cfg.rate_per_sec = cfg.rate_per_sec.max(MIN_RATE_PER_SEC);
        let fetches = Fetches::new(addr, catalog, cfg.target, cfg.host.clone());
        RateClient {
            cfg,
            fetches,
            started_at: SimTime::ZERO,
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
        self.cfg.rate_per_sec = rate_per_sec.max(MIN_RATE_PER_SEC);
    }

    /// The gap between requests, never below the clock's 1 µs: above
    /// 2 M/s it would round to zero and re-arm the tick at the same
    /// instant forever. Up to 2 M/s the clamp changes nothing.
    fn tick_interval(&self) -> SimTime {
        SimTime::from_secs_f64(1.0 / self.cfg.rate_per_sec).max(SimTime::from_micros(1))
    }

    fn issue(&mut self, ctx: &mut Ctx<'_>) {
        let catalog = &self.fetches.catalog;
        let object = match &self.cfg.object_path {
            Some(p) => match catalog.lookup(p) {
                Some((id, _)) => id,
                None => return,
            },
            None => {
                let site = catalog.site(self.cfg.site);
                let oi = ctx.node_rng().gen_range(0..site.objects.len());
                ObjectId {
                    site: self.cfg.site,
                    object: oi,
                }
            }
        };
        self.fetches.start(ctx, 0, object, 0, ctx.now());
        self.issued += 1;
    }

    fn on_ended(&mut self, ctx: &mut Ctx<'_>, fetch: Fetch, outcome: RequestOutcome) {
        match outcome {
            RequestOutcome::Ok => {
                self.completed += 1;
                self.body_bytes += fetch.body_len();
                self.latencies
                    .record_time_ms(ctx.now().saturating_sub(fetch.started));
                if let Some(at) = fetch.request_sent_at {
                    self.fetch_latencies
                        .record_time_ms(ctx.now().saturating_sub(at));
                }
            }
            RequestOutcome::TimedOut => self.timeouts += 1,
            RequestOutcome::Reset | RequestOutcome::Stalled => self.resets += 1,
        }
    }
}

impl Node for RateClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.started_at = ctx.now();
        ctx.set_timer(self.tick_interval(), TimerToken::new(TICK_KIND));
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        if let Some((fetch, outcome)) = self.fetches.on_packet(ctx, pkt) {
            self.on_ended(ctx, fetch, outcome);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        if token.kind != TICK_KIND {
            if let Some((fetch, outcome)) = self.fetches.on_timer(ctx, token) {
                self.on_ended(ctx, fetch, outcome);
            }
            return;
        }
        let elapsed = ctx.now().saturating_sub(self.started_at);
        if self.cfg.duration.is_none_or(|d| elapsed < d) {
            self.issue(ctx);
            ctx.set_timer(self.tick_interval(), TimerToken::new(TICK_KIND));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{OriginServer, ServerConfig};
    use crate::site::SiteConfig;
    use yoda_netsim::{Engine, NodeId, Topology, Zone};

    const SERVER: Endpoint = Endpoint::new(Addr::new(10, 1, 0, 1), 80);

    fn catalog(pages: usize) -> Arc<SiteCatalog> {
        Arc::new(SiteCatalog::generate(
            5,
            &[SiteConfig {
                pages,
                ..SiteConfig::default()
            }],
        ))
    }

    /// An origin at `SERVER` and a browser fetching from it; returns the
    /// engine, the origin and the browser.
    fn direct_setup(browser_cfg: BrowserConfig) -> (Engine, NodeId, NodeId) {
        let catalog = catalog(50);
        let mut eng = Engine::with_topology(9, Topology::uniform(SimTime::from_millis(2)));
        let origin = eng.add_node(
            "origin",
            SERVER.addr,
            Zone::Dc,
            Box::new(OriginServer::new(ServerConfig, SERVER, catalog.clone())),
        );
        let cfg = BrowserConfig {
            target: SERVER,
            ..browser_cfg
        };
        let client_addr = Addr::new(172, 16, 0, 1);
        let id = eng.add_node(
            "browser",
            client_addr,
            Zone::Dc,
            Box::new(BrowserClient::new(cfg, client_addr, catalog)),
        );
        (eng, origin, id)
    }

    /// No fetch vanishes: every one started has ended in a counter or is
    /// still in flight.
    fn assert_conserved(b: &BrowserClient) {
        let ended = b.completed + b.timeouts + b.resets + b.session_resets;
        assert_eq!(b.started_fetches, ended + b.in_flight() as u64);
    }

    #[test]
    fn browser_fetches_pages_directly() {
        let (mut eng, _, id) = direct_setup(BrowserConfig {
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
        assert_conserved(b);
    }

    #[test]
    fn browser_with_sessions_sets_cookie() {
        let (mut eng, _, id) = direct_setup(BrowserConfig {
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
    fn stalled_stream_is_a_session_reset() {
        let site = catalog(50);
        let largest = site.site(0).objects.iter().max_by_key(|o| o.size).unwrap();
        let (mut eng, origin, id) = direct_setup(BrowserConfig {
            processes: 1,
            max_pages: Some(1),
            stall_timeout: Some(SimTime::from_secs(2)),
            fixed_object: Some(largest.path.clone()),
            ..BrowserConfig::default()
        });
        // Kill the origin once the response head is in and the body is
        // still arriving: the stream stops mid-response.
        let mid_body = |eng: &Engine| {
            let b = eng.node_ref::<BrowserClient>(id);
            b.fetches.table.get(&0).is_some_and(|f| f.body.is_some())
        };
        while !mid_body(&eng) {
            assert!(eng.step(), "the response head never arrived");
        }
        eng.fail_node(origin);
        eng.run_for(SimTime::from_secs(10));
        let b = eng.node_ref::<BrowserClient>(id);
        assert_eq!((b.session_resets, b.broken_flows), (1, 1));
        assert_eq!((b.completed, b.timeouts, b.resets), (0, 0, 0));
        assert_conserved(b);
    }

    #[test]
    fn rate_client_hits_target_rate() {
        let catalog = catalog(30);
        let mut eng = Engine::with_topology(9, Topology::uniform(SimTime::from_millis(1)));
        eng.add_node(
            "origin",
            SERVER.addr,
            Zone::Dc,
            Box::new(OriginServer::new(ServerConfig, SERVER, catalog.clone())),
        );
        let addr = Addr::new(172, 16, 0, 2);
        let id = eng.add_node(
            "rate",
            addr,
            Zone::Dc,
            Box::new(RateClient::new(
                RateClientConfig {
                    rate_per_sec: 200.0,
                    target: SERVER,
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
        let mut eng = Engine::with_topology(9, Topology::uniform(SimTime::from_millis(1)));
        let srv = eng.add_node(
            "origin",
            SERVER.addr,
            Zone::Dc,
            Box::new(OriginServer::new(ServerConfig, SERVER, catalog.clone())),
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
                    target: SERVER,
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
        assert_conserved(b);
    }

    #[test]
    fn a_retried_fetch_keeps_its_start_time() {
        let (mut eng, origin, id) = direct_setup(BrowserConfig {
            processes: 1,
            max_pages: Some(1),
            fixed_object: Some(catalog(50).site(0).objects[0].path.clone()),
            http_timeout: SimTime::from_secs(5),
            retries: 1,
            ..BrowserConfig::default()
        });
        eng.fail_node(origin);
        eng.run_for(SimTime::from_secs(20));
        let b = eng.node_ref::<BrowserClient>(id);
        assert_eq!((b.started_fetches, b.timeouts, b.broken_flows), (2, 2, 1));
        // One latency, taken when the retry gave up: both timeouts long.
        let latencies = b.request_latencies.samples();
        assert_eq!(latencies.len(), 1);
        assert!(latencies[0] >= 10_000.0, "latency {latencies:?} ms");
        assert_conserved(b);
    }

    #[test]
    fn a_syn_to_a_closed_port_is_a_reset_on_both_clients() {
        let catalog = catalog(30);
        let closed = Endpoint::new(SERVER.addr, 81);
        let mut eng = Engine::with_topology(9, Topology::uniform(SimTime::from_millis(1)));
        eng.add_node(
            "origin",
            SERVER.addr,
            Zone::Dc,
            Box::new(OriginServer::new(ServerConfig, SERVER, catalog.clone())),
        );
        let browser_cfg = BrowserConfig {
            processes: 2,
            max_pages: Some(1),
            target: closed,
            ..BrowserConfig::default()
        };
        let rate_cfg = RateClientConfig {
            rate_per_sec: 10.0,
            target: closed,
            duration: Some(SimTime::from_secs(1)),
            ..RateClientConfig::default()
        };
        let (b_addr, r_addr) = (Addr::new(172, 16, 0, 4), Addr::new(172, 16, 0, 5));
        let browser = BrowserClient::new(browser_cfg, b_addr, catalog.clone());
        let browser = eng.add_node("browser", b_addr, Zone::Dc, Box::new(browser));
        let rate = RateClient::new(rate_cfg, r_addr, catalog);
        let rate = eng.add_node("rate", r_addr, Zone::Dc, Box::new(rate));
        eng.run_for(SimTime::from_secs(5));

        let b = eng.node_ref::<BrowserClient>(browser);
        assert!(b.started_fetches >= 2);
        assert_eq!((b.resets, b.broken_flows), (b.started_fetches, b.resets));
        assert_eq!((b.completed, b.timeouts, b.pages_completed), (0, 0, 2));
        assert_conserved(b);
        let r = eng.node_ref::<RateClient>(rate);
        assert!(r.issued >= 9, "issued {}", r.issued);
        assert_eq!((r.resets, r.completed, r.timeouts), (r.issued, 0, 0));
        assert_eq!(r.fetches.table.len(), 0);
        // Every timeout was cancelled with its fetch.
        assert_eq!(eng.timer_backlog(), 0);
    }
}
