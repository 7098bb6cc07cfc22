//! Apache-style origin server node.
//!
//! Serves objects from a shared [`SiteCatalog`] over the simulated TCP
//! stack. Request service time is modelled with a per-core FIFO queue
//! ([`ServiceQueue`]) so CPU saturation behaves like the paper's dual-core
//! backend VMs.

use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use yoda_balance::{ProbeReply, ProbeRequest};
use yoda_netsim::{Ctx, Endpoint, FlowTable, Node, Packet, ServiceQueue, SimTime, TimerToken};
use yoda_tcp::{ConnId, TcpEvent, TcpStack};

use crate::message::{parse_request, HttpRequest, HttpResponse};
use crate::site::SiteCatalog;

/// Timer kind for deferred responses.
const REPLY_TIMER_KIND: u32 = 0x5E4;

/// CPU cores (paper backends: dual-core VMs).
const CORES: usize = 2;
/// Fixed CPU time per request.
const BASE_SERVICE: SimTime = SimTime::from_micros(800);
/// Additional CPU time per KiB of response body.
const SERVICE_PER_KIB: SimTime = SimTime::from_micros(4);

/// Origin server settings: none. The type stays only because the frozen
/// `bench_e2e` benchmark passes `TestbedConfig::backend` to
/// [`OriginServer::new`]; it goes when that benchmark is next revised.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig;

struct PendingReply {
    conn: ConnId,
    /// Encoded head and body, queued on the socket as two chunks.
    response: [Bytes; 2],
    close_after: bool,
    arrived: SimTime,
}

/// EWMA weight of the newest latency sample.
const LATENCY_EWMA_ALPHA: f64 = 0.3;

/// An origin HTTP server bound to one endpoint.
///
/// Serves `GET` requests for catalog objects; unknown paths get 404. The
/// node exposes counters the scenario harnesses read: total requests,
/// bytes served, and a resettable window counter (paper Fig. 14 plots the
/// per-server traffic split over time).
pub struct OriginServer {
    listen: Endpoint,
    catalog: Arc<SiteCatalog>,
    stack: TcpStack,
    /// What the stack hands over on `Data`: kept, drained after each read.
    rx: Vec<Bytes>,
    cpu: ServiceQueue,
    buffers: FlowTable<ConnId, BytesMut>,
    pending: FlowTable<u64, PendingReply>,
    next_reply: u64,
    speed_factor: f64,
    latency_ewma: SimTime,
    have_latency: bool,
    /// Total requests served.
    pub requests: u64,
    /// Requests served since the last window reset.
    pub requests_window: u64,
    /// Total body bytes served.
    pub bytes_served: u64,
}

impl OriginServer {
    /// Creates a server listening on `listen`, serving `catalog`.
    pub fn new(_: ServerConfig, listen: Endpoint, catalog: Arc<SiteCatalog>) -> Self {
        OriginServer {
            listen,
            catalog,
            stack: TcpStack::new(),
            rx: Vec::new(),
            cpu: ServiceQueue::new(CORES),
            buffers: Default::default(),
            pending: Default::default(),
            next_reply: 0,
            speed_factor: 1.0,
            latency_ewma: SimTime::ZERO,
            have_latency: false,
            requests: 0,
            requests_window: 0,
            bytes_served: 0,
        }
    }

    /// Requests in flight (accepted but not yet replied): the RIF signal
    /// that load-balancer probes sample.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Scales all service times by `f` (e.g. `5.0` = a 5x-slower backend).
    /// Takes effect for requests arriving after the call, which lets
    /// scenarios degrade and recover a backend mid-run.
    pub fn set_speed_factor(&mut self, f: f64) {
        self.speed_factor = f.max(0.0);
    }

    /// The current service-time multiplier.
    pub fn speed_factor(&self) -> f64 {
        self.speed_factor
    }

    /// Resets the windowed counters (requests and CPU).
    pub fn reset_window(&mut self, now: SimTime) {
        self.requests_window = 0;
        self.cpu.reset_window(now);
    }

    fn handle_request(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, req: HttpRequest) {
        self.requests += 1;
        self.requests_window += 1;
        let response = match self.catalog.lookup(req.path()) {
            Some((_, obj)) => {
                // Deterministic filler body of the object's size.
                self.bytes_served += obj.size as u64;
                let mut resp = HttpResponse::ok(self.catalog.body(obj.size));
                resp.version = req.version.clone();
                resp.with_header("Server", "simhttpd/1.0")
            }
            None => {
                let mut resp = HttpResponse::not_found();
                resp.version = req.version.clone();
                resp
            }
        };
        let close_after = !req.keep_alive();
        let base = BASE_SERVICE
            + SimTime::from_micros(
                SERVICE_PER_KIB.as_micros() * (response.body.len() as u64 / 1024),
            );
        let service = SimTime::from_micros((base.as_micros() as f64 * self.speed_factor) as u64);
        let done = self.cpu.submit(ctx.now(), service, conn.serial());
        let delay = done.saturating_sub(ctx.now());
        let id = self.next_reply;
        self.next_reply += 1;
        self.pending.insert(
            id,
            PendingReply {
                conn,
                response: [response.encode_head(), response.body],
                close_after,
                arrived: ctx.now(),
            },
        );
        ctx.set_timer(delay, TimerToken::new(REPLY_TIMER_KIND).with_a(id));
    }

    fn record_latency(&mut self, sample: SimTime) {
        if self.have_latency {
            let old = self.latency_ewma.as_micros() as f64;
            let new = sample.as_micros() as f64;
            self.latency_ewma = SimTime::from_micros(
                (old * (1.0 - LATENCY_EWMA_ALPHA) + new * LATENCY_EWMA_ALPHA) as u64,
            );
        } else {
            self.latency_ewma = sample;
            self.have_latency = true;
        }
    }

    fn drain_conn(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        self.stack.recv(conn, &mut self.rx);
        if self.rx.is_empty() {
            return;
        }
        let buf = self.buffers.get_or_insert_with(conn, BytesMut::default);
        for data in self.rx.drain(..) {
            buf.extend_from_slice(&data);
        }
        // Keep-alive connections can carry several back-to-back requests.
        // Re-look the buffer up each round: handling a request may drop it.
        loop {
            let Some(buf) = self.buffers.get_mut(&conn) else {
                return;
            };
            let Some((req, used)) = parse_request(buf) else {
                return;
            };
            let _ = buf.split_to(used);
            self.handle_request(ctx, conn, req);
        }
    }
}

impl Node for OriginServer {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {
        self.stack.listen(self.listen);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        if pkt.protocol == yoda_netsim::PROTO_PING {
            // Health-monitor ping (paper §6): echo it back.
            let reply = Packet::new(pkt.dst, pkt.src, pkt.protocol, pkt.body);
            ctx.send(reply);
            return;
        }
        if pkt.protocol == yoda_netsim::PROTO_PROBE {
            // Load probe (Prequal-style): answer with requests-in-flight
            // and the recent-latency estimate, piggybacked in one datagram.
            if let Some(req) = pkt.message().and_then(|m| ProbeRequest::decode(m)) {
                let reply = ProbeReply {
                    tag: req.tag,
                    rif: self.pending.len() as u32,
                    latency: self.latency_ewma,
                };
                ctx.send(Packet::new(
                    pkt.dst,
                    pkt.src,
                    yoda_netsim::PROTO_PROBE,
                    reply.encode(),
                ));
            }
            return;
        }
        for ev in self.stack.on_packet(ctx, pkt) {
            match ev {
                TcpEvent::Data(conn) => self.drain_conn(ctx, conn),
                TcpEvent::PeerClosed(conn) => {
                    // Serve whatever is parsed, then close our side.
                    self.drain_conn(ctx, conn);
                    let has_pending = self.pending.any(|_, p| p.conn == conn);
                    if !has_pending {
                        self.stack.close(ctx, conn);
                    }
                    self.buffers.remove(&conn);
                }
                TcpEvent::Closed(conn) | TcpEvent::Reset(conn) => {
                    self.buffers.remove(&conn);
                }
                _ => {}
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        match token.kind {
            yoda_tcp::TCP_TIMER_KIND => {
                for ev in self.stack.on_timer(ctx, token) {
                    if let TcpEvent::Data(conn) = ev {
                        self.drain_conn(ctx, conn);
                    }
                }
            }
            REPLY_TIMER_KIND => {
                if let Some(reply) = self.pending.remove(&token.a) {
                    self.record_latency(ctx.now().saturating_sub(reply.arrived));
                    self.stack.send_vectored(ctx, reply.conn, reply.response);
                    if reply.close_after {
                        self.stack.close(ctx, reply.conn);
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::SiteConfig;
    use yoda_netsim::{Addr, Engine, SimTime, Topology, Zone};

    #[test]
    fn reply_timer_kind_distinct_from_tcp() {
        assert_ne!(REPLY_TIMER_KIND, yoda_tcp::TCP_TIMER_KIND);
    }

    #[test]
    fn server_construction() {
        let catalog = Arc::new(SiteCatalog::generate(1, &[SiteConfig::default()]));
        let ep = Endpoint::new(Addr::new(10, 1, 0, 1), 80);
        let srv = OriginServer::new(ServerConfig, ep, catalog);
        assert_eq!(srv.listen, ep);
        assert_eq!(srv.requests, 0);
    }

    /// Keeps the last probe reply delivered to it.
    struct ProbeSink(Option<ProbeReply>);

    impl Node for ProbeSink {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, pkt: Packet) {
            assert_eq!(pkt.protocol, yoda_netsim::PROTO_PROBE);
            self.0 = pkt.message().and_then(|m| ProbeReply::decode(m));
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: TimerToken) {}
    }

    #[test]
    fn probe_reply_carries_rif_and_latency() {
        let catalog = Arc::new(SiteCatalog::generate(1, &[SiteConfig::default()]));
        let ep = Endpoint::new(Addr::new(10, 1, 0, 1), 80);
        let mut srv = OriginServer::new(ServerConfig, ep, catalog);
        srv.record_latency(SimTime::from_millis(4));
        let mut eng = Engine::with_topology(1, Topology::uniform(SimTime::from_millis(1)));

        // Drive the probe handler directly through a scratch engine ctx,
        // then let the reply reach the prober's address.
        let id = eng.add_node("origin", ep.addr, Zone::Dc, Box::new(srv));
        let prober = Endpoint::new(Addr::new(10, 0, 0, 9), yoda_balance::PROBE_PORT);
        let sink = eng.add_node("prober", prober.addr, Zone::Dc, Box::new(ProbeSink(None)));
        eng.with_node_ctx::<OriginServer>(id, |srv, ctx| {
            let req = ProbeRequest { tag: 55 };
            srv.on_packet(
                ctx,
                Packet::new(prober, ep, yoda_netsim::PROTO_PROBE, req.encode()),
            );
        });
        eng.run_for(SimTime::from_millis(10));
        let reply = eng.node_ref::<ProbeSink>(sink).0;
        assert_eq!(
            reply,
            Some(ProbeReply {
                tag: 55,
                rif: 0,
                latency: SimTime::from_millis(4),
            })
        );
    }

    #[test]
    fn latency_ewma_blends_samples() {
        let catalog = Arc::new(SiteCatalog::generate(1, &[SiteConfig::default()]));
        let ep = Endpoint::new(Addr::new(10, 1, 0, 1), 80);
        let mut srv = OriginServer::new(ServerConfig, ep, catalog);
        srv.record_latency(SimTime::from_micros(1000));
        assert_eq!(srv.latency_ewma, SimTime::from_micros(1000));
        srv.record_latency(SimTime::from_micros(2000));
        // 0.7 * 1000 + 0.3 * 2000 = 1300.
        assert_eq!(srv.latency_ewma, SimTime::from_micros(1300));
    }

    #[test]
    fn speed_factor_scales_service_time() {
        let catalog = Arc::new(SiteCatalog::generate(1, &[SiteConfig::default()]));
        let ep = Endpoint::new(Addr::new(10, 1, 0, 1), 80);
        let mut srv = OriginServer::new(ServerConfig, ep, catalog);
        srv.set_speed_factor(5.0);
        assert_eq!(srv.speed_factor, 5.0);
        srv.set_speed_factor(-1.0);
        assert_eq!(srv.speed_factor, 0.0, "clamped at zero");
    }

    #[test]
    fn serves_known_object_in_engine() {
        // Full integration lives in the client module tests and the
        // workspace tests/; here just check the node is engine-compatible.
        let catalog = Arc::new(SiteCatalog::generate(1, &[SiteConfig::default()]));
        let ep = Endpoint::new(Addr::new(10, 1, 0, 1), 80);
        let mut eng = Engine::with_topology(1, Topology::uniform(SimTime::from_millis(1)));
        eng.add_node(
            "origin",
            ep.addr,
            Zone::Dc,
            Box::new(OriginServer::new(ServerConfig, ep, catalog)),
        );
        eng.run_for(SimTime::from_millis(10));
    }
}
