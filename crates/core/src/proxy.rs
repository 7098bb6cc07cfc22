//! The HAProxy-style baseline L7 proxy (paper §2.2–2.3): the instance
//! the testbed puts in the L7 slot to measure Yoda against
//! ([`Testbed::build_proxy`](crate::Testbed::build_proxy)).
//!
//! A classic proxy that **terminates TCP on both sides** and keeps all
//! flow state locally. "First, each proxy LB instance establishes a TCP
//! connection with the client and receives the HTTP content. Next, it
//! inspects the HTTP content and selects a server based on the user
//! policies. Once the server is selected, it establishes a TCP connection
//! with the server and simply copies the data between these two
//! connections."
//!
//! Its defining weakness (Problem 1, §2.3): **each instance is a single
//! point of failure** — when it dies, both TCP connections' state dies
//! with it. Packets re-steered to a surviving proxy hit a stack with no
//! matching flow and are silently dropped, so the client stalls until its
//! HTTP timeout (Table 1, Figure 12).

use std::collections::BTreeMap;

use yoda_http::parse_request;
use yoda_netsim::{
    Addr, Bytes, Ctx, Endpoint, FlowTable, Node, Packet, ServiceQueue, SimTime, TimerToken,
    PROTO_CTRL, PROTO_IPIP, PROTO_PING,
};
use yoda_tcp::{ConnId, TcpEvent, TcpEvents, TcpStack};

use crate::ctrl::InstanceCtrl;
use crate::rules::{RuleTable, SelectCtx};

// CPU calibration follows the paper's §7.1 HAProxy numbers: at the load
// where Yoda saturates (12K req/s) HAProxy sits at ~46% CPU, i.e. roughly
// 2.2× cheaper per request (kernel TCP splicing vs. user-space packet
// copying).

/// CPU cores.
const CORES: usize = 8;
/// CPU time per spliced packet.
const PER_PKT_CPU: SimTime = SimTime::from_micros(32);
/// Extra CPU per new connection.
const PER_CONN_CPU: SimTime = SimTime::from_micros(170);

/// Per-client-connection proxy state, keyed by the client's `ConnId`.
struct Session {
    server_conn: Option<ConnId>,
    /// Request bytes held until the head parses and a backend is chosen.
    header: Vec<u8>,
    /// The VIP the client connected to.
    vip: Endpoint,
    client_closed: bool,
    server_closed: bool,
}

impl Session {
    fn new(vip: Endpoint) -> Self {
        Session {
            server_conn: None,
            header: Vec::new(),
            vip,
            client_closed: false,
            server_closed: false,
        }
    }
}

/// An HAProxy-like L7 proxy instance.
///
/// Keeps **all** flow state in local memory — the paper's Problem 1.
pub struct ProxyInstance {
    addr: Addr,
    stack: TcpStack,
    /// What the stack hands over on `Data`: kept, drained after each read.
    rx: Vec<Bytes>,
    vips: BTreeMap<Endpoint, RuleTable>,
    select_ctx: SelectCtx,
    cpu: ServiceQueue,
    /// Live sessions by client conn; a session goes when both legs close.
    sessions: FlowTable<ConnId, Session>,
    /// The client conn of each backend conn.
    by_server_conn: FlowTable<ConnId, ConnId>,
    /// Requests proxied (header parsed + backend connected).
    pub(crate) requests: u64,
}

impl ProxyInstance {
    /// Creates a proxy bound to `addr`.
    pub(crate) fn new(addr: Addr) -> Self {
        let mut stack = TcpStack::new();
        // An HAProxy instance that receives a packet for an unknown flow
        // (because the L4 LB re-steered a dead peer's traffic to it)
        // silently drops it: the flow hangs until the client's HTTP
        // timeout — the paper's Figure 12 HAProxy behaviour.
        stack.set_rst_unknown(false);
        ProxyInstance {
            addr,
            stack,
            rx: Vec::new(),
            vips: BTreeMap::new(),
            select_ctx: SelectCtx::default(),
            cpu: ServiceQueue::new(CORES),
            sessions: FlowTable::new(),
            by_server_conn: FlowTable::new(),
            requests: 0,
        }
    }

    /// Installs the rule table for a VIP; the proxy listens on it.
    pub(crate) fn install_vip(&mut self, vip: Endpoint, rules: RuleTable) {
        self.stack.listen(vip);
        self.vips.insert(vip, rules);
    }

    /// CPU utilisation since the last window reset.
    pub fn cpu_utilization(&self, now: SimTime) -> f64 {
        self.cpu.utilization(now)
    }

    fn charge(&mut self, now: SimTime, conn: ConnId, extra: SimTime) {
        self.cpu.submit(now, PER_PKT_CPU + extra, conn.serial());
    }

    fn on_client_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, vip: Endpoint) {
        self.stack.recv(conn, &mut self.rx);
        if self.rx.is_empty() {
            return;
        }
        self.charge(ctx.now(), conn, SimTime::ZERO);
        let session = self.sessions.get_or_insert_with(conn, || Session::new(vip));
        if let Some(server_conn) = session.server_conn {
            // Splice client → server: the received slices, as they are.
            self.stack
                .send_vectored(ctx, server_conn, self.rx.drain(..));
            return;
        }
        for data in self.rx.drain(..) {
            session.header.extend_from_slice(&data);
        }
        let Some((req, _)) = parse_request(&session.header) else {
            return;
        };
        let Some(table) = self.vips.get_mut(&vip) else {
            return;
        };
        let Some(backend) = table.select(&req, &self.select_ctx, ctx.node_rng()) else {
            return;
        };
        self.requests += 1;
        self.charge(ctx.now(), conn, PER_CONN_CPU);
        // Proxy-style: the backend connection uses the proxy's OWN
        // address (this is why backends see the proxy, not the
        // client, and why state is unrecoverable after a crash).
        let port = self.stack.ephemeral_port();
        let local = Endpoint::new(self.addr, port);
        let server_conn = self.stack.connect(ctx, local, backend);
        if let Some(session) = self.sessions.get_mut(&conn) {
            session.server_conn = Some(server_conn);
        }
        self.by_server_conn.insert(server_conn, conn);
    }

    fn on_server_connected(&mut self, ctx: &mut Ctx<'_>, server_conn: ConnId) {
        let Some(session) = self
            .by_server_conn
            .get(&server_conn)
            .and_then(|client_conn| self.sessions.get_mut(client_conn))
        else {
            return;
        };
        // Forward the buffered request.
        let header = Bytes::from(std::mem::take(&mut session.header));
        self.stack.send(ctx, server_conn, header);
    }

    fn on_server_data(&mut self, ctx: &mut Ctx<'_>, server_conn: ConnId) {
        self.stack.recv(server_conn, &mut self.rx);
        if self.rx.is_empty() {
            return;
        }
        self.charge(ctx.now(), server_conn, SimTime::ZERO);
        if let Some(&client_conn) = self.by_server_conn.get(&server_conn) {
            self.stack
                .send_vectored(ctx, client_conn, self.rx.drain(..));
        }
        self.rx.clear();
    }

    fn propagate_close(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, from_client: bool) {
        let client_conn = if from_client {
            conn
        } else {
            match self.by_server_conn.get(&conn) {
                Some(&client_conn) => client_conn,
                None => return,
            }
        };
        let Some(session) = self.sessions.get_mut(&client_conn) else {
            return;
        };
        if from_client {
            session.client_closed = true;
            if let Some(server_conn) = session.server_conn {
                self.stack.close(ctx, server_conn);
            }
        } else {
            session.server_closed = true;
            self.stack.close(ctx, client_conn);
        }
        if session.client_closed && session.server_closed {
            if let Some(server_conn) = session.server_conn {
                self.by_server_conn.remove(&server_conn);
            }
            self.sessions.remove(&client_conn);
        }
    }

    fn dispatch(&mut self, ctx: &mut Ctx<'_>, events: TcpEvents, inner_dst: Option<Endpoint>) {
        for ev in events {
            match ev {
                TcpEvent::Incoming(conn, _from) => {
                    if let Some(vip) = inner_dst {
                        self.sessions.get_or_insert_with(conn, || Session::new(vip));
                    }
                }
                TcpEvent::Connected(conn) => {
                    if self.by_server_conn.contains_key(&conn) {
                        self.on_server_connected(ctx, conn);
                    }
                }
                TcpEvent::Data(conn) => {
                    if self.by_server_conn.contains_key(&conn) {
                        self.on_server_data(ctx, conn);
                    } else {
                        let vip = self.sessions.get(&conn).map(|s| s.vip).or(inner_dst);
                        if let Some(vip) = vip {
                            self.on_client_data(ctx, conn, vip);
                        }
                    }
                }
                TcpEvent::PeerClosed(conn) => {
                    // Drain any final bytes first.
                    if self.by_server_conn.contains_key(&conn) {
                        self.on_server_data(ctx, conn);
                    }
                    let from_client = self.sessions.contains_key(&conn);
                    self.propagate_close(ctx, conn, from_client);
                }
                TcpEvent::Reset(conn) | TcpEvent::Closed(conn) => {
                    let from_client = self.sessions.contains_key(&conn);
                    if from_client || self.by_server_conn.contains_key(&conn) {
                        self.propagate_close(ctx, conn, from_client);
                    }
                }
            }
        }
    }
}

impl Node for ProxyInstance {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        match pkt.protocol {
            PROTO_IPIP => {
                // VIP traffic steered by the mux: feed the inner packet to
                // the stack (our VIP listener terminates it).
                let Some(inner) = pkt.decapsulate() else {
                    return;
                };
                let dst = inner.dst;
                let events = self.stack.on_packet(ctx, inner);
                self.dispatch(ctx, events, Some(dst));
            }
            yoda_netsim::PROTO_TCP => {
                // Backend leg: direct TCP to our own address.
                let events = self.stack.on_packet(ctx, pkt);
                self.dispatch(ctx, events, None);
            }
            PROTO_CTRL => {
                if let Some(msg) = pkt.message().and_then(InstanceCtrl::decode) {
                    match msg {
                        InstanceCtrl::InstallVip {
                            vip, rules_text, ..
                        } => {
                            // The proxy baseline ignores SSL options.
                            if let Some(table) = RuleTable::parse(&rules_text) {
                                self.install_vip(vip, table);
                            }
                        }
                        InstanceCtrl::RemoveVip { vip } => {
                            self.vips.remove(&vip);
                        }
                        InstanceCtrl::BackendDown { backend } => {
                            self.select_ctx.dead.insert(backend);
                        }
                        InstanceCtrl::BackendUp { backend } => {
                            self.select_ctx.dead.remove(&backend);
                        }
                        _ => {}
                    }
                }
            }
            PROTO_PING => {
                let reply = Packet::new(pkt.dst, pkt.src, PROTO_PING, pkt.body);
                ctx.send(reply);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        if token.kind == yoda_tcp::TCP_TIMER_KIND {
            let events = self.stack.on_timer(ctx, token);
            self.dispatch(ctx, events, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_vip_install() {
        let mut p = ProxyInstance::new(Addr::new(10, 0, 0, 1));
        let vip = Endpoint::new(Addr::new(100, 0, 0, 1), 80);
        let rules =
            RuleTable::parse("name=r priority=1 match * action=split 10.1.0.1:80=1").unwrap();
        p.install_vip(vip, rules);
        assert_eq!(p.requests, 0);
        assert!(p.sessions.is_empty(), "no live session");
    }

    #[test]
    fn cpu_cheaper_than_yoda() {
        // §7.1: HAProxy uses ~2.2x less CPU than (Python) Yoda per
        // request. Yoda touches every packet (~20/request); the proxy's
        // kernel splicing is charged per data chunk (~5/request).
        let y = crate::YodaConfig::default();
        let yoda_req = y.per_pkt_cpu.as_micros() as f64 * 20.0 + y.per_conn_cpu.as_micros() as f64;
        let proxy_req = PER_PKT_CPU.as_micros() as f64 * 5.0 + PER_CONN_CPU.as_micros() as f64;
        let ratio = yoda_req / proxy_req;
        assert!(ratio > 1.6 && ratio < 2.6, "ratio {ratio}");
    }
}
