//! The proxy instance node.

use std::collections::BTreeMap;

use bytes::BytesMut;
use yoda_core::rules::{RuleTable, SelectCtx};
use yoda_core::InstanceCtrl;
use yoda_http::parse_request;
use yoda_netsim::{
    Addr, Ctx, Endpoint, FlowTable, Node, Packet, ServiceQueue, SimTime, TimerToken, PROTO_CTRL,
    PROTO_IPIP, PROTO_PING,
};
use yoda_tcp::{ConnId, TcpConfig, TcpEvent, TcpStack};

/// Proxy tunables. CPU calibration follows the paper's §7.1 HAProxy
/// numbers: at the load where Yoda saturates (12K req/s) HAProxy sits at
/// ~46% CPU, i.e. roughly 2.2× cheaper per request (kernel TCP splicing
/// vs. user-space packet copying).
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// CPU cores.
    pub cores: usize,
    /// CPU time per spliced packet.
    pub per_pkt_cpu: SimTime,
    /// Extra CPU per new connection.
    pub per_conn_cpu: SimTime,
    /// Fixed forwarding latency per spliced chunk (kernel path: cheaper
    /// than Yoda's user-space pipeline).
    pub splice_latency: SimTime,
    /// TCP configuration for both connection legs.
    pub tcp: TcpConfig,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            cores: 8,
            per_pkt_cpu: SimTime::from_micros(32),
            per_conn_cpu: SimTime::from_micros(170),
            splice_latency: SimTime::from_micros(120),
            tcp: TcpConfig::default(),
        }
    }
}

/// Per-client-connection proxy state.
struct Session {
    client_conn: ConnId,
    server_conn: Option<ConnId>,
    header: BytesMut,
    /// Bytes from the server not yet relayed (server connected but data
    /// arrived before Established is reported — rare; kept for safety).
    vip: Endpoint,
    client_closed: bool,
    server_closed: bool,
}

/// An HAProxy-like L7 proxy instance.
///
/// Keeps **all** flow state in local memory — the paper's Problem 1.
pub struct ProxyInstance {
    addr: Addr,
    cfg: ProxyConfig,
    stack: TcpStack,
    vips: BTreeMap<Endpoint, RuleTable>,
    select_ctx: SelectCtx,
    cpu: ServiceQueue,
    sessions: FlowTable<ConnId, usize>,
    by_server_conn: FlowTable<ConnId, usize>,
    table: Vec<Option<Session>>,
    /// Requests proxied (header parsed + backend connected).
    pub requests: u64,
    /// Live sessions.
    pub active_sessions: u64,
    /// Packets relayed between the two legs.
    pub spliced_chunks: u64,
}

impl ProxyInstance {
    /// Creates a proxy bound to `addr`.
    pub fn new(cfg: ProxyConfig, addr: Addr) -> Self {
        let mut stack = TcpStack::new(cfg.tcp);
        // An HAProxy instance that receives a packet for an unknown flow
        // (because the L4 LB re-steered a dead peer's traffic to it)
        // silently drops it: the flow hangs until the client's HTTP
        // timeout — the paper's Figure 12 HAProxy behaviour.
        stack.set_rst_unknown(false);
        ProxyInstance {
            addr,
            cfg: cfg.clone(),
            stack,
            vips: BTreeMap::new(),
            select_ctx: SelectCtx::default(),
            cpu: ServiceQueue::new(cfg.cores),
            sessions: FlowTable::new(),
            by_server_conn: FlowTable::new(),
            table: Vec::new(),
            requests: 0,
            active_sessions: 0,
            spliced_chunks: 0,
        }
    }

    /// Installs the rule table for a VIP; the proxy listens on it.
    pub fn install_vip(&mut self, vip: Endpoint, rules: RuleTable) {
        self.stack.listen(vip);
        self.vips.insert(vip, rules);
    }

    /// CPU utilisation since the last window reset.
    pub fn cpu_utilization(&self, now: SimTime) -> f64 {
        self.cpu.utilization(now)
    }

    /// Resets the CPU measurement window.
    pub fn reset_cpu_window(&mut self, now: SimTime) {
        self.cpu.reset_window(now);
    }

    fn charge(&mut self, now: SimTime, conn: ConnId, extra: SimTime) {
        self.cpu.submit(now, self.cfg.per_pkt_cpu + extra, conn.0);
    }

    fn session_of_client(&mut self, conn: ConnId, vip: Endpoint) -> usize {
        if let Some(&idx) = self.sessions.get(&conn) {
            return idx;
        }
        let idx = self.table.len();
        self.table.push(Some(Session {
            client_conn: conn,
            server_conn: None,
            header: BytesMut::new(),
            vip,
            client_closed: false,
            server_closed: false,
        }));
        self.sessions.insert(conn, idx);
        self.active_sessions += 1;
        idx
    }

    fn on_client_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, vip: Endpoint) {
        let data = self.stack.recv(conn);
        if data.is_empty() {
            return;
        }
        self.charge(ctx.now(), conn, SimTime::ZERO);
        let idx = self.session_of_client(conn, vip);
        let Some(session) = self.table.get_mut(idx).and_then(|s| s.as_mut()) else {
            return;
        };
        match session.server_conn {
            Some(server_conn) => {
                // Splice client → server.
                self.spliced_chunks += 1;
                self.stack.send(ctx, server_conn, data);
            }
            None => {
                session.header.extend_from_slice(&data);
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
                let conn_cpu = self.cfg.per_conn_cpu;
                self.charge(ctx.now(), conn, conn_cpu);
                let Some(session) = self.table.get_mut(idx).and_then(|s| s.as_mut()) else {
                    return;
                };
                // Proxy-style: the backend connection uses the proxy's OWN
                // address (this is why backends see the proxy, not the
                // client, and why state is unrecoverable after a crash).
                let port = self.stack.ephemeral_port();
                let local = Endpoint::new(self.addr, port);
                let server_conn = self.stack.connect(ctx, local, backend);
                session.server_conn = Some(server_conn);
                self.by_server_conn.insert(server_conn, idx);
            }
        }
    }

    fn on_server_connected(&mut self, ctx: &mut Ctx<'_>, server_conn: ConnId) {
        let Some(&idx) = self.by_server_conn.get(&server_conn) else {
            return;
        };
        let Some(session) = self.table.get_mut(idx).and_then(|s| s.as_mut()) else {
            return;
        };
        // Forward the buffered request.
        let header = session.header.split().freeze();
        self.stack.send(ctx, server_conn, header);
    }

    fn on_server_data(&mut self, ctx: &mut Ctx<'_>, server_conn: ConnId) {
        let data = self.stack.recv(server_conn);
        if data.is_empty() {
            return;
        }
        self.charge(ctx.now(), server_conn, SimTime::ZERO);
        let Some(&idx) = self.by_server_conn.get(&server_conn) else {
            return;
        };
        let Some(session) = self.table.get(idx).and_then(|s| s.as_ref()) else {
            return;
        };
        self.spliced_chunks += 1;
        let client_conn = session.client_conn;
        self.stack.send(ctx, client_conn, data);
    }

    fn propagate_close(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, from_client: bool) {
        let idx = if from_client {
            self.sessions.get(&conn).copied()
        } else {
            self.by_server_conn.get(&conn).copied()
        };
        let Some(idx) = idx else {
            return;
        };
        let Some(session) = self.table.get_mut(idx).and_then(|s| s.as_mut()) else {
            return;
        };
        if from_client {
            session.client_closed = true;
            if let Some(server_conn) = session.server_conn {
                self.stack.close(ctx, server_conn);
            }
        } else {
            session.server_closed = true;
            let client_conn = session.client_conn;
            self.stack.close(ctx, client_conn);
        }
        let done = self
            .table
            .get(idx)
            .and_then(|s| s.as_ref())
            .is_some_and(|s| s.client_closed && s.server_closed);
        if done {
            let Some(s) = self.table.get_mut(idx).and_then(|s| s.take()) else {
                return;
            };
            self.sessions.remove(&s.client_conn);
            if let Some(sc) = s.server_conn {
                self.by_server_conn.remove(&sc);
            }
            self.active_sessions -= 1;
        }
    }

    fn dispatch(&mut self, ctx: &mut Ctx<'_>, events: Vec<TcpEvent>, inner_dst: Option<Endpoint>) {
        for ev in events {
            match ev {
                TcpEvent::Incoming(conn, _from) => {
                    if let Some(vip) = inner_dst {
                        self.session_of_client(conn, vip);
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
                        let vip = self
                            .sessions
                            .get(&conn)
                            .and_then(|&i| self.table.get(i))
                            .and_then(|s| s.as_ref())
                            .map(|s| s.vip)
                            .or(inner_dst);
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
                if let Some(msg) = InstanceCtrl::decode(&pkt.payload) {
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
                let reply = Packet::new(pkt.dst, pkt.src, PROTO_PING, pkt.payload.clone());
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
        let mut p = ProxyInstance::new(ProxyConfig::default(), Addr::new(10, 0, 0, 1));
        let vip = Endpoint::new(Addr::new(100, 0, 0, 1), 80);
        let rules =
            RuleTable::parse("name=r priority=1 match * action=split 10.1.0.1:80=1").unwrap();
        p.install_vip(vip, rules);
        assert_eq!(p.requests, 0);
        assert_eq!(p.active_sessions, 0);
    }

    #[test]
    fn cpu_cheaper_than_yoda() {
        // §7.1: HAProxy uses ~2.2x less CPU than (Python) Yoda per
        // request. Yoda touches every packet (~20/request); the proxy's
        // kernel splicing is charged per data chunk (~5/request).
        let p = ProxyConfig::default();
        let y = yoda_core::YodaConfig::default();
        let yoda_req = y.per_pkt_cpu.as_micros() as f64 * 20.0 + y.per_conn_cpu.as_micros() as f64;
        let proxy_req = p.per_pkt_cpu.as_micros() as f64 * 5.0 + p.per_conn_cpu.as_micros() as f64;
        let ratio = yoda_req / proxy_req;
        assert!(ratio > 1.6 && ratio < 2.6, "ratio {ratio}");
    }
}
