//! Cross-crate system tests: content-based switching, sticky sessions,
//! policy updates mid-flow, and HTTP/1.1 backend switching on a single
//! keep-alive connection (§5.2).

use yoda::core::{Testbed, TestbedConfig};
use yoda::core::{YodaConfig, YodaInstance};
use yoda::http::{parse_response, HttpRequest, OriginServer};
use yoda::l4lb::{rendezvous_pick, Mux};
use yoda::netsim::{Addr, Bytes, Ctx, Endpoint, Node, NodeId, Packet, SimTime, TimerToken, Zone};
use yoda::tcp::{ConnId, Flags, Segment, SeqNum, TcpEvent, TcpStack};

/// Client that sends two HTTP/1.1 requests for different content types on
/// ONE connection, collecting both responses.
struct KeepAliveClient {
    stack: TcpStack,
    addr: Addr,
    target: Endpoint,
    paths: Vec<String>,
    conn: Option<ConnId>,
    buf: Vec<u8>,
    responses: Vec<usize>,
    next_req: usize,
    /// Length of each request sent, and response bytes received: with the
    /// ISNs, the client's stream position on both sides.
    sent: Vec<u32>,
    received: u32,
}

impl KeepAliveClient {
    fn send_next(&mut self, ctx: &mut Ctx<'_>) {
        let Some(conn) = self.conn else { return };
        if self.next_req >= self.paths.len() {
            self.stack.close(ctx, conn);
            return;
        }
        let req = HttpRequest::get(self.paths[self.next_req].clone())
            .http11()
            .with_header("Host", "service0.test")
            .encode();
        self.next_req += 1;
        self.sent.push(req.len() as u32);
        self.stack.send(ctx, conn, req);
    }
}

impl Node for KeepAliveClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let port = self.stack.ephemeral_port();
        let local = Endpoint::new(self.addr, port);
        self.conn = Some(self.stack.connect(ctx, local, self.target));
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        for ev in self.stack.on_packet(ctx, pkt) {
            match ev {
                TcpEvent::Connected(_) => self.send_next(ctx),
                TcpEvent::Data(conn) => {
                    let mut data = Vec::new();
                    self.stack.recv(conn, &mut data);
                    for slice in data {
                        self.received += slice.len() as u32;
                        self.buf.extend_from_slice(&slice);
                    }
                    while let Some((resp, used)) = parse_response(&self.buf) {
                        self.buf.drain(..used);
                        self.responses.push(resp.body.len());
                        self.send_next(ctx);
                    }
                }
                _ => {}
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        self.stack.on_timer(ctx, token);
    }
}

/// §5.2: "a single TCP connection can be reused for multiple requests,
/// which may match different rules and hence need to be forwarded to
/// different backend servers". Rules steer .jpg and .css to different
/// backends; the client sends both over one connection.
struct SwitchBed {
    tb: Testbed,
    client: NodeId,
    sizes: Vec<usize>,
    /// Engine steps taken since the client was added.
    steps: u64,
}

impl SwitchBed {
    fn new(splice: bool) -> SwitchBed {
        let mut tb = Testbed::build(TestbedConfig {
            seed: 21,
            num_instances: 2,
            num_stores: 2,
            num_backends: 4,
            num_muxes: 2,
            num_services: 1,
            pages_per_site: 20,
            yoda: YodaConfig {
                splice,
                ..YodaConfig::default()
            },
            ..TestbedConfig::default()
        });
        let vip = tb.vips[0];
        let b = tb.service_backends[0].clone();
        // Find one jpg and one css object in site 0.
        let site = tb.catalog.site(0);
        let first = |ext| {
            let o = site.objects.iter().find(|o| o.path.ends_with(ext));
            o.expect("object exists").clone()
        };
        let (jpg, css) = (first(".jpg"), first(".css"));
        let rules = format!(
            "name=jpg priority=3 match url=*.jpg action=split {}=1\n\
             name=css priority=3 match url=*.css action=split {}=1\n\
             name=rest priority=1 match * action=split {}=1",
            b[0], b[1], b[2]
        );
        tb.set_policy_at(vip, &rules, SimTime::from_millis(500));
        tb.engine.run_for(SimTime::from_secs(1));

        let addr = Addr::new(172, 16, 9, 1);
        let client = tb.engine.add_node(
            "keepalive-client",
            addr,
            Zone::External,
            Box::new(KeepAliveClient {
                stack: TcpStack::new(),
                addr,
                target: vip,
                paths: vec![jpg.path.clone(), css.path.clone()],
                conn: None,
                buf: Vec::new(),
                responses: Vec::new(),
                next_req: 0,
                sent: Vec::new(),
                received: 0,
            }),
        );
        SwitchBed {
            tb,
            client,
            sizes: vec![jpg.size, css.size],
            steps: 0,
        }
    }

    fn instances(&self) -> impl Iterator<Item = &YodaInstance> {
        let eng = &self.tb.engine;
        self.tb
            .instances
            .iter()
            .map(|&i| eng.node_ref::<YodaInstance>(i))
    }

    fn client(&self) -> &KeepAliveClient {
        self.tb.engine.node_ref::<KeepAliveClient>(self.client)
    }

    /// The client's connection: its local endpoint and ISNs.
    fn conn(&self) -> (Endpoint, SeqNum, SeqNum) {
        let c = self.client();
        let sock = c.conn.and_then(|id| c.stack.socket(id)).expect("connected");
        (sock.local(), sock.iss(), sock.irs())
    }

    /// The mux the client leg (client → VIP) hashes to.
    fn client_mux(&self) -> (NodeId, Addr) {
        let (local, ..) = self.conn();
        let mux = rendezvous_pick(local, self.tb.vips[0], &self.tb.mux_addrs).expect("muxes");
        let i = self.tb.mux_addrs.iter().position(|&a| a == mux);
        (self.tb.muxes[i.expect("a mux of the testbed")], mux)
    }

    /// Steps the engine until `done` holds; returns the steps taken so far.
    fn step_until(&mut self, done: impl Fn(&SwitchBed) -> bool) -> u64 {
        while !done(self) {
            assert!(self.tb.engine.step(), "the engine ran dry");
            self.steps += 1;
        }
        self.steps
    }

    /// A copy of the last pure ACK the client sent before its second
    /// request, arriving late at the client-leg mux (as the router would
    /// hand it over).
    fn replay_client_ack(&mut self) {
        let (local, iss, irs) = self.conn();
        let c = self.client();
        let seg = Segment {
            src_port: local.port,
            dst_port: self.tb.vips[0].port,
            seq: iss + 1 + c.sent[0],
            ack: irs + 1 + c.received,
            flags: Flags::ACK,
            window: 65_535,
            payload: Bytes::new(),
        };
        let (mux, mux_addr) = self.client_mux();
        let outer = seg
            .into_packet(local, self.tb.vips[0])
            .encapsulate(local.addr, mux_addr)
            .expect("a fresh segment has room");
        self.tb
            .engine
            .with_node_ctx::<Mux>(mux, |m, ctx| m.on_packet(ctx, outer));
    }

    /// Both responses exact, one switch, and no failure anywhere means no
    /// TCPStore recovery: no read, no drop of an unknown packet.
    fn assert_switched_cleanly(&self) {
        assert_eq!(
            self.client().responses,
            self.sizes,
            "both responses arrive in order with correct bodies"
        );
        let sum = |f: &dyn Fn(&YodaInstance) -> u64| self.instances().map(f).sum::<u64>();
        assert_eq!(sum(&|i| i.backend_switches), 1, "one content-based switch");
        let gets = sum(&|i| i.store_client().get_latency.len() as u64);
        let (unknown, recoveries) = (sum(&|i| i.dropped_unknown), sum(&|i| i.recoveries));
        assert_eq!(
            (gets, unknown, recoveries),
            (0, 0, 0),
            "(store gets, dropped_unknown, recoveries)"
        );
        // The jpg went to b[0], the css to b[1].
        for b in &self.tb.backends[..2] {
            assert_eq!(self.tb.engine.node_ref::<OriginServer>(*b).requests, 1);
        }
    }
}

#[test]
fn http11_requests_switch_backends_mid_connection() {
    let mut s = SwitchBed::new(false);
    s.tb.engine.run_for(SimTime::from_secs(30));
    s.assert_switched_cleanly();
}

/// The same switch with splice on: both legs ride the mux (the client
/// leg acks-only), so the instance sees the handshake, the two requests
/// and the teardown, and almost nothing else.
#[test]
fn http11_switch_on_a_spliced_flow() {
    let mut s = SwitchBed::new(true);
    s.tb.engine.run_for(SimTime::from_secs(30));
    s.assert_switched_cleanly();
    let mux = |&m| s.tb.engine.node_ref::<Mux>(m);
    let spliced: u64 = s.tb.muxes.iter().map(|m| mux(m).spliced).sum();
    assert!(spliced > 0, "nothing rode the fast path");
    let tunneled: u64 = s.instances().map(|i| i.tunneled_packets).sum();
    assert!(tunneled <= 4, "the instance tunnelled {tunneled} packets");
}

/// A client ACK that reaches its mux after the instance began the switch
/// but ahead of the `SpliceRemove` rides the old entry to the old backend
/// — translated exactly as the instance would have translated it, and
/// ahead of the RST the instance sends that backend after its pipeline
/// delay. It must not cost a recovery. Replayed at both ends of that
/// window: the step that began the switch, and the last step before the
/// mux drops the entry.
#[test]
fn http11_switch_ack_racing_the_splice_remove_costs_no_recovery() {
    let mut probe = SwitchBed::new(true);
    let begun = probe.step_until(|s| s.instances().map(|i| i.backend_switches).sum::<u64>() == 1);
    let (mux, _) = probe.client_mux();
    let entries = |s: &SwitchBed| s.tb.engine.node_ref::<Mux>(mux).splice_entries();
    let spliced = |s: &SwitchBed| s.tb.engine.node_ref::<Mux>(mux).spliced;
    let installed = entries(&probe);
    assert!(installed > 0, "no client-leg entry to race");
    let removed = probe.step_until(|s| entries(s) < installed);
    for at in [begun, removed - 1] {
        let mut s = SwitchBed::new(true);
        s.step_until(|s| s.steps == at);
        let before = spliced(&s);
        s.replay_client_ack();
        assert_eq!(spliced(&s), before + 1, "the ACK rode the old entry");
        s.tb.engine.run_for(SimTime::from_secs(30));
        s.assert_switched_cleanly();
    }
}

#[test]
fn sticky_sessions_pin_clients_through_the_lb() {
    // Table 3 rule 4: cookie-keyed stickiness, through the full system.
    let mut tb = Testbed::build(TestbedConfig {
        seed: 22,
        num_instances: 2,
        num_stores: 2,
        num_backends: 4,
        num_muxes: 2,
        num_services: 1,
        pages_per_site: 10,
        ..TestbedConfig::default()
    });
    let vip = tb.vips[0];
    let b = tb.service_backends[0].clone();
    let rules = format!(
        "name=ck priority=2 match cookie=session action=sticky session {}=0 {}=0 {}=0",
        b[0], b[1], b[2]
    )
    .replace("=0", "");
    tb.set_policy_at(vip, &rules, SimTime::from_millis(500));
    tb.engine.run_for(SimTime::from_secs(1));
    let browser = tb.add_browser(
        0,
        yoda::http::BrowserConfig {
            processes: 1,
            max_pages: Some(4),
            session_cookie: true,
            ..yoda::http::BrowserConfig::default()
        },
    );
    tb.engine.run_for(SimTime::from_secs(120));
    let bnode = tb.engine.node_ref::<yoda::http::BrowserClient>(browser);
    assert_eq!(bnode.pages_completed, 4);
    assert_eq!(bnode.broken_flows, 0);
    // All requests of this single session landed on exactly one backend.
    let served: Vec<u64> = tb
        .backends
        .iter()
        .map(|&id| tb.engine.node_ref::<OriginServer>(id).requests)
        .collect();
    let nonzero = served.iter().filter(|&&r| r > 0).count();
    assert_eq!(nonzero, 1, "sticky session used one backend: {served:?}");
}

#[test]
fn policy_update_does_not_move_existing_flows() {
    // §5.2: "Packets on existing connections continue to be forwarded to
    // their prior assigned server". Start a long download, then change the
    // policy to point at a different backend; the download finishes from
    // the original backend.
    let mut tb = Testbed::build(TestbedConfig {
        seed: 23,
        num_instances: 2,
        num_stores: 2,
        num_backends: 2,
        num_muxes: 2,
        num_services: 1,
        pages_per_site: 10,
        ..TestbedConfig::default()
    });
    let vip = tb.vips[0];
    let b = tb.service_backends[0].clone();
    let largest = tb
        .catalog
        .site(0)
        .objects
        .iter()
        .max_by_key(|o| o.size)
        .map(|o| o.path.clone())
        .expect("objects");
    tb.set_policy_at(
        vip,
        &format!("name=r priority=1 match * action=split {}=1", b[0]),
        SimTime::from_millis(500),
    );
    tb.engine.run_for(SimTime::from_secs(1));
    let browser = tb.add_browser(
        0,
        yoda::http::BrowserConfig {
            processes: 1,
            max_pages: Some(1),
            fixed_object: Some(largest),
            // The whole download is one request on one connection.
            ..yoda::http::BrowserConfig::default()
        },
    );
    // Mid-download, repoint the service at backend 1.
    let p2 = format!("name=r priority=1 match * action=split {}=1", b[1]);
    tb.set_policy_at(vip, &p2, SimTime::from_millis(2500));
    tb.engine.run_for(SimTime::from_secs(60));
    let bn = tb.engine.node_ref::<yoda::http::BrowserClient>(browser);
    assert_eq!(bn.completed, 1);
    assert_eq!(bn.broken_flows, 0);
    // Only the original backend served anything.
    assert!(tb.engine.node_ref::<OriginServer>(tb.backends[0]).requests == 1);
    assert_eq!(
        tb.engine.node_ref::<OriginServer>(tb.backends[1]).requests,
        0
    );
}

#[test]
fn deterministic_replay() {
    // The whole stack is deterministic: same seed, same outcome counters.
    let run = || {
        let mut tb = Testbed::build(TestbedConfig {
            seed: 99,
            num_instances: 3,
            num_stores: 2,
            num_backends: 4,
            num_muxes: 2,
            num_services: 2,
            pages_per_site: 10,
            ..TestbedConfig::default()
        });
        let browser = tb.add_browser(
            0,
            yoda::http::BrowserConfig {
                processes: 3,
                max_pages: Some(2),
                ..yoda::http::BrowserConfig::default()
            },
        );
        tb.fail_instance_at(0, SimTime::from_secs(2));
        tb.engine.run_for(SimTime::from_secs(60));
        let b = tb.engine.node_mut::<yoda::http::BrowserClient>(browser);
        (
            b.completed,
            b.pages_completed,
            b.request_latencies.median(),
            tb.engine.packets_sent(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn mirror_action_races_backends_and_serves_one_response() {
    // §5.2 "Sending the same request to multiple servers": the request
    // fans out to every mirror target; the first response wins and the
    // others are cut loose with RSTs. Plain HTTP over three mirrors: every
    // backend gets every request. SSL over two, one of them 200× slow: the
    // fast one must be able to win even when the slow one is the stored
    // backend — the tunnel starts after the certificate, and that is
    // where a racer's stream splices in.
    for ssl in [false, true] {
        let mut tb = Testbed::build(TestbedConfig {
            seed: 31,
            num_instances: 2,
            num_stores: 2,
            num_backends: 3,
            num_muxes: 2,
            num_services: 1,
            pages_per_site: 10,
            ..TestbedConfig::default()
        });
        let vip = tb.vips[0];
        let (mirrors, fetches) = if ssl { (2, 4) } else { (3, 3) };
        let targets: Vec<String> = tb.service_backends[0][..mirrors]
            .iter()
            .map(ToString::to_string)
            .collect();
        let rules = format!(
            "name=mirror priority=2 match * action=mirror {}",
            targets.join(" ")
        );
        if ssl {
            tb.set_ssl_policy_at(vip, &rules, 3000, SimTime::from_millis(500));
            tb.slowdown_backend_at(0, 200.0, SimTime::ZERO);
        } else {
            tb.set_policy_at(vip, &rules, SimTime::from_millis(500));
        }
        tb.engine.run_for(SimTime::from_secs(1));
        let obj = tb
            .catalog
            .site(0)
            .objects
            .iter()
            .min_by_key(|o| (o.size as i64 - 10 * 1024).abs())
            .map(|o| o.path.clone())
            .expect("objects");
        let browser = tb.add_browser(
            0,
            yoda::http::BrowserConfig {
                processes: 1,
                max_pages: Some(fetches),
                fixed_object: Some(obj),
                tls: ssl,
                ..yoda::http::BrowserConfig::default()
            },
        );
        tb.engine.run_for(SimTime::from_secs(60));
        let bn = tb.engine.node_ref::<yoda::http::BrowserClient>(browser);
        assert_eq!(bn.completed, fetches, "ssl={ssl}: each fetch served once");
        assert_eq!(bn.broken_flows, 0, "ssl={ssl}");
        assert_eq!(bn.resets, 0, "ssl={ssl}: the client never sees the losers");
        let switches: u64 = tb
            .instances
            .iter()
            .map(|&id| tb.engine.node_ref::<YodaInstance>(id).backend_switches)
            .sum();
        if ssl {
            assert!(switches > 0, "a racer never beat the slow stored backend");
        } else {
            // Every backend received each mirrored request.
            let total_served: u64 = tb.backends[..3]
                .iter()
                .map(|&id| tb.engine.node_ref::<OriginServer>(id).requests)
                .sum();
            assert_eq!(total_served, 9, "3 fetches x 3 mirror targets");
        }
    }
}

#[test]
fn ssl_termination_and_cert_resend_across_failover() {
    // §5.2 SSL support: the LB serves the certificate; "on failure during
    // certificate transfer, another YODA instance resends the entire
    // certificate (TCP buffer at the client will remove duplicate
    // packets)". Sweep the instance-kill time across the handshake,
    // certificate transfer, and data phases.
    for fail_ms in [1030u64, 1060, 1090, 1120, 1200, 1500, 2500] {
        let mut tb = Testbed::build(TestbedConfig {
            seed: 41,
            num_instances: 2,
            num_stores: 2,
            num_backends: 4,
            num_muxes: 2,
            num_services: 1,
            pages_per_site: 10,
            ..TestbedConfig::default()
        });
        let vip = tb.vips[0];
        let rules = tb.equal_split_rules(0);
        tb.set_ssl_policy_at(vip, &rules, 3000, SimTime::from_millis(500));
        tb.engine.run_for(SimTime::from_secs(1));
        let browser = tb.add_browser(
            0,
            yoda::http::BrowserConfig {
                processes: 2,
                max_pages: Some(2),
                tls: true,
                http_timeout: SimTime::from_secs(30),
                ..yoda::http::BrowserConfig::default()
            },
        );
        tb.fail_instance_at(0, SimTime::from_millis(fail_ms));
        tb.engine.run_for(SimTime::from_secs(120));
        let b = tb.engine.node_ref::<yoda::http::BrowserClient>(browser);
        assert_eq!(
            b.broken_flows, 0,
            "TLS flow broke with failure at {fail_ms} ms"
        );
        assert_eq!(b.pages_completed, 4, "failure at {fail_ms} ms");
        assert_eq!(b.timeouts, 0, "failure at {fail_ms} ms");
    }
}

#[test]
fn vip_addition_and_removal_at_runtime() {
    // §5.2 "VIP addition and removal": a new service comes online while
    // others serve traffic; later it is removed (reverse order of
    // addition) and its traffic stops cleanly.
    let mut tb = Testbed::build(TestbedConfig {
        seed: 51,
        num_instances: 2,
        num_stores: 2,
        num_backends: 4,
        num_muxes: 2,
        num_services: 2,
        pages_per_site: 10,
        ..TestbedConfig::default()
    });
    // Remove service 1's VIP before anything runs; re-add it at t=5 s.
    let vip1 = tb.vips[1];
    let controller = tb.controller;
    tb.engine.schedule(SimTime::from_millis(600), move |eng| {
        eng.with_node_ctx::<yoda::core::Controller>(controller, move |c, ctx| {
            c.remove_vip(ctx, vip1);
        });
    });
    let rules1 = tb.equal_split_rules(1);
    tb.set_policy_at(vip1, &rules1, SimTime::from_secs(5));
    tb.engine.run_for(SimTime::from_secs(1));

    // Browser for service 0 (always up) and service 1 (initially absent).
    let b0 = tb.add_browser(
        0,
        yoda::http::BrowserConfig {
            processes: 2,
            max_pages: Some(3),
            ..yoda::http::BrowserConfig::default()
        },
    );
    let b1 = tb.add_browser(
        1,
        yoda::http::BrowserConfig {
            processes: 2,
            max_pages: Some(2),
            http_timeout: SimTime::from_secs(60),
            ..yoda::http::BrowserConfig::default()
        },
    );
    tb.engine.run_for(SimTime::from_secs(180));
    let s0 = tb.engine.node_ref::<yoda::http::BrowserClient>(b0);
    assert_eq!(s0.pages_completed, 6, "service 0 unaffected");
    assert_eq!(s0.broken_flows, 0);
    let s1 = tb.engine.node_ref::<yoda::http::BrowserClient>(b1);
    // Service 1's early SYNs were dropped (VIP absent) but the client's
    // SYN retries land after the VIP is added at t=5 s.
    assert_eq!(s1.pages_completed, 4, "service 1 served after VIP addition");
    assert_eq!(s1.broken_flows, 0);
}
