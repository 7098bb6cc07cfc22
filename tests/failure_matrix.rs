//! Failure sweeps: the paper's invariant (§4.3, §6) that with one live
//! instance and a TCPStore quorum **no flow is ever broken**, checked by
//! failing a component at every step of a flow's life.
//!
//! A shape is a settled testbed plus one client whose next event starts
//! it. [`sweep`] runs a shape once, traced, to find each connection's
//! serving instance, client-leg mux, server-leg mux and the store
//! replicas holding its `flow:` record; then, per fault and per step k,
//! it rebuilds the bed, applies the fault to the connection open after k
//! events and runs the client out: every fetch completes, none breaks,
//! and the client's body bytes equal the bytes the backends served.
//! A backend's death, by contrast, must end its flows quickly
//! ([`backend_failure_terminates_its_flows_quickly`]).

use std::thread;

use yoda::core::make_cert;
use yoda::core::{FlowRecord, YodaConfig, YodaInstance};
use yoda::core::{Testbed, TestbedConfig};
use yoda::http::{BrowserClient, BrowserConfig, OriginServer};
use yoda::l4lb::{rendezvous_pick, Mux};
use yoda::netsim::{
    Addr, Ctx, Endpoint, Engine, Fate, Node, NodeId, Packet, SimTime, TimerToken, What, Zone,
};

/// `yoda-tcp`'s minimum retransmission timeout: a case whose fetches
/// finished this much later than the reference needed one to fire.
const MIN_RTO: SimTime = SimTime::from_millis(300);
/// The client's address (outside 10/8: the instance takes 10.x for
/// backends).
const CLIENT: Addr = Addr::new(172, 16, 1, 1);
/// The SSL shape's certificate length.
const CERT_LEN: u32 = 3000;

/// The sweep's client: a browser, and how many segments opening the
/// certificate reached it.
struct Client {
    browser: BrowserClient,
    cert: Vec<u8>,
    cert_segments: u64,
}

impl Node for Client {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.browser.on_start(ctx);
    }
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        if !pkt.body.is_empty() && self.cert.starts_with(&pkt.body) {
            self.cert_segments += 1;
        }
        self.browser.on_packet(ctx, pkt);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        self.browser.on_timer(ctx, token);
    }
}

/// Builds `cfg`, lets `client` set the bed up and name the browser,
/// settles the control plane for a second, then adds the client (one
/// browser process on service 0) without starting it.
fn bed(
    cfg: TestbedConfig,
    zone: Zone,
    client: impl FnOnce(&mut Testbed) -> BrowserConfig,
) -> (Testbed, NodeId) {
    let mut tb = Testbed::build(cfg);
    let browser = BrowserConfig {
        processes: 1,
        site: 0,
        target: tb.vips[0],
        host: "service0.test".to_string(),
        http_timeout: SimTime::from_secs(30),
        ..client(&mut tb)
    };
    tb.engine.run_for(SimTime::from_secs(1));
    let client = Client {
        browser: BrowserClient::new(browser, CLIENT, tb.catalog.clone()),
        cert: make_cert(CERT_LEN).to_vec(),
        cert_segments: 0,
    };
    let id = tb.engine.add_node("client", CLIENT, zone, Box::new(client));
    (tb, id)
}

/// A small bed: one service of 10 pages on 4 backends.
fn small(seed: u64, stores: usize, muxes: usize, splice: bool) -> TestbedConfig {
    TestbedConfig {
        seed,
        num_instances: 2,
        num_stores: stores,
        num_backends: 4,
        num_muxes: muxes,
        num_services: 1,
        pages_per_site: 10,
        yoda: YodaConfig {
            splice,
            ..YodaConfig::default()
        },
        ..TestbedConfig::default()
    }
}

/// The largest object of service 0, fetched `pages` times.
fn largest(tb: &Testbed, pages: u64) -> BrowserConfig {
    let site = tb.catalog.site(0);
    let object = site.objects.iter().max_by_key(|o| o.size).expect("objects");
    BrowserConfig {
        max_pages: Some(pages),
        fixed_object: Some(object.path.clone()),
        ..BrowserConfig::default()
    }
}

/// The `bulk_splice` shape on one connection at a time: an in-DC client
/// fetching the largest object twice with `splice` and HTTP/1.1
/// inspection on, so the server leg rides the mux in full and the client
/// leg acks-only.
fn spliced_fetch() -> (Testbed, NodeId) {
    bed(small(13, 3, 3, true), Zone::Dc, |tb| largest(tb, 2))
}

/// One WAN browser process fetching one whole page, tunneled.
fn wan_browse() -> (Testbed, NodeId) {
    let page = |_: &mut Testbed| BrowserConfig {
        max_pages: Some(1),
        ..BrowserConfig::default()
    };
    bed(small(5, 3, 3, false), Zone::External, page)
}

/// A WAN client fetching the largest object once from an SSL VIP: the
/// instance serves the certificate before the request (§5.2).
fn ssl_fetch() -> (Testbed, NodeId) {
    let ssl = |tb: &mut Testbed| {
        let (vip, rules) = (tb.vips[0], tb.equal_split_rules(0));
        tb.set_ssl_policy_at(vip, &rules, CERT_LEN, SimTime::from_millis(500));
        BrowserConfig {
            tls: true,
            ..largest(tb, 1)
        }
    };
    bed(small(41, 2, 2, false), Zone::External, ssl)
}

/// A flow shape: its name, its bed, and what its reference run must show
/// beyond a clean finish.
struct Shape {
    name: &'static str,
    bed: fn() -> (Testbed, NodeId),
    shows: fn(&Testbed, &Client),
}

const SHAPES: [Shape; 3] = [
    Shape {
        name: "spliced bulk fetch",
        bed: spliced_fetch,
        shows: |tb, _| {
            let spliced: u64 = tb
                .muxes
                .iter()
                .map(|&m| tb.engine.node_ref::<Mux>(m).spliced)
                .sum();
            let installed: u64 = (tb.instances.iter())
                .map(|&i| tb.engine.node_ref::<YodaInstance>(i).splices_installed)
                .sum();
            assert!(spliced > 0, "no packet took the mux fast path");
            assert!(installed > 0, "no instance installed a splice");
        },
    },
    Shape {
        name: "WAN page browse",
        bed: wan_browse,
        shows: |_, _| {},
    },
    Shape {
        name: "SSL fetch",
        bed: ssl_fetch,
        shows: |_, client| {
            assert!(
                client.cert_segments > 0,
                "no certificate reached the client"
            )
        },
    },
];

/// One fault, applied at a step to the connection open then.
#[derive(Clone, Copy)]
enum Fault {
    Instance,
    ClientLegMux,
    ServerLegMux,
    Replica,
    ReplicaAndInstance,
    InstanceInboundCut,
}

const FAULTS: [Fault; 6] = [
    Fault::Instance,
    Fault::ClientLegMux,
    Fault::ServerLegMux,
    Fault::Replica,
    Fault::ReplicaAndInstance,
    Fault::InstanceInboundCut,
];

impl Fault {
    fn name(self) -> &'static str {
        match self {
            Fault::Instance => "kill serving instance",
            Fault::ClientLegMux => "kill client-leg mux",
            Fault::ServerLegMux => "kill server-leg mux",
            Fault::Replica => "kill flow: replica",
            Fault::ReplicaAndInstance => "kill replica + instance",
            Fault::InstanceInboundCut => "cut instance inbound 1 s",
        }
    }

    /// Whether the serving instance dies: its flows must be recovered
    /// from TCPStore.
    fn kills_instance(self) -> bool {
        matches!(self, Fault::Instance | Fault::ReplicaAndInstance)
    }

    fn apply(self, engine: &mut Engine, c: &Conn) {
        match self {
            Fault::Instance => engine.fail_node(c.instance),
            Fault::ClientLegMux => engine.fail_node(c.client_mux),
            Fault::ServerLegMux => engine.fail_node(c.server_mux),
            Fault::Replica => engine.fail_node(c.replica),
            Fault::ReplicaAndInstance => {
                engine.fail_node(c.replica);
                engine.fail_node(c.instance);
            }
            Fault::InstanceInboundCut => {
                let (id, heal) = (c.instance, engine.now() + SimTime::from_secs(1));
                engine.partition_node_dirs(id, true, false);
                engine.schedule(heal, move |eng| eng.heal_node(id));
            }
        }
    }
}

/// A connection of the reference run and the nodes it relies on.
struct Conn {
    /// The step its client sent its SYN at.
    from: u64,
    /// The mux's pick among the instances.
    instance: NodeId,
    /// The router's pick among the muxes for the client leg.
    client_mux: NodeId,
    /// The instance's pick among the muxes for the server leg.
    server_mux: NodeId,
    /// The first of the stores holding its `flow:` record: the one a
    /// recovery read asks first.
    replica: NodeId,
}

/// The fault-free run of a shape.
struct Reference {
    events: u64,
    done: SimTime,
    fetches: u64,
    conns: Vec<Conn>,
}

impl Reference {
    /// The connection open after `k` steps: the last one started by then,
    /// or the first.
    fn conn_at(&self, k: u64) -> &Conn {
        let started = self.conns.iter().rev().find(|c| c.from <= k);
        started.unwrap_or(&self.conns[0])
    }
}

/// Whether the client has started and has nothing left in flight.
fn finished(tb: &Testbed, client: NodeId) -> bool {
    let b = &tb.engine.node_ref::<Client>(client).browser;
    b.started_fetches > 0 && b.in_flight() == 0
}

/// Runs `shape` once, traced, and reads its connections off the wire.
fn reference(shape: &Shape) -> Reference {
    let (mut tb, client) = (shape.bed)();
    tb.engine.enable_trace(1 << 20);
    let mut times = Vec::new();
    while !finished(&tb, client) {
        assert!(tb.engine.step(), "{}: the engine ran dry", shape.name);
        times.push(tb.engine.now());
    }
    let c = tb.engine.node_ref::<Client>(client);
    let b = &c.browser;
    assert_eq!(b.broken_flows, 0, "{}: the reference broke", shape.name);
    (shape.shows)(&tb, c);
    // Each connection's client port, its first step, and its backend (the
    // instance's leg comes from (VIP, client port)).
    let vip = tb.vips[0];
    let mut legs: Vec<(u16, u64, Option<Endpoint>)> = Vec::new();
    for ev in tb.engine.trace().events() {
        let What::Packet { src, dst, fate, .. } = ev.what else {
            continue;
        };
        if fate != Fate::Sent {
            continue;
        }
        if src.addr == CLIENT && dst == vip && !legs.iter().any(|l| l.0 == src.port) {
            let step = times.partition_point(|&t| t < ev.time) as u64;
            legs.push((src.port, step, None));
        }
        let to_backend = src.addr == vip.addr && tb.service_backends[0].contains(&dst);
        if let Some(leg) = legs.iter_mut().find(|l| to_backend && l.0 == src.port) {
            leg.2.get_or_insert(dst);
        }
    }
    assert_eq!(
        legs.len() as u64,
        b.completed,
        "{}: one connection per fetch",
        shape.name
    );
    let id = |addr, addrs: &[Addr], ids: &[NodeId]| {
        ids[addrs.iter().position(|&a| a == addr).expect("a member")]
    };
    let pick = |a, b, among: &[Addr], ids: &[NodeId]| {
        id(
            rendezvous_pick(a, b, among).expect("candidates"),
            among,
            ids,
        )
    };
    let conns = legs.into_iter().map(|(port, from, backend)| {
        let client = Endpoint::new(CLIENT, port);
        let backend = backend.expect("every connection reached a backend");
        let instance = pick(client, vip, &tb.instance_addrs, &tb.instances);
        let mut replicas = Vec::new();
        let store = tb.engine.node_ref::<YodaInstance>(instance).store_client();
        let k = YodaConfig::default().store_replicas;
        store
            .ring()
            .replicas(&FlowRecord::key(client, vip), k, &mut replicas);
        Conn {
            from,
            instance,
            client_mux: pick(client, vip, &tb.mux_addrs, &tb.muxes),
            server_mux: pick(
                backend,
                Endpoint::new(vip.addr, port),
                &tb.mux_addrs,
                &tb.muxes,
            ),
            replica: id(replicas[0], &tb.store_addrs, &tb.stores),
        }
    });
    Reference {
        events: times.len() as u64,
        done: tb.engine.now(),
        fetches: b.completed,
        conns: conns.collect(),
    }
}

/// Applies `fault` after `k` steps of `shape` and runs its client out
/// (or two simulated minutes): every fetch completes, none breaks, and
/// every byte the backends served reached the client exactly once.
/// Returns how much later than the reference the client finished, and
/// whether an instance recovered a flow from TCPStore.
fn case(shape: &Shape, r: &Reference, fault: Fault, k: u64) -> (SimTime, bool) {
    let (mut tb, client) = (shape.bed)();
    for _ in 0..k {
        assert!(tb.engine.step(), "the engine ran dry");
    }
    fault.apply(&mut tb.engine, r.conn_at(k));
    let deadline = tb.engine.now() + SimTime::from_secs(120);
    while !finished(&tb, client) && tb.engine.now() <= deadline {
        assert!(tb.engine.step(), "the engine ran dry");
    }
    let b = &tb.engine.node_ref::<Client>(client).browser;
    let case = format!("{}: {} after {k} steps", shape.name, fault.name());
    assert_eq!((b.completed, b.broken_flows), (r.fetches, 0), "{case}");
    let served: u64 = (tb.backends.iter())
        .map(|&id| tb.engine.node_ref::<OriginServer>(id).bytes_served)
        .sum();
    assert_eq!(b.body_bytes, served, "{case}: body bytes vs bytes served");
    let recovered = (tb.instances.iter())
        .filter(|&&i| tb.engine.is_alive(i))
        .any(|&i| tb.engine.node_ref::<YodaInstance>(i).recoveries > 0);
    (tb.engine.now().saturating_sub(r.done), recovered)
}

/// `f` over `items` on at most `available_parallelism()` scoped workers,
/// in order. A worker's panic is re-raised here.
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = thread::available_parallelism().map_or(1, |n| n.get());
    let mut out: Vec<(usize, R)> = thread::scope(|s| {
        let f = &f;
        let run = move |w| {
            let mine = items.iter().enumerate().skip(w).step_by(workers);
            mine.map(|(i, item)| (i, f(item))).collect::<Vec<_>>()
        };
        let handles: Vec<_> = (0..workers).map(|w| s.spawn(move || run(w))).collect();
        let joined = handles.into_iter().map(|h| h.join());
        joined
            .flat_map(|r| r.unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    out.sort_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// Applies every fault at each of `points(n)` steps of `shape`, n being
/// its reference run's length in events; returns n and one summary line
/// per fault: its cases, those that finished at least [`MIN_RTO`] late
/// and by how much, and those in which an instance recovered a flow from
/// TCPStore — which a fault that kills the serving instance must cause.
fn sweep(shape: &Shape, points: impl Fn(u64) -> Vec<u64>) -> (u64, Vec<String>) {
    let r = reference(shape);
    let ks = points(r.events);
    let cases: Vec<(Fault, u64)> = FAULTS
        .iter()
        .flat_map(|&f| ks.iter().map(move |&k| (f, k)))
        .collect();
    let outcomes = par_map(&cases, |&(fault, k)| case(shape, &r, fault, k));
    let rows = FAULTS.iter().zip(outcomes.chunks(ks.len()));
    let rows = rows.map(|(&fault, outs)| {
        let row = format!("{} | {}", shape.name, fault.name());
        let recovered = outs.iter().filter(|o| o.1).count();
        let ok = !fault.kills_instance() || recovered > 0;
        assert!(ok, "{row}: no case recovered a flow");
        let mut slips: Vec<SimTime> = outs.iter().map(|o| o.0).filter(|&s| s >= MIN_RTO).collect();
        slips.sort();
        let by = match (slips.first(), slips.last()) {
            (Some(lo), Some(hi)) => {
                format!(" by {:.1}-{:.1} s", lo.as_secs_f64(), hi.as_secs_f64())
            }
            _ => String::new(),
        };
        let (n, late) = (outs.len(), slips.len());
        format!("{row} | {n} cases | {late} slipped{by} | {recovered} recovered")
    });
    (r.events, rows.collect())
}

/// Sweeps `shape` at 24 evenly spaced steps and prints its rows.
fn sweep_24(shape: &Shape) {
    let (n, rows) = sweep(shape, |n| (0..24).map(|i| i * n / 24).collect());
    println!("{}: {n} events", shape.name);
    rows.iter().for_each(|row| println!("{row}"));
}

#[test]
fn the_spliced_bulk_fetch_survives_each_fault_at_24_steps() {
    sweep_24(&SHAPES[0]);
}

#[test]
fn the_wan_page_browse_survives_each_fault_at_24_steps() {
    sweep_24(&SHAPES[1]);
}

#[test]
fn the_ssl_fetch_survives_each_fault_at_24_steps() {
    sweep_24(&SHAPES[2]);
}

/// Every step of every shape, under every fault; the rows are
/// `results/failure_sweep.txt` (`scripts/check.sh` compares them).
#[test]
#[ignore = "the exhaustive sweep: run with --ignored (scripts/check.sh does)"]
fn every_shape_survives_each_fault_at_every_step() {
    let mut cases = 0;
    for shape in &SHAPES {
        let (n, rows) = sweep(shape, |n| (0..n).collect());
        println!("sweep: {}: {n} events", shape.name);
        rows.iter().for_each(|row| println!("sweep: {row}"));
        cases += n * FAULTS.len() as u64;
    }
    println!("sweep: {cases} cases");
}

#[test]
fn backend_failure_terminates_its_flows_quickly() {
    // §5.2: when a backend dies, its connections are terminated (the
    // clients see a reset, not a 30 s hang) and new requests avoid it.
    let mut tb = Testbed::build(small(10, 2, 2, false));
    tb.engine.run_for(SimTime::from_secs(1));
    // Long downloads so flows are mid-flight at the failure.
    let fetch = BrowserConfig {
        processes: 8,
        http_timeout: SimTime::from_secs(30),
        retries: 1,
        ..largest(&tb, 2)
    };
    let browser = tb.add_browser(0, fetch);
    tb.fail_backend_at(0, SimTime::from_millis(2500));
    tb.engine.run_for(SimTime::from_secs(120));
    let b = tb.engine.node_mut::<BrowserClient>(browser);
    // Flows through the dead backend were reset and retried; nothing hung
    // to the HTTP timeout and everything eventually completed.
    assert_eq!(b.timeouts, 0, "no flow may hang to the HTTP timeout");
    assert_eq!(b.broken_flows, 0);
    assert_eq!(b.pages_completed, 16);
    assert!(b.resets > 0, "mid-flight flows got reset notifications");
    assert!(b.request_latencies.max().unwrap_or(0.0) < 25_000.0);
}
