//! The failure sweep's cases: the paper's invariant (§4.3, §6) that with
//! one live instance and a TCPStore quorum **no flow is ever broken**,
//! checked by failing a component at every step of a flow's life.
//!
//! A [`Shape`] is a settled testbed plus one client whose next event
//! starts it. [`Shape::reference`] runs it once, traced, to find each
//! connection's serving instance, client-leg mux, server-leg mux and the
//! store replica a recovery read asks first; then [`Reference::case`]
//! rebuilds the bed, applies a [`Fault`] after k events to the connection
//! open then and runs the client out: every fetch completes, none breaks,
//! and the client's body bytes equal the bytes the backends served.

use std::thread;

use yoda_core::{FlowRecord, YodaConfig, YodaInstance};
use yoda_core::{Testbed, TestbedConfig};
use yoda_http::{BrowserClient, BrowserConfig, OriginServer};
use yoda_l4lb::{rendezvous_pick, Mux};
use yoda_netsim::{Addr, Endpoint, Engine, Fate, NodeId, SimTime, What, Zone};

use super::{Case, Outcome};

/// The client's address (outside 10/8: the instance takes 10.x for
/// backends).
const CLIENT: Addr = Addr::new(172, 16, 1, 1);
/// The SSL shape's certificate length.
const CERT_LEN: u32 = 3000;

/// Builds `cfg`, lets `client` set the bed up and name the browser,
/// settles the control plane for a second, then adds the client (one
/// browser process on service 0) without starting it.
fn bed(
    cfg: TestbedConfig,
    zone: Zone,
    client: impl FnOnce(&mut Testbed) -> BrowserConfig,
) -> (Testbed, NodeId) {
    let mut tb = Testbed::build(cfg);
    let mut browser = BrowserConfig {
        processes: 1,
        site: 0,
        host: "service0.test".to_string(),
        http_timeout: SimTime::from_secs(30),
        ..client(&mut tb)
    };
    if let Some(&vip) = tb.vips.first() {
        browser.target = vip;
    }
    tb.engine.run_for(SimTime::from_secs(1));
    let client = BrowserClient::new(browser, CLIENT, tb.catalog.clone());
    let id = tb.engine.add_node("client", CLIENT, zone, Box::new(client));
    (tb, id)
}

/// A small bed: one service of 10 pages on 4 backends.
pub fn small_bed(seed: u64, stores: usize, muxes: usize, splice: bool) -> TestbedConfig {
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
pub fn largest_object(tb: &Testbed, pages: u64) -> BrowserConfig {
    let site = tb.catalog.site(0);
    let object = site.objects.iter().max_by_key(|o| o.size);
    BrowserConfig {
        max_pages: Some(pages),
        fixed_object: object.map(|o| o.path.clone()),
        ..BrowserConfig::default()
    }
}

/// A flow shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The `bulk_splice` workload on one connection at a time: an in-DC
    /// client fetching the largest object twice with `splice` and
    /// HTTP/1.1 inspection on, so the server leg rides the mux in full
    /// and the client leg acks-only.
    SplicedFetch,
    /// One WAN browser process fetching one whole page, tunneled.
    WanBrowse,
    /// A WAN client fetching the largest object once from an SSL VIP: the
    /// instance serves the certificate before the request (§5.2).
    SslFetch,
}

impl Shape {
    /// Every shape, in the order the sweep runs them.
    pub const ALL: [Shape; 3] = [Shape::SplicedFetch, Shape::WanBrowse, Shape::SslFetch];

    /// The name a case path uses.
    pub fn name(self) -> &'static str {
        match self {
            Shape::SplicedFetch => "spliced-fetch",
            Shape::WanBrowse => "wan-browse",
            Shape::SslFetch => "ssl-fetch",
        }
    }

    /// The name the sweep's summary rows use.
    pub fn title(self) -> &'static str {
        match self {
            Shape::SplicedFetch => "spliced bulk fetch",
            Shape::WanBrowse => "WAN page browse",
            Shape::SslFetch => "SSL fetch",
        }
    }

    fn bed(self) -> (Testbed, NodeId) {
        match self {
            Shape::SplicedFetch => bed(small_bed(13, 3, 3, true), Zone::Dc, |tb| {
                largest_object(tb, 2)
            }),
            Shape::WanBrowse => bed(small_bed(5, 3, 3, false), Zone::External, |_| {
                BrowserConfig {
                    max_pages: Some(1),
                    ..BrowserConfig::default()
                }
            }),
            Shape::SslFetch => bed(small_bed(41, 2, 2, false), Zone::External, |tb| {
                if let Some(&vip) = tb.vips.first() {
                    let rules = tb.equal_split_rules(0);
                    tb.set_ssl_policy_at(vip, &rules, CERT_LEN, SimTime::from_millis(500));
                }
                BrowserConfig {
                    tls: true,
                    ..largest_object(tb, 1)
                }
            }),
        }
    }

    /// Runs the shape once, traced, and reads its connections off the
    /// wire. `Err` says how the fault-free run failed.
    pub fn reference(self) -> Result<Reference, String> {
        let (mut tb, client) = self.bed();
        tb.engine.enable_trace(1 << 20);
        let mut times = Vec::new();
        while !finished(&tb, client) {
            if !tb.engine.step() {
                return Err(format!("{}: the engine ran dry", self.title()));
            }
            times.push(tb.engine.now());
        }
        let eng = &tb.engine;
        let b = (eng.try_node_ref::<BrowserClient>(client)).ok_or("the client is gone")?;
        if b.broken_flows > 0 {
            return Err(format!("{}: the reference broke", self.title()));
        }
        // The spliced shape must take the mux fast path. (A TLS fetch
        // completes only once its certificate is in.)
        let spliced = (tb.muxes.iter()).filter_map(|&m| eng.try_node_ref::<Mux>(m));
        let installs = (tb.instances.iter()).filter_map(|&i| eng.try_node_ref::<YodaInstance>(i));
        let spliced = spliced.map(|m| m.spliced).sum::<u64>();
        let installs = installs.map(|i| i.splices_installed).sum::<u64>();
        if self == Shape::SplicedFetch && (spliced == 0 || installs == 0) {
            return Err(format!("{}: no splice carried traffic", self.title()));
        }
        let vip = (tb.vips.first().copied()).ok_or("no VIP")?;
        let backends = (tb.service_backends.first()).ok_or("no service")?;
        // Each connection's client port, its first step, and its backend
        // (the instance's leg comes from (VIP, client port)).
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
            let to_backend = src.addr == vip.addr && backends.contains(&dst);
            if let Some(leg) = legs.iter_mut().find(|l| to_backend && l.0 == src.port) {
                leg.2.get_or_insert(dst);
            }
        }
        if legs.len() as u64 != b.completed || legs.is_empty() {
            let (n, fetches) = (legs.len(), b.completed);
            return Err(format!(
                "{}: {n} connections for {fetches} fetches",
                self.title()
            ));
        }
        let conns = legs.into_iter().map(|(port, from, backend)| {
            let backend = backend.ok_or("a connection reached no backend")?;
            conn(&tb, vip, Endpoint::new(CLIENT, port), from, backend)
        });
        Ok(Reference {
            shape: self,
            events: times.len() as u64,
            done: tb.engine.now(),
            conns: conns.collect::<Result<_, String>>()?,
        })
    }
}

/// One fault, applied at a step to the connection open then.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Kill the serving instance.
    Instance,
    /// Kill the mux the router picks for the client leg.
    ClientLegMux,
    /// Kill the mux the instance picks for the server leg.
    ServerLegMux,
    /// Kill the first replica of the connection's `flow:` record.
    Replica,
    /// Kill that replica and the serving instance at one step.
    ReplicaAndInstance,
    /// Cut the serving instance's inbound side for one second.
    InstanceInboundCut,
}

impl Fault {
    /// Every fault, in the order the sweep runs them.
    pub const ALL: [Fault; 6] = [
        Fault::Instance,
        Fault::ClientLegMux,
        Fault::ServerLegMux,
        Fault::Replica,
        Fault::ReplicaAndInstance,
        Fault::InstanceInboundCut,
    ];

    /// The name a case path uses.
    pub fn name(self) -> &'static str {
        match self {
            Fault::Instance => "instance",
            Fault::ClientLegMux => "client-mux",
            Fault::ServerLegMux => "server-mux",
            Fault::Replica => "replica",
            Fault::ReplicaAndInstance => "replica-instance",
            Fault::InstanceInboundCut => "inbound-cut",
        }
    }

    /// The name the sweep's summary rows use.
    pub fn title(self) -> &'static str {
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
    pub fn kills_instance(self) -> bool {
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

/// The node at `addr`'s place in `addrs`.
fn member(addr: Addr, addrs: &[Addr], ids: &[NodeId]) -> Option<NodeId> {
    let at = addrs.iter().position(|&a| a == addr)?;
    ids.get(at).copied()
}

/// The rendezvous pick for the pair (a, b) among `addrs`.
fn pick(a: Endpoint, b: Endpoint, addrs: &[Addr], ids: &[NodeId]) -> Option<NodeId> {
    member(rendezvous_pick(a, b, addrs)?, addrs, ids)
}

/// The nodes the connection from `client` to `vip`, served by `backend`,
/// relies on.
fn conn(
    tb: &Testbed,
    vip: Endpoint,
    client: Endpoint,
    from: u64,
    backend: Endpoint,
) -> Result<Conn, String> {
    let none = || format!("no node for the connection from {client}");
    let instance = pick(client, vip, &tb.instance_addrs, &tb.instances).ok_or_else(none)?;
    let yoda = (tb.engine.try_node_ref::<YodaInstance>(instance)).ok_or_else(none)?;
    let mut replicas = Vec::new();
    let k = YodaConfig::default().store_replicas;
    let key = FlowRecord::key(client, vip);
    yoda.store_client().ring().replicas(&key, k, &mut replicas);
    let server_leg = Endpoint::new(vip.addr, client.port);
    let first = replicas.first().ok_or_else(none)?;
    Ok(Conn {
        from,
        instance,
        client_mux: pick(client, vip, &tb.mux_addrs, &tb.muxes).ok_or_else(none)?,
        server_mux: pick(backend, server_leg, &tb.mux_addrs, &tb.muxes).ok_or_else(none)?,
        replica: member(*first, &tb.store_addrs, &tb.stores).ok_or_else(none)?,
    })
}

/// The fault-free run of a shape.
pub struct Reference {
    shape: Shape,
    /// Events until the client finished.
    pub events: u64,
    /// When the client finished.
    pub done: SimTime,
    conns: Vec<Conn>,
}

/// Whether the client has started and has nothing left in flight.
fn finished(tb: &Testbed, client: NodeId) -> bool {
    let b = tb.engine.try_node_ref::<BrowserClient>(client);
    b.is_none_or(|b| b.started_fetches > 0 && b.in_flight() == 0)
}

impl Reference {
    /// Applies `fault` after `k` steps of the shape and runs its client
    /// out (or two simulated minutes). The verdict holds when every fetch
    /// completed, none broke, and every byte the backends served reached
    /// the client exactly once.
    pub fn case(&self, fault: Fault, k: u64) -> Outcome {
        let (mut tb, client) = self.shape.bed();
        for _ in 0..k {
            tb.engine.step();
        }
        // The connection open after `k` steps: the last one started by
        // then, or the first.
        let started = self.conns.iter().rev().find(|c| c.from <= k);
        if let Some(conn) = started.or(self.conns.first()) {
            fault.apply(&mut tb.engine, conn);
        }
        let deadline = tb.engine.now() + SimTime::from_secs(120);
        while !finished(&tb, client) && tb.engine.now() <= deadline && tb.engine.step() {}
        let eng = &tb.engine;
        let served: u64 = (tb.backends.iter())
            .filter_map(|&id| eng.try_node_ref::<OriginServer>(id))
            .map(|o| o.bytes_served)
            .sum();
        let name = format!("{}: {} after {k} steps", self.shape.title(), fault.title());
        // One fetch per connection of the reference run.
        let fetches = self.conns.len() as u64;
        let verdict = match eng.try_node_ref::<BrowserClient>(client) {
            None => Err(format!("{name}: the client is gone")),
            Some(b) if (b.completed, b.broken_flows) != (fetches, 0) => Err(format!(
                "{name}: {} of {fetches} fetches completed, {} broken",
                b.completed, b.broken_flows
            )),
            Some(b) if b.body_bytes != served => Err(format!(
                "{name}: body bytes vs bytes served: {} != {served}",
                b.body_bytes
            )),
            Some(_) => Ok(()),
        };
        let recovered = (tb.instances.iter())
            .filter(|&&i| eng.is_alive(i))
            .filter_map(|&i| eng.try_node_ref::<YodaInstance>(i))
            .any(|i| i.recoveries > 0);
        Outcome {
            verdict,
            recovered,
            ..Outcome::at_end(Case::Sweep(self.shape, fault, k), eng)
        }
    }

    /// Every fault at each step of `ks`, fault by fault, in order, on at
    /// most `available_parallelism()` scoped workers.
    pub fn sweep(&self, ks: &[u64]) -> Vec<Outcome> {
        let cases: Vec<(Fault, u64)> = (Fault::ALL.iter())
            .flat_map(|&f| ks.iter().map(move |&k| (f, k)))
            .collect();
        let workers = thread::available_parallelism().map_or(1, |n| n.get());
        // Worker w runs cases w, w + workers, …; the lanes interleave back.
        let lane = |w: usize| -> Vec<Outcome> {
            let mine = cases.iter().skip(w).step_by(workers);
            mine.map(|&(f, k)| self.case(f, k)).collect()
        };
        let mut lanes: Vec<_> = thread::scope(|s| {
            let handles: Vec<_> = (0..workers).map(|w| s.spawn(move || lane(w))).collect();
            let joined = handles.into_iter().map(|h| h.join());
            let lanes = joined.map(|r| r.unwrap_or_else(|e| std::panic::resume_unwind(e)));
            lanes.map(Vec::into_iter).collect()
        });
        (0..cases.len())
            .filter_map(|i| lanes.get_mut(i % workers)?.next())
            .collect()
    }
}
