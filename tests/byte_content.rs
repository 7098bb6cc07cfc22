//! The byte-content oracle: every body byte a client receives is the
//! catalog's byte at that offset. The catalog filler is position-dependent
//! (`filler_byte(i) = i % 251`), so a byte that arrives shifted,
//! duplicated or dropped — a segment view cut one byte off, a sequence
//! translation off by one — fails here even when every count is right.
//!
//! A raw client (a `TcpStack` and one HTTP/1.0 GET per connection) fetches
//! objects from the smallest to the largest through the Yoda tunnel, with
//! mux splicing on, through the proxy tier, and once across the death of
//! the instance serving the response, which a surviving instance recovers
//! from TCPStore mid-body. Each response is compared byte for byte with
//! `SiteCatalog::body(size)`.

use yoda::core::{Testbed, TestbedConfig, Tier};
use yoda::core::{YodaConfig, YodaInstance};
use yoda::http::{parse_response_head, HttpRequest, SiteCatalog};
use yoda::l4lb::rendezvous_pick;
use yoda::netsim::{Addr, Bytes, Ctx, Endpoint, Node, NodeId, Packet, SimTime, TimerToken, Zone};
use yoda::tcp::{ConnId, TcpEvent, TcpStack, TCP_TIMER_KIND};

/// The getter's own timer: start the first fetch.
const START_KIND: u32 = 0xB0D7;

/// Fetches `todo` one connection after another and keeps every response
/// whole.
struct Getter {
    stack: TcpStack,
    me: Addr,
    vip: Endpoint,
    host: String,
    /// Paths still to fetch, last first.
    todo: Vec<String>,
    /// The fetch in progress: its connection, path and bytes so far.
    current: Option<(ConnId, String, Vec<u8>)>,
    rx: Vec<Bytes>,
    /// `(path, every byte of the response)` per finished fetch.
    done: Vec<(String, Vec<u8>)>,
}

impl Getter {
    fn new(me: Addr, vip: Endpoint, host: &str, mut paths: Vec<String>) -> Getter {
        paths.reverse();
        Getter {
            stack: TcpStack::new(),
            me,
            vip,
            host: host.to_string(),
            todo: paths,
            current: None,
            rx: Vec::new(),
            done: Vec::new(),
        }
    }

    fn next(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(path) = self.todo.pop() {
            let local = Endpoint::new(self.me, self.stack.ephemeral_port());
            let conn = self.stack.connect(ctx, local, self.vip);
            self.current = Some((conn, path, Vec::new()));
        }
    }

    /// Bytes received so far on the fetch in progress.
    fn receiving(&self) -> usize {
        self.current.as_ref().map_or(0, |(_, _, buf)| buf.len())
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, events: impl IntoIterator<Item = TcpEvent>) {
        for ev in events {
            let Some((conn, path, buf)) = self.current.as_mut() else {
                return;
            };
            if ev.conn() != *conn {
                continue;
            }
            // Whatever the event, read what is pending first: the data a
            // closing segment carried is reported with its close.
            self.stack.recv(*conn, &mut self.rx);
            for part in self.rx.drain(..) {
                buf.extend_from_slice(&part);
            }
            match ev {
                TcpEvent::Connected(c) => {
                    let req = HttpRequest::get(path.as_str()).with_header("Host", &self.host);
                    self.stack.send(ctx, c, req.encode());
                }
                TcpEvent::Data(_) | TcpEvent::Incoming(..) => {}
                TcpEvent::PeerClosed(c) | TcpEvent::Closed(c) | TcpEvent::Reset(c) => {
                    self.stack.close(ctx, c);
                    if let Some((_, path, buf)) = self.current.take() {
                        self.done.push((path, buf));
                    }
                    self.next(ctx);
                }
            }
        }
    }
}

impl Node for Getter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimTime::from_millis(1), TimerToken::new(START_KIND));
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let events = self.stack.on_packet(ctx, pkt);
        self.handle(ctx, events);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        match token.kind {
            TCP_TIMER_KIND => {
                let events = self.stack.on_timer(ctx, token);
                self.handle(ctx, events);
            }
            START_KIND => self.next(ctx),
            _ => {}
        }
    }
}

/// Checks one response against the catalog: status 200, the object's
/// `Content-Length`, and exactly the object's bytes after the head.
fn check_response(catalog: &SiteCatalog, path: &str, response: &[u8]) {
    let (_, obj) = catalog.lookup(path).expect("a catalog path");
    let (head, head_len, length) = parse_response_head(response)
        .unwrap_or_else(|| panic!("{path}: no response head in {} bytes", response.len()));
    assert_eq!((head.status, length), (200, obj.size), "{path}");
    let (got, want) = (&response[head_len..], catalog.body(obj.size));
    if let Some(at) = (0..got.len().min(want.len())).find(|&i| got[i] != want[i]) {
        panic!(
            "{path}: body byte {at} of {} is {:#04x}, the catalog's is {:#04x}",
            want.len(),
            got[at],
            want[at]
        );
    }
    assert_eq!(got.len(), want.len(), "{path}: body length");
}

/// A bed of three instances (or proxies), and the paths the getter asks
/// for: site 0's two smallest and two largest objects, its median one
/// and its quartiles.
fn bed(splice: Option<bool>) -> (Testbed, Vec<String>) {
    let cfg = TestbedConfig {
        seed: 31,
        num_instances: 3,
        num_stores: 2,
        num_backends: 2,
        num_muxes: 2,
        num_services: 1,
        pages_per_site: 12,
        yoda: YodaConfig {
            splice: splice.unwrap_or(false),
            ..YodaConfig::default()
        },
        ..TestbedConfig::default()
    };
    let mut tb = match splice {
        Some(_) => Testbed::build(cfg),
        None => Testbed::build_with(cfg, Tier::proxy()),
    };
    tb.engine.run_for(SimTime::from_secs(1));
    let mut objects: Vec<(usize, String)> = tb
        .catalog
        .site(0)
        .objects
        .iter()
        .map(|o| (o.size, o.path.clone()))
        .collect();
    objects.sort();
    let n = objects.len();
    let paths = [0, 1, n / 4, n / 2, 3 * n / 4, n - 2, n - 1]
        .iter()
        .map(|&i| objects[i].1.clone())
        .collect();
    (tb, paths)
}

/// Adds the getter for `paths`, at `me`, on the VIP of service 0.
fn add_getter(tb: &mut Testbed, me: Addr, paths: Vec<String>) -> NodeId {
    let (vip, host) = (tb.vips[0], tb.catalog.site(0).host.clone());
    let getter = Getter::new(me, vip, &host, paths);
    tb.engine
        .add_node("getter", me, Zone::External, Box::new(getter))
}

/// Fetches every path through the bed and checks every byte.
fn fetch_all(splice: Option<bool>) {
    let (mut tb, paths) = bed(splice);
    let getter = add_getter(&mut tb, Addr::new(172, 16, 7, 1), paths.clone());
    tb.engine.run_for(SimTime::from_secs(60));
    let g = tb.engine.node_ref::<Getter>(getter);
    assert_eq!(
        g.done.len(),
        paths.len(),
        "splice={splice:?}: every fetch ended"
    );
    for (path, response) in &g.done {
        check_response(&tb.catalog, path, response);
    }
    let splices: u64 = tb
        .instances
        .iter()
        .filter_map(|&id| tb.engine.try_node_ref::<YodaInstance>(id))
        .map(|y| y.splices_installed)
        .sum();
    assert_eq!(splices > 0, splice == Some(true), "the side under test ran");
}

#[test]
fn tunneled_bodies_arrive_byte_exact() {
    fetch_all(Some(false));
}

#[test]
fn spliced_bodies_arrive_byte_exact() {
    fetch_all(Some(true));
}

#[test]
fn proxied_bodies_arrive_byte_exact() {
    fetch_all(None);
}

/// The instance tunneling site 0's largest response (≈ 430 KB) dies a
/// third of the way into it; the mux re-steers the flow to a survivor,
/// which rebuilds it from TCPStore and tunnels the rest with the
/// recovered translation.
#[test]
fn a_body_recovered_mid_response_arrives_byte_exact() {
    let (mut tb, paths) = bed(Some(false));
    let largest = paths.last().cloned().expect("paths");
    let size = tb
        .catalog
        .lookup(&largest)
        .map(|(_, o)| o.size)
        .expect("size");
    let getter = add_getter(&mut tb, Addr::new(172, 16, 7, 2), vec![largest.clone()]);
    let mut waited = 0;
    while tb.engine.node_ref::<Getter>(getter).receiving() < size / 3 {
        tb.engine.run_for(SimTime::from_millis(2));
        waited += 1;
        assert!(waited < 5_000, "the response never got a third of the way");
    }
    let g = tb.engine.node_ref::<Getter>(getter);
    let (conn, _, _) = g.current.as_ref().expect("mid-response");
    let local = g.stack.socket(*conn).expect("open").local();
    let serving = rendezvous_pick(local, tb.vips[0], &tb.instance_addrs).expect("an instance");
    let i = tb
        .instance_addrs
        .iter()
        .position(|&a| a == serving)
        .expect("an instance");
    let victim = tb.instances[i];
    tb.engine.fail_node(victim);
    tb.engine.run_for(SimTime::from_secs(60));
    let g = tb.engine.node_ref::<Getter>(getter);
    assert_eq!(g.done.len(), 1, "the fetch ended");
    check_response(&tb.catalog, &g.done[0].0, &g.done[0].1);
    let recoveries: u64 = tb
        .instances
        .iter()
        .filter(|&&id| id != victim)
        .map(|&id| tb.engine.node_ref::<YodaInstance>(id).recoveries)
        .sum();
    assert!(recoveries > 0, "a survivor recovered the flow");
}
