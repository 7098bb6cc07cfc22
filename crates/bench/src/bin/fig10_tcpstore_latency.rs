//! Figures 10 & 11: TCPStore operation latency and CPU under load,
//! default Memcached (K=1) vs Yoda's persistent TCPStore (K=2 replicas).
//!
//! The paper issues get/set/delete at increasing rates against 10
//! Memcached servers and finds: (1) median op latency stays well under a
//! millisecond at moderate load (0.75 ms at 40K client-req/s/server),
//! (2) adding a second replica costs <24% extra latency (0.18 ms — the
//! replica ops go out in parallel), and (3) replication doubles server
//! CPU (Figure 11).

use std::collections::HashMap;

use yoda_bench::{f2, print_header, print_kv, Table};
use yoda_netsim::{
    Addr, Bytes, Ctx, Endpoint, Engine, Node, NodeId, Packet, SimTime, TimerToken, Topology, Zone,
};
use yoda_tcpstore::{
    StoreClient, StoreEvent, StoreOp, StoreOutcome, StoreServer, StoreServerConfig, OP_TIMEOUT,
};

const TICK: u32 = 0xA1;

/// Load driver: issues set → get → delete rotations, one op a tick.
/// Rotation r sets key r, gets key r - lag and deletes key r - 2 lag, so
/// a get reads a key whose set went out at least one `OP_TIMEOUT`
/// earlier and whose delete goes out one `OP_TIMEOUT` later, as an
/// instance's recovery read does: it times the hit path. (A delete right
/// behind its get can overtake it on a jittered link.)
struct Driver {
    client: StoreClient,
    tick: SimTime,
    duration: SimTime,
    started: SimTime,
    seq: u64,
    /// Rotations in one `OP_TIMEOUT`, rounded up.
    lag: u64,
    /// Gets answered, and those that found their value.
    gets: u64,
    get_hits: u64,
}

impl Driver {
    fn count(&mut self, ev: Option<StoreEvent>) {
        if let Some(ev) = ev.filter(|ev| ev.op == StoreOp::Get) {
            self.gets += 1;
            self.get_hits += matches!(ev.outcome, StoreOutcome::Value(_)) as u64;
        }
    }
}

impl Node for Driver {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.started = ctx.now();
        ctx.set_timer(self.tick, TimerToken::new(TICK));
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let ev = self.client.on_packet(ctx, &pkt);
        self.count(ev);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        match token.kind {
            k if StoreClient::owns_timer_kind(k) => {
                let ev = self.client.on_timer(ctx, token);
                self.count(ev);
            }
            TICK if ctx.now().saturating_sub(self.started) < self.duration => {
                // Op k of a rotation touches key rotation - k lag; the
                // first `lag` rotations get keys never set.
                let rotation = self.seq / 3;
                let r = rotation.wrapping_sub(self.seq % 3 * self.lag);
                let key = Bytes::from(format!("flow:{r}"));
                match self.seq % 3 {
                    0 => self
                        .client
                        .set(ctx, key, Bytes::from_static(&[7u8; 26]), self.seq),
                    1 => self.client.get(ctx, key, self.seq),
                    _ => self.client.delete(ctx, key, self.seq),
                }
                self.seq += 1;
                ctx.set_timer(self.tick, TimerToken::new(TICK));
            }
            _ => {}
        }
    }
}

/// TCPStore servers in every run.
const SERVERS: usize = 4;
/// Simulated seconds of load per point.
const SECS: u64 = 3;

struct RunOut {
    get_ms: f64,
    /// Share of gets that found their value.
    get_hits: f64,
    set_ms: f64,
    delete_ms: f64,
    cpu: f64,
}

fn run(ops_per_server: f64, replicas: usize) -> RunOut {
    let mut eng = Engine::with_topology(10, Topology::azure_testbed());
    let servers: Vec<Addr> = (1..=SERVERS as u8)
        .map(|i| Addr::new(10, 0, 1, i))
        .collect();
    let server_ids: Vec<NodeId> = servers
        .iter()
        .map(|&s| {
            eng.add_node(
                format!("store-{s}"),
                s,
                Zone::Dc,
                Box::new(StoreServer::new(StoreServerConfig::default(), s)),
            )
        })
        .collect();
    // Client-side op rate, normalized per server; a K-replica op fans
    // out to K servers, so the *server-side* rate is K× this — exactly
    // Figure 11's doubling.
    let total_rate = ops_per_server * SERVERS as f64;
    // Spread over several driver nodes, matching the paper's many Yoda
    // instances as clients.
    let drivers = 4;
    let duration = SimTime::from_secs(SECS);
    let tick = SimTime::from_secs_f64(drivers as f64 / total_rate);
    let lag = OP_TIMEOUT.as_micros().div_ceil(3 * tick.as_micros());
    let mut driver_ids = Vec::new();
    for d in 0..drivers {
        let addr = Addr::new(10, 0, 6, d + 1);
        let me = Endpoint::new(addr, 7000);
        driver_ids.push(eng.add_node(
            format!("driver-{d}"),
            addr,
            Zone::Dc,
            Box::new(Driver {
                client: StoreClient::new(replicas, me, &servers),
                tick,
                duration,
                started: SimTime::ZERO,
                seq: d as u64 * 1_000_000,
                lag,
                gets: 0,
                get_hits: 0,
            }),
        ));
    }
    eng.run_for(duration + SimTime::from_secs(1));
    let now = eng.now();
    let cpu: f64 = server_ids
        .iter()
        .map(|&s| eng.node_ref::<StoreServer>(s).cpu_utilization(now))
        .sum::<f64>()
        / SERVERS as f64;
    let mut lat: HashMap<StoreOp, Vec<f64>> = HashMap::new();
    let (mut gets, mut hits) = (0, 0);
    for &d in &driver_ids {
        let drv = eng.node_mut::<Driver>(d);
        gets += drv.gets;
        hits += drv.get_hits;
        for (op, hist) in [
            (StoreOp::Get, &drv.client.get_latency),
            (StoreOp::Set, &drv.client.set_latency),
            (StoreOp::Delete, &drv.client.delete_latency),
        ] {
            lat.entry(op).or_default().extend(hist.samples());
        }
    }
    let med = |op: StoreOp| {
        let mut v = lat.get(&op).cloned().unwrap_or_default();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        if v.is_empty() {
            f64::NAN
        } else {
            v[v.len() / 2]
        }
    };
    RunOut {
        get_ms: med(StoreOp::Get),
        get_hits: hits as f64 / gets.max(1) as f64,
        set_ms: med(StoreOp::Set),
        delete_ms: med(StoreOp::Delete),
        cpu,
    }
}

fn main() {
    print_header(
        "Figure 10 & 11",
        "TCPStore latency and CPU: default Memcached (K=1) vs persistent (K=2)",
    );
    print_kv("store servers", SERVERS);
    print_kv("duration per point (sim s)", SECS);
    let mut lat_table = Table::new(&[
        "client ops/s/server",
        "K",
        "get (ms)",
        "get hits",
        "set (ms)",
        "delete (ms)",
        "CPU",
    ]);
    let mut overhead_at_low: Option<f64> = None;
    for &rate in &[8_000.0, 24_000.0, 36_000.0] {
        let mut set_k1 = 0.0;
        for &k in &[1usize, 2] {
            let out = run(rate, k);
            if k == 1 {
                set_k1 = out.set_ms;
            } else if rate == 8_000.0 {
                overhead_at_low = Some((out.set_ms - set_k1) / set_k1);
            }
            lat_table.row(&[
                format!("{rate:.0}"),
                k.to_string(),
                f2(out.get_ms),
                format!("{:.1}%", out.get_hits * 100.0),
                f2(out.set_ms),
                f2(out.delete_ms),
                format!("{:.0}%", out.cpu * 100.0),
            ]);
        }
    }
    lat_table.print();
    if let Some(oh) = overhead_at_low {
        print_kv(
            "set-latency overhead of K=2 at low load",
            format!("{:.0}%", oh * 100.0),
        );
    }
    print_kv(
        "paper (Fig 10)",
        "median op <1 ms at moderate load; K=2 adds <24% (0.18 ms), ops fan out in parallel",
    );
    print_kv("paper (Fig 11)", "K=2 doubles Memcached CPU vs K=1");
}
