//! The Memcached-style store server node.
//!
//! A [`StoreServer`] keeps an in-memory key-value map and answers
//! [`StoreRequest`]s after a modelled CPU service time. Utilisation is
//! measured with the same windowed [`ServiceQueue`] model used everywhere,
//! which is what the Figure 11 CPU-utilisation experiment reads.

use bytes::Bytes;
use yoda_netsim::{
    Ctx, Endpoint, FlowTable, Node, Packet, ServiceQueue, SimTime, TimerToken, PROTO_RPC,
};

use crate::proto::{StoreOp, StoreRequest, StoreResponse, StoreStatus};

/// Store server tunables.
///
/// Defaults are calibrated so one server saturates around the paper's
/// ~80K ops/s per server envelope (§7.1): 4 cores × one op per
/// `per_op_service` (50 µs) ≈ 80K ops/s at 100%.
#[derive(Debug, Clone, Copy)]
pub struct StoreServerConfig {
    /// CPU cores.
    pub cores: usize,
    /// CPU time consumed by one operation.
    pub per_op_service: SimTime,
    /// Port the server answers on.
    pub port: u16,
}

impl Default for StoreServerConfig {
    fn default() -> Self {
        StoreServerConfig {
            cores: 4,
            per_op_service: SimTime::from_micros(50),
            port: 11211,
        }
    }
}

/// A single store (Memcached) server.
pub struct StoreServer {
    cfg: StoreServerConfig,
    addr: yoda_netsim::Addr,
    data: FlowTable<Bytes, Bytes>,
    cpu: ServiceQueue,
    /// Service-time multiplier (chaos `NodeSlowdown`): 1.0 = healthy.
    speed_factor: f64,
    /// Total `get` operations served.
    pub gets: u64,
    /// Total `set` operations served.
    pub sets: u64,
    /// Total `delete` operations served.
    pub deletes: u64,
    /// `get` operations that missed.
    pub misses: u64,
}

impl StoreServer {
    /// Creates a server bound to `addr`.
    pub fn new(cfg: StoreServerConfig, addr: yoda_netsim::Addr) -> Self {
        StoreServer {
            cfg,
            addr,
            data: FlowTable::new(),
            cpu: ServiceQueue::new(cfg.cores),
            speed_factor: 1.0,
            gets: 0,
            sets: 0,
            deletes: 0,
            misses: 0,
        }
    }

    /// Number of keys currently stored.
    pub fn keys(&self) -> usize {
        self.data.len()
    }

    /// Total operations processed.
    pub fn total_ops(&self) -> u64 {
        self.gets + self.sets + self.deletes
    }

    /// CPU utilisation since the last window reset.
    pub fn cpu_utilization(&self, now: SimTime) -> f64 {
        self.cpu.utilization(now)
    }

    /// Starts a new CPU measurement window.
    pub fn reset_window(&mut self, now: SimTime) {
        self.cpu.reset_window(now);
    }

    /// Scales per-op service time by `f` (e.g. `10.0` = a browning-out
    /// server answering 10x slower). Applies to ops arriving after the
    /// call, so chaos scenarios can degrade and heal a store mid-run.
    pub fn set_speed_factor(&mut self, f: f64) {
        self.speed_factor = f.max(0.0);
    }

    /// The current service-time multiplier.
    pub fn speed_factor(&self) -> f64 {
        self.speed_factor
    }
}

impl Node for StoreServer {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        if pkt.protocol == yoda_netsim::PROTO_PING {
            // Health-monitor ping (paper §6): echo it back.
            let reply = Packet::new(pkt.dst, pkt.src, pkt.protocol, pkt.payload.clone());
            ctx.send(reply);
            return;
        }
        if pkt.protocol != PROTO_RPC {
            return;
        }
        let Some(req) = StoreRequest::decode(&pkt.payload) else {
            return;
        };
        let status;
        let value;
        match req.op {
            StoreOp::Get => {
                self.gets += 1;
                match self.data.get(&req.key) {
                    Some(v) => {
                        status = StoreStatus::Ok;
                        value = v.clone();
                    }
                    None => {
                        self.misses += 1;
                        status = StoreStatus::Miss;
                        value = Bytes::new();
                    }
                }
            }
            StoreOp::Set => {
                self.sets += 1;
                self.data.insert(req.key.clone(), req.value.clone());
                status = StoreStatus::Ok;
                value = Bytes::new();
            }
            StoreOp::Delete => {
                self.deletes += 1;
                let existed = self.data.remove(&req.key).is_some();
                status = if existed {
                    StoreStatus::Ok
                } else {
                    StoreStatus::Miss
                };
                value = Bytes::new();
            }
        }
        // CPU model: the reply leaves once a core has processed the op.
        let affinity = ctx.node_rng().gen_range(0..self.cfg.cores as u64);
        let service = SimTime::from_micros(
            (self.cfg.per_op_service.as_micros() as f64 * self.speed_factor) as u64,
        );
        let done = self.cpu.submit(ctx.now(), service, affinity);
        let delay = done.saturating_sub(ctx.now());
        let resp = StoreResponse {
            req_id: req.req_id,
            op: req.op,
            status,
            value,
        };
        let me = Endpoint::new(self.addr, self.cfg.port);
        ctx.send_after(delay, resp.into_packet(me, pkt.src));
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: TimerToken) {}
}


#[cfg(test)]
mod tests {
    use super::*;
    use yoda_netsim::{Addr, Engine, Topology, Zone};

    /// Minimal driver node that fires raw store requests and collects
    /// responses.
    struct Driver {
        target: Endpoint,
        script: Vec<StoreRequest>,
        responses: Vec<StoreResponse>,
        me: Endpoint,
    }
    impl Node for Driver {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for req in self.script.drain(..) {
                ctx.send(req.into_packet(self.me, self.target));
            }
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, pkt: Packet) {
            if let Some(resp) = StoreResponse::decode(&pkt.payload) {
                self.responses.push(resp);
            }
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: TimerToken) {}
    }

    fn req(id: u64, op: StoreOp, key: &'static [u8], value: &'static [u8]) -> StoreRequest {
        StoreRequest {
            req_id: id,
            op,
            key: Bytes::from_static(key),
            value: Bytes::from_static(value),
        }
    }

    #[test]
    fn set_get_delete_lifecycle() {
        let mut eng = Engine::with_topology(1, Topology::uniform(SimTime::from_micros(250)));
        let store_addr = Addr::new(10, 0, 1, 1);
        let store_id = eng.add_node(
            "store",
            store_addr,
            Zone::Dc,
            Box::new(StoreServer::new(StoreServerConfig::default(), store_addr)),
        );
        let me = Endpoint::new(Addr::new(10, 0, 0, 1), 9000);
        let driver_id = eng.add_node(
            "driver",
            me.addr,
            Zone::Dc,
            Box::new(Driver {
                target: Endpoint::new(store_addr, 11211),
                script: vec![
                    req(1, StoreOp::Set, b"k", b"v1"),
                    req(2, StoreOp::Get, b"k", b""),
                    req(3, StoreOp::Delete, b"k", b""),
                    req(4, StoreOp::Get, b"k", b""),
                ],
                responses: Vec::new(),
                me,
            }),
        );
        eng.run_for(SimTime::from_millis(100));
        let d = eng.node_ref::<Driver>(driver_id);
        assert_eq!(d.responses.len(), 4);
        let by_id: std::collections::BTreeMap<u64, &StoreResponse> =
            d.responses.iter().map(|r| (r.req_id, r)).collect();
        assert_eq!(by_id[&1].status, StoreStatus::Ok);
        assert_eq!(by_id[&2].status, StoreStatus::Ok);
        assert_eq!(&by_id[&2].value[..], b"v1");
        assert_eq!(by_id[&3].status, StoreStatus::Ok);
        assert_eq!(by_id[&4].status, StoreStatus::Miss);
        let s = eng.node_ref::<StoreServer>(store_id);
        assert_eq!(s.total_ops(), 4);
        assert_eq!(s.misses, 1);
        assert_eq!(s.keys(), 0);
    }

    #[test]
    fn cpu_model_accumulates_utilization() {
        let mut eng = Engine::with_topology(1, Topology::uniform(SimTime::from_micros(250)));
        let store_addr = Addr::new(10, 0, 1, 1);
        let store_id = eng.add_node(
            "store",
            store_addr,
            Zone::Dc,
            Box::new(StoreServer::new(StoreServerConfig::default(), store_addr)),
        );
        let me = Endpoint::new(Addr::new(10, 0, 0, 1), 9000);
        let script: Vec<StoreRequest> = (0..1000)
            .map(|i| StoreRequest {
                req_id: i,
                op: StoreOp::Set,
                key: Bytes::from(format!("key-{i}")),
                value: Bytes::from_static(b"x"),
            })
            .collect();
        eng.add_node(
            "driver",
            me.addr,
            Zone::Dc,
            Box::new(Driver {
                target: Endpoint::new(store_addr, 11211),
                script,
                responses: Vec::new(),
                me,
            }),
        );
        eng.run_for(SimTime::from_millis(50));
        let s = eng.node_ref::<StoreServer>(store_id);
        assert_eq!(s.sets, 1000);
        // 1000 ops * 50 us = 50 ms CPU over a 50 ms window on 4 cores = 25%.
        let util = s.cpu_utilization(SimTime::from_millis(50));
        assert!(util > 0.15 && util < 0.40, "util {util}");
    }
}
