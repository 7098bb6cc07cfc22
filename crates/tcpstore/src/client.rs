//! The replicating Memcached client library (paper §4.3, §6).
//!
//! Embedded in every Yoda instance (and in the benchmark drivers). For
//! each operation the client:
//!
//! 1. selects K replica servers with K hash functions over the consistent
//!    ring (*decentralized server selection* — no directory service),
//! 2. sends the op — `get`, `set` or `delete` — to all K replicas **in
//!    parallel**, in ring order (the paper's optimization that keeps the
//!    2-replica `set` overhead under 24%),
//! 3. completes a `get` on the **first hit** (or as a miss once every
//!    replica has answered), and a `set`/`delete` when every replica has
//!    acknowledged (latency = max of the parallel round-trips).
//!
//! A per-operation timeout handles dead and slow replica servers: the op
//! completes with whatever succeeded, matching the paper's choice not to
//! block flows on a failed Memcached instance. A write is sent once to
//! each replica and never re-sent: a replica that missed it stays without
//! it, and a read still finds the value on another. Any replica's reply
//! can win a read, so one that missed a newer write can answer first with
//! the older value (ROADMAP item 21).

use std::collections::BTreeMap;

use yoda_netsim::{
    Addr, Bytes, Ctx, Endpoint, FlowTable, Histogram, Packet, SimTime, TimerId, TimerToken,
};

use crate::proto::{StoreOp, StoreRequest, StoreResponse, StoreStatus, STORE_PORT};
use crate::ring::HashRing;

/// Timer-token kind reserved for store-client operation timeouts.
pub const STORE_TIMER_KIND: u32 = 0x5709;

/// Per-operation timeout (covers dead servers). Also the yardstick a
/// degraded instance's heal probe must beat to count as "fast".
pub const OP_TIMEOUT: SimTime = SimTime::from_millis(100);

/// Virtual nodes per server on the ring.
const VNODES: usize = 64;

/// Final outcome of an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreOutcome {
    /// `get` hit: the value.
    Value(Bytes),
    /// `get` miss on every replica.
    Miss,
    /// `set`/`delete` acknowledged by `acks` replicas.
    Done {
        /// Number of replicas that acknowledged before completion.
        acks: usize,
    },
    /// No replica answered within the timeout.
    TimedOut,
}

/// A completed operation, delivered to the owning node.
#[derive(Debug, Clone)]
pub struct StoreEvent {
    /// Caller-supplied tag identifying the operation.
    pub tag: u64,
    /// The operation kind.
    pub op: StoreOp,
    /// The key the operation was for.
    pub key: Bytes,
    /// Outcome.
    pub outcome: StoreOutcome,
    /// Operation latency (issue → completion).
    pub latency: SimTime,
}

/// Traffic accounting for one replica server, kept by the client
/// (per-client view — no coordination with other clients).
#[derive(Debug, Clone, Default)]
pub struct ReplicaStat {
    /// Responses received from this replica.
    pub samples: u64,
    /// Ops where this replica never answered by the deadline.
    pub timeouts: u64,
}

struct PendingTarget {
    server: Addr,
    answered: bool,
}

struct PendingOp {
    tag: u64,
    op: StoreOp,
    key: Bytes,
    issued: SimTime,
    /// The replica set in ring order, every one sent the request at issue.
    targets: Vec<PendingTarget>,
    acks: usize,
    hit: Option<Bytes>,
    /// The op deadline, cancelled when the op completes first.
    deadline: TimerId,
}

impl PendingOp {
    fn all_answered(&self) -> bool {
        self.targets.iter().all(|t| t.answered)
    }
}

/// The client library: embed in a node, route RPC packets and timers
/// whose kind passes [`StoreClient::owns_timer_kind`] to it.
pub struct StoreClient {
    /// Replication factor K (paper evaluates K=2; K=1 is "default
    /// Memcached").
    replicas: usize,
    ring: HashRing,
    local: Endpoint,
    pending: FlowTable<u64, PendingOp>,
    /// The ring's answer for the op being issued, in a buffer reused op
    /// after op: a pending op's one allocation is its `targets`.
    replica_buf: Vec<Addr>,
    next_req: u64,
    /// Per-replica traffic stats.
    replica_stats: BTreeMap<Addr, ReplicaStat>,
    /// Latency histograms per op kind (ms), for the Figure 10 experiment.
    pub get_latency: Histogram,
    /// Set latency (ms).
    pub set_latency: Histogram,
    /// Delete latency (ms).
    pub delete_latency: Histogram,
    /// Operations that timed out entirely.
    pub timeouts: u64,
    /// Always 0: every read asks every replica at issue, so none is
    /// hedged. Kept because the frozen `bench_e2e` reads it by name;
    /// ROADMAP item 2(b) removes it with that read.
    pub hedges: u64,
    /// Always 0: the client sends each write once and re-sends none.
    /// Kept because the frozen `bench_e2e` reads it by name; ROADMAP
    /// item 2(b) removes it with that read.
    pub retries: u64,
}

impl StoreClient {
    /// Creates a client for the given store servers that writes every
    /// key to `replicas` of them, sending from `local`.
    pub fn new(replicas: usize, local: Endpoint, servers: &[Addr]) -> Self {
        StoreClient {
            replicas,
            ring: HashRing::new(servers, VNODES),
            local,
            pending: FlowTable::new(),
            replica_buf: Vec::new(),
            next_req: 1,
            replica_stats: BTreeMap::new(),
            get_latency: Histogram::new(),
            set_latency: Histogram::new(),
            delete_latency: Histogram::new(),
            timeouts: 0,
            hedges: 0,
            retries: 0,
        }
    }

    /// The ring (for tests / introspection).
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Per-replica traffic stats.
    pub fn replica_stats(&self) -> &BTreeMap<Addr, ReplicaStat> {
        &self.replica_stats
    }

    /// Whether `kind` is the client's timer kind; owners route matching
    /// [`TimerToken`]s to [`StoreClient::on_timer`].
    pub fn owns_timer_kind(kind: u32) -> bool {
        kind == STORE_TIMER_KIND
    }

    /// Issues a `get`. The result arrives later as a [`StoreEvent`] with
    /// the given `tag`.
    pub fn get(&mut self, ctx: &mut Ctx<'_>, key: Bytes, tag: u64) {
        self.issue(ctx, StoreOp::Get, key, Bytes::new(), tag);
    }

    /// Issues a replicated `set`.
    pub fn set(&mut self, ctx: &mut Ctx<'_>, key: Bytes, value: Bytes, tag: u64) {
        self.issue(ctx, StoreOp::Set, key, value, tag);
    }

    /// Issues a replicated `delete`.
    pub fn delete(&mut self, ctx: &mut Ctx<'_>, key: Bytes, tag: u64) {
        self.issue(ctx, StoreOp::Delete, key, Bytes::new(), tag);
    }

    fn stat(&mut self, server: Addr) -> &mut ReplicaStat {
        self.replica_stats.entry(server).or_default()
    }

    fn issue(&mut self, ctx: &mut Ctx<'_>, op: StoreOp, key: Bytes, value: Bytes, tag: u64) {
        let req_id = self.next_req;
        self.next_req += 1;
        self.ring
            .replicas(&key, self.replicas, &mut self.replica_buf);
        let mut targets = Vec::with_capacity(self.replica_buf.len());
        for &server in &self.replica_buf {
            let req = StoreRequest {
                req_id,
                op,
                key: key.clone(),
                value: value.clone(),
            };
            ctx.send(req.into_packet(self.local, Endpoint::new(server, STORE_PORT)));
            targets.push(PendingTarget {
                server,
                answered: false,
            });
        }
        let deadline = ctx.set_timer(OP_TIMEOUT, TimerToken::new(STORE_TIMER_KIND).with_a(req_id));
        self.pending.insert(
            req_id,
            PendingOp {
                tag,
                op,
                key,
                issued: ctx.now(),
                targets,
                acks: 0,
                hit: None,
                deadline,
            },
        );
    }

    /// Routes an RPC packet; returns the operation it completed, if any.
    pub fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) -> Option<StoreEvent> {
        let resp = pkt.message().and_then(StoreResponse::decode)?;
        let from = pkt.src.addr;
        // A response to an op no longer pending (a late ack after its
        // deadline) is dropped, and so is a duplicate or stray one: the
        // op's accounting already settled that replica.
        let op = self.pending.get_mut(&resp.req_id)?;
        let target = op
            .targets
            .iter_mut()
            .find(|t| t.server == from && !t.answered)?;
        target.answered = true;
        if resp.status == StoreStatus::Ok {
            op.acks += 1;
            if resp.op == StoreOp::Get && op.hit.is_none() {
                op.hit = Some(resp.value.clone());
            }
        }
        let complete = op.hit.is_some() || op.all_answered();
        self.stat(from).samples += 1;
        if !complete {
            return None;
        }
        let op = self.pending.remove(&resp.req_id)?;
        ctx.cancel_timer(op.deadline);
        Some(self.finish(op, ctx.now()))
    }

    /// Handles the client's op deadlines. Returns the operation a
    /// deadline completed (timed out or partially acked), if any.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) -> Option<StoreEvent> {
        debug_assert_eq!(token.kind, STORE_TIMER_KIND, "unexpected timer kind");
        let op = self.pending.remove(&token.a)?;
        // Charge the deadline to every replica that sat silent.
        for t in op.targets.iter().filter(|t| !t.answered) {
            self.stat(t.server).timeouts += 1;
        }
        Some(self.finish(op, ctx.now()))
    }

    fn finish(&mut self, op: PendingOp, now: SimTime) -> StoreEvent {
        let latency = now.saturating_sub(op.issued);
        let outcome = match op.op {
            StoreOp::Get => match op.hit {
                Some(v) => StoreOutcome::Value(v),
                None if op.all_answered() => StoreOutcome::Miss,
                None => StoreOutcome::TimedOut,
            },
            StoreOp::Set | StoreOp::Delete => {
                if op.acks > 0 {
                    StoreOutcome::Done { acks: op.acks }
                } else {
                    StoreOutcome::TimedOut
                }
            }
        };
        if outcome == StoreOutcome::TimedOut {
            self.timeouts += 1;
        } else {
            let hist = match op.op {
                StoreOp::Get => &mut self.get_latency,
                StoreOp::Set => &mut self.set_latency,
                StoreOp::Delete => &mut self.delete_latency,
            };
            hist.record_time_ms(latency);
        }
        StoreEvent {
            tag: op.tag,
            op: op.op,
            key: op.key,
            outcome,
            latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{StoreServer, StoreServerConfig};
    use yoda_netsim::{Addr, Engine, Node, NodeId, Topology, Zone};

    /// `key`'s two replicas, preferred first.
    fn replicas_of(client: &StoreClient, key: &[u8]) -> Vec<Addr> {
        let mut out = Vec::new();
        client.ring().replicas(key, 2, &mut out);
        out
    }

    /// Node embedding a StoreClient and, when `scripted`, running a
    /// scripted sequence: set → get → delete → get.
    struct ClientNode {
        client: StoreClient,
        events: Vec<StoreEvent>,
        scripted: bool,
    }
    impl Node for ClientNode {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if !self.scripted {
                return;
            }
            self.client.set(
                ctx,
                Bytes::from_static(b"flow:a"),
                Bytes::from_static(b"S1"),
                1,
            );
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
            if let Some(ev) = self.client.on_packet(ctx, &pkt) {
                match ev.tag {
                    1 => self.client.get(ctx, Bytes::from_static(b"flow:a"), 2),
                    2 => self.client.delete(ctx, Bytes::from_static(b"flow:a"), 3),
                    3 => self.client.get(ctx, Bytes::from_static(b"flow:a"), 4),
                    _ => {}
                }
                self.events.push(ev);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
            let evs = self.client.on_timer(ctx, token);
            self.events.extend(evs);
        }
    }

    fn build(replicas: usize, num_servers: u8) -> (Engine, NodeId, Vec<NodeId>) {
        let mut eng = Engine::with_topology(11, Topology::uniform(SimTime::from_micros(250)));
        let servers: Vec<Addr> = (1..=num_servers).map(|i| Addr::new(10, 0, 1, i)).collect();
        let mut server_ids = Vec::new();
        for &s in &servers {
            server_ids.push(eng.add_node(
                format!("store-{s}"),
                s,
                Zone::Dc,
                Box::new(StoreServer::new(StoreServerConfig::default(), s)),
            ));
        }
        let me = Endpoint::new(Addr::new(10, 0, 0, 9), 7000);
        let id = eng.add_node(
            "client",
            me.addr,
            Zone::Dc,
            Box::new(ClientNode {
                client: StoreClient::new(replicas, me, &servers),
                events: Vec::new(),
                scripted: true,
            }),
        );
        (eng, id, server_ids)
    }

    #[test]
    fn scripted_lifecycle_with_two_replicas() {
        let (mut eng, id, server_ids) = build(2, 5);
        eng.run_for(SimTime::from_secs(1));
        let node = eng.node_ref::<ClientNode>(id);
        assert_eq!(node.events.len(), 4);
        assert_eq!(node.events[0].outcome, StoreOutcome::Done { acks: 2 });
        assert_eq!(
            node.events[1].outcome,
            StoreOutcome::Value(Bytes::from_static(b"S1"))
        );
        assert_eq!(node.events[2].outcome, StoreOutcome::Done { acks: 2 });
        assert_eq!(node.events[3].outcome, StoreOutcome::Miss);
        // Exactly two servers hold replicas: total sets across servers = 2.
        let total_sets: u64 = server_ids
            .iter()
            .map(|&s| eng.node_ref::<StoreServer>(s).sets)
            .sum();
        assert_eq!(total_sets, 2);
    }

    #[test]
    fn completed_ops_leave_no_timer_behind() {
        let (mut eng, id, _) = build(2, 5);
        eng.run_for(SimTime::from_millis(10));
        assert_eq!(
            eng.node_ref::<ClientNode>(id).events.len(),
            4,
            "all four ops done"
        );
        // Well inside the 100 ms op deadline: each op cancelled its
        // deadline when it completed.
        assert_eq!(eng.timer_backlog(), 0);
    }

    #[test]
    fn get_survives_one_replica_failure() {
        let (mut eng, id, server_ids) = build(2, 3);
        // The scripted client writes a key to both of its replicas.
        eng.schedule(SimTime::from_millis(10), move |eng| {
            eng.with_node_ctx::<ClientNode>(id, |n, ctx| {
                n.client.set(
                    ctx,
                    Bytes::from_static(b"flow:h"),
                    Bytes::from_static(b"H1"),
                    50,
                );
            });
        });
        eng.run_for(SimTime::from_millis(20));
        let (primary, healthy_get) = {
            let node = eng.node_ref::<ClientNode>(id);
            (
                replicas_of(&node.client, b"flow:h")[0],
                node.events[1].latency,
            )
        };
        let victim = *server_ids
            .iter()
            .find(|&&sid| eng.node_name(sid).contains(&primary.to_string()))
            .expect("primary exists");
        eng.fail_node(victim);
        // A fresh client, which knows nothing of either replica, reads it.
        let servers: Vec<Addr> = (1..=3).map(|i| Addr::new(10, 0, 1, i)).collect();
        let me = Endpoint::new(Addr::new(10, 0, 0, 10), 7000);
        let reader = eng.add_node(
            "reader",
            me.addr,
            Zone::Dc,
            Box::new(ClientNode {
                client: StoreClient::new(2, me, &servers),
                events: Vec::new(),
                scripted: false,
            }),
        );
        eng.schedule(SimTime::ZERO, move |eng| {
            eng.with_node_ctx::<ClientNode>(reader, |n, ctx| {
                n.client.get(ctx, Bytes::from_static(b"flow:h"), 51);
            });
        });
        eng.run_for(SimTime::from_millis(50));
        let node = eng.node_ref::<ClientNode>(reader);
        assert_eq!(node.events.len(), 1);
        let ev = &node.events[0];
        // The backup was asked at issue: its value lands one store round
        // trip later, as fast as a get with both replicas alive.
        assert_eq!(ev.outcome, StoreOutcome::Value(Bytes::from_static(b"H1")));
        assert_eq!(ev.latency, healthy_get);
    }

    #[test]
    fn all_servers_dead_times_out() {
        let (mut eng, id, server_ids) = build(2, 3);
        for s in server_ids {
            eng.fail_node(s);
        }
        eng.run_for(SimTime::from_secs(1));
        let node = eng.node_ref::<ClientNode>(id);
        assert_eq!(node.events.len(), 1);
        assert_eq!(node.events[0].outcome, StoreOutcome::TimedOut);
        assert_eq!(node.client.timeouts, 1);
        // The timed-out write leaves nothing behind.
        assert!(node.client.pending.is_empty());
    }

    #[test]
    fn single_replica_mode_uses_one_server() {
        let (mut eng, id, server_ids) = build(1, 5);
        eng.run_for(SimTime::from_secs(1));
        let node = eng.node_ref::<ClientNode>(id);
        assert_eq!(node.events[0].outcome, StoreOutcome::Done { acks: 1 });
        let total_sets: u64 = server_ids
            .iter()
            .map(|&s| eng.node_ref::<StoreServer>(s).sets)
            .sum();
        assert_eq!(total_sets, 1);
    }

    #[test]
    fn partitioned_replica_does_not_inflate_timeout_accounting() {
        // §6 accounting contract: a `TimedOut` outcome (and the `timeouts`
        // counter) means *no* replica answered. While one replica of a key
        // is partitioned, sets still complete `Done { acks: 1 }` at the
        // op deadline — slower, but not a timeout — and after the heal the
        // client returns to fast two-ack completion with the counter still
        // at zero. A partition must not permanently poison the stats.
        let (mut eng, id, server_ids) = build(2, 3);
        // Drain the on_start script first so its events don't interleave.
        eng.run_for(SimTime::from_millis(5));
        let primary = {
            let node = eng.node_ref::<ClientNode>(id);
            replicas_of(&node.client, b"flow:p")[0]
        };
        let victim = *server_ids
            .iter()
            .find(|&&sid| eng.node_name(sid).contains(&primary.to_string()))
            .expect("primary exists");
        eng.partition_node(victim);
        eng.schedule(SimTime::from_millis(10), move |eng| {
            eng.with_node_ctx::<ClientNode>(id, |n, ctx| {
                n.client.set(
                    ctx,
                    Bytes::from_static(b"flow:p"),
                    Bytes::from_static(b"P1"),
                    10,
                );
            });
        });
        eng.run_for(SimTime::from_millis(200));
        eng.heal_node(victim);
        eng.schedule(SimTime::from_millis(10), move |eng| {
            eng.with_node_ctx::<ClientNode>(id, |n, ctx| {
                n.client.set(
                    ctx,
                    Bytes::from_static(b"flow:p"),
                    Bytes::from_static(b"P2"),
                    11,
                );
            });
        });
        eng.run_for(SimTime::from_secs(1));
        eng.schedule(SimTime::ZERO, move |eng| {
            eng.with_node_ctx::<ClientNode>(id, |n, ctx| {
                n.client.get(ctx, Bytes::from_static(b"flow:p"), 12);
            });
        });
        eng.run_for(SimTime::from_secs(1));
        let node = eng.node_ref::<ClientNode>(id);
        let ev = |tag| {
            node.events
                .iter()
                .find(|e| e.tag == tag)
                .unwrap_or_else(|| panic!("event {tag} missing"))
        };
        // During the partition: one ack, completed at the op deadline.
        let during = ev(10);
        assert_eq!(during.outcome, StoreOutcome::Done { acks: 1 });
        assert!(during.latency >= OP_TIMEOUT);
        // After the heal: both acks again, back at DC round-trip speed.
        let after = ev(11);
        assert_eq!(after.outcome, StoreOutcome::Done { acks: 2 });
        assert!(after.latency < SimTime::from_millis(10));
        // Reads see the write made after the heal, which reached both
        // replicas.
        assert_eq!(
            ev(12).outcome,
            StoreOutcome::Value(Bytes::from_static(b"P2"))
        );
        // The partition never counted as a timeout: a replica answered
        // every op.
        assert_eq!(node.client.timeouts, 0);
        // The silent replica was charged.
        let stat = &node.client.replica_stats()[&primary];
        assert!(stat.timeouts >= 1);
    }

    #[test]
    fn missed_write_is_not_resent_and_reads_find_it_via_the_backup() {
        let (mut eng, id, server_ids) = build(2, 3);
        eng.run_for(SimTime::from_millis(5));
        let primary = {
            let node = eng.node_ref::<ClientNode>(id);
            replicas_of(&node.client, b"flow:r")[0]
        };
        let victim = *server_ids
            .iter()
            .find(|&&sid| eng.node_name(sid).contains(&primary.to_string()))
            .expect("primary exists");
        let sets_before = eng.node_ref::<StoreServer>(victim).sets;
        // The primary is cut off while the write is sent, and heals just
        // after the op deadline (10 ms + 100 ms).
        eng.partition_node(victim);
        eng.schedule(SimTime::from_millis(10), move |eng| {
            eng.with_node_ctx::<ClientNode>(id, |n, ctx| {
                n.client.set(
                    ctx,
                    Bytes::from_static(b"flow:r"),
                    Bytes::from_static(b"R1"),
                    40,
                );
            });
        });
        eng.schedule(SimTime::from_millis(112), move |eng| {
            eng.heal_node(victim);
        });
        eng.run_for(SimTime::from_secs(1));
        {
            let node = eng.node_ref::<ClientNode>(id);
            let ev = node
                .events
                .iter()
                .find(|e| e.tag == 40)
                .expect("set completed");
            assert_eq!(ev.outcome, StoreOutcome::Done { acks: 1 });
        }
        // Nothing re-sent the write to the healed replica.
        assert_eq!(eng.node_ref::<StoreServer>(victim).sets, sets_before);
        // A read asks both replicas: the empty primary answers Miss, the
        // backup the value.
        let misses = eng.node_ref::<StoreServer>(victim).misses;
        eng.schedule(SimTime::ZERO, move |eng| {
            eng.with_node_ctx::<ClientNode>(id, |n, ctx| {
                n.client.get(ctx, Bytes::from_static(b"flow:r"), 41);
            });
        });
        eng.run_for(SimTime::from_millis(200));
        let node = eng.node_ref::<ClientNode>(id);
        let ev = node
            .events
            .iter()
            .find(|e| e.tag == 41)
            .expect("get completed");
        assert_eq!(ev.outcome, StoreOutcome::Value(Bytes::from_static(b"R1")));
        assert_eq!(eng.node_ref::<StoreServer>(victim).misses, misses + 1);
    }

    #[test]
    fn latency_histograms_populated() {
        let (mut eng, id, _) = build(2, 5);
        eng.run_for(SimTime::from_secs(1));
        let node = eng.node_mut::<ClientNode>(id);
        assert_eq!(node.client.set_latency.len(), 1);
        assert_eq!(node.client.get_latency.len(), 2);
        assert_eq!(node.client.delete_latency.len(), 1);
        // DC RTT 0.5 ms + 50 us service: sub-millisecond ops (paper: the
        // median op latency is well under 1 ms at low load).
        assert!(node.client.set_latency.median().expect("one set") < 1.0);
    }
}
