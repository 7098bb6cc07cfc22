//! The replicating Memcached client library (paper §4.3, §6).
//!
//! Embedded in every Yoda instance (and in the benchmark drivers). For
//! each operation the client:
//!
//! 1. selects K replica servers with K hash functions over the consistent
//!    ring (*decentralized server selection* — no directory service),
//! 2. issues a `set`/`delete` to all K replicas **in parallel** (the
//!    paper's optimization that keeps the 2-replica `set` overhead under
//!    24%), and a `get` to the preferred replica first, **hedging** to
//!    the backup after an adaptive delay instead of waiting out the full
//!    op timeout,
//! 3. completes a `get` on the **first hit** (or when all replicas have
//!    answered/misses), and a `set`/`delete` when every live replica has
//!    acknowledged (latency = max of the parallel round-trips).
//!
//! A per-operation timeout handles dead replica servers: the op completes
//! with whatever succeeded, matching the paper's choice not to block flows
//! on a failed Memcached instance.
//!
//! # Gray-failure hardening
//!
//! Dead servers are the easy case; browning-out ones (slow CPU, lossy
//! links) are what actually erode tail latency. Three defenses, all
//! deterministic:
//!
//! - **Per-replica suspicion.** Every replica carries a latency EWMA and
//!   a consecutive-no-answer counter ([`ReplicaStat`]); after
//!   `SUSPECT_AFTER` silent ops in a row the replica is quarantined for
//!   `QUARANTINE` — reads prefer the other replica until it expires.
//!   Writes still fan out to every replica (durability trumps latency).
//! - **Hedged reads.** A `get` contacts the preferred replica only; if
//!   no reply lands within `clamp(HEDGE_MULT × EWMA, HEDGE_MIN,
//!   HEDGE_MAX)` the backup is contacted without giving up on the first.
//!   A miss reply fires the backup immediately (a miss on one replica
//!   must never conclude the op while the other may hold the value).
//! - **Background write repair.** A write that completes with fewer
//!   than K acks is re-sent to the silent replicas with bounded,
//!   exponentially backed-off retries (jitter drawn from the owning
//!   node's seeded RNG stream, so repair traffic replays bit-for-bit).
//!   The caller's [`StoreEvent`] is never delayed by repair — it fires
//!   at the original deadline with the acks observed then — and a newer
//!   write to the same key supersedes any pending repair so stale
//!   values can never resurrect.

use std::collections::BTreeMap;

use bytes::Bytes;
use yoda_netsim::{
    Addr, Ctx, Endpoint, FlowTable, Histogram, Packet, SimTime, TimerId, TimerToken,
};

use crate::proto::{StoreOp, StoreRequest, StoreResponse, StoreStatus};
use crate::ring::HashRing;

/// Timer-token kind reserved for store-client operation timeouts.
pub const STORE_TIMER_KIND: u32 = 0x5709;
/// Timer-token kind for hedged-read triggers.
pub const STORE_HEDGE_KIND: u32 = 0x570A;
/// Timer-token kind for background write-repair retries.
pub const STORE_RETRY_KIND: u32 = 0x570B;

/// Per-operation timeout (covers dead servers). Also the yardstick a
/// degraded instance's heal probe must beat to count as "fast".
pub const OP_TIMEOUT: SimTime = SimTime::from_millis(100);
/// Store server port.
const SERVER_PORT: u16 = 11211;
/// Floor of the adaptive hedge delay for reads.
const HEDGE_MIN: SimTime = SimTime::from_millis(1);
/// Ceiling of the adaptive hedge delay.
const HEDGE_MAX: SimTime = SimTime::from_millis(50);
/// Hedge delay = `HEDGE_MULT ×` the preferred replica's latency EWMA,
/// clamped into `[HEDGE_MIN, HEDGE_MAX]`.
const HEDGE_MULT: f64 = 3.0;
/// Background repair rounds for under-acked writes.
const MAX_RETRIES: u32 = 2;
/// Backoff before the first repair round; doubles each round, plus
/// seeded jitter of up to half the round's backoff.
const RETRY_BACKOFF: SimTime = SimTime::from_millis(25);
/// Consecutive unanswered ops before a replica is quarantined.
const SUSPECT_AFTER: u32 = 3;
/// How long a quarantined replica is deprioritized for reads.
const QUARANTINE: SimTime = SimTime::from_secs(1);

/// Client configuration. Only what some caller sets to a second value
/// is a field; every other tunable is a constant above.
#[derive(Debug, Clone)]
pub struct StoreClientConfig {
    /// Replication factor K (paper evaluates K=2; K=1 is "default
    /// Memcached").
    pub replicas: usize,
    /// Virtual nodes per server on the ring.
    pub vnodes: usize,
}

impl Default for StoreClientConfig {
    fn default() -> Self {
        StoreClientConfig {
            replicas: 2,
            vnodes: 64,
        }
    }
}

/// Final outcome of an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreOutcome {
    /// `get` hit: the value.
    Value(Bytes),
    /// `get` miss on every replica that answered.
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

/// Health and traffic accounting for one replica server, kept by the
/// client (per-client view — no coordination with other clients).
#[derive(Debug, Clone)]
pub struct ReplicaStat {
    /// EWMA of observed response latencies.
    pub ewma: SimTime,
    /// Responses folded into the EWMA.
    pub samples: u64,
    /// Ops where this replica never answered by the deadline.
    pub timeouts: u64,
    /// Hedged reads fired because this replica sat on the request.
    pub hedges: u64,
    /// Background repair sends directed at this replica.
    pub retries: u64,
    /// Times this replica entered quarantine.
    pub quarantines: u64,
    /// Consecutive deadline misses (reset by any answer).
    pub misses_in_a_row: u32,
    /// Reads deprioritize this replica until this instant.
    pub quarantined_until: SimTime,
}

impl ReplicaStat {
    fn new() -> Self {
        ReplicaStat {
            ewma: SimTime::ZERO,
            samples: 0,
            timeouts: 0,
            hedges: 0,
            retries: 0,
            quarantines: 0,
            misses_in_a_row: 0,
            quarantined_until: SimTime::ZERO,
        }
    }
}

struct PendingTarget {
    server: Addr,
    sent_at: SimTime,
    answered: bool,
}

struct PendingOp {
    tag: u64,
    op: StoreOp,
    key: Bytes,
    /// Kept so hedged sends (and repair enqueue) can rebuild the request.
    value: Bytes,
    issued: SimTime,
    /// Full replica set in contact-preference order; `targets[..contacted]`
    /// have been sent the request.
    targets: Vec<PendingTarget>,
    contacted: usize,
    acks: usize,
    hit: Option<Bytes>,
    /// The op deadline, cancelled when the op completes first.
    deadline: TimerId,
    /// The pending hedge trigger of a read, cancelled when the op ends or
    /// has no replica left to hedge to.
    hedge: Option<TimerId>,
}

impl PendingOp {
    fn all_answered(&self) -> bool {
        self.contacted == self.targets.len() && self.targets.iter().all(|t| t.answered)
    }
}

/// A background repair of an under-acked write: the value is re-sent to
/// the replicas that never acknowledged, with bounded backed-off rounds.
struct Repair {
    op: StoreOp,
    key: Bytes,
    value: Bytes,
    /// Replicas still missing the write.
    servers: Vec<Addr>,
    /// Rounds already sent.
    attempt: u32,
    /// The next round's timer, cancelled when the repair settles or a
    /// newer write to the key supersedes it.
    retry: TimerId,
}

/// The client library: embed in a node, route RPC packets and timers
/// whose kind passes [`StoreClient::owns_timer_kind`] to it.
pub struct StoreClient {
    cfg: StoreClientConfig,
    ring: HashRing,
    local: Endpoint,
    pending: FlowTable<u64, PendingOp>,
    /// Under-acked writes being repaired in the background, keyed by the
    /// original request id (so a late ack from the original send settles
    /// the repair).
    repairs: FlowTable<u64, Repair>,
    next_req: u64,
    /// Per-replica health/traffic stats.
    replica_stats: BTreeMap<Addr, ReplicaStat>,
    /// Latency histograms per op kind (ms), for the Figure 10 experiment.
    pub get_latency: Histogram,
    /// Set latency (ms).
    pub set_latency: Histogram,
    /// Delete latency (ms).
    pub delete_latency: Histogram,
    /// Operations that timed out entirely.
    pub timeouts: u64,
    /// Hedged reads fired.
    pub hedges: u64,
    /// Background repair sends fired.
    pub retries: u64,
    /// Quarantine entries across all replicas.
    pub quarantines: u64,
    /// Repairs abandoned after exhausting the retry budget.
    pub repairs_abandoned: u64,
}

impl StoreClient {
    /// Creates a client for the given store servers, sending from `local`.
    pub fn new(cfg: StoreClientConfig, local: Endpoint, servers: &[Addr]) -> Self {
        let ring = HashRing::new(servers, cfg.vnodes);
        StoreClient {
            cfg,
            ring,
            local,
            pending: FlowTable::new(),
            repairs: FlowTable::new(),
            next_req: 1,
            replica_stats: BTreeMap::new(),
            get_latency: Histogram::new(),
            set_latency: Histogram::new(),
            delete_latency: Histogram::new(),
            timeouts: 0,
            hedges: 0,
            retries: 0,
            quarantines: 0,
            repairs_abandoned: 0,
        }
    }

    /// The ring (for tests / introspection).
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Number of operations still in flight.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Number of under-acked writes still being repaired.
    pub fn repairs_in_flight(&self) -> usize {
        self.repairs.len()
    }

    /// Per-replica health and traffic stats.
    pub fn replica_stats(&self) -> &BTreeMap<Addr, ReplicaStat> {
        &self.replica_stats
    }

    /// Whether `kind` is one of the client's timer kinds; owners route
    /// matching [`TimerToken`]s to [`StoreClient::on_timer`].
    pub fn owns_timer_kind(kind: u32) -> bool {
        matches!(kind, STORE_TIMER_KIND | STORE_HEDGE_KIND | STORE_RETRY_KIND)
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
        self.replica_stats.entry(server).or_insert_with(ReplicaStat::new)
    }

    /// Folds a response latency into the replica's EWMA and clears its
    /// suspicion counter.
    fn replica_answered(&mut self, server: Addr, latency: SimTime) {
        let stat = self.stat(server);
        let sample = latency.as_micros();
        let ewma = if stat.samples == 0 {
            sample
        } else {
            (stat.ewma.as_micros() * 4 + sample) / 5
        };
        stat.ewma = SimTime::from_micros(ewma);
        stat.samples += 1;
        stat.misses_in_a_row = 0;
    }

    /// Charges a deadline miss to the replica; enough in a row and it is
    /// quarantined (reads route around it until the quarantine expires).
    fn replica_missed(&mut self, server: Addr, now: SimTime) {
        let stat = self.stat(server);
        stat.timeouts += 1;
        stat.misses_in_a_row += 1;
        if stat.misses_in_a_row >= SUSPECT_AFTER && stat.quarantined_until <= now {
            stat.quarantined_until = now + QUARANTINE;
            stat.quarantines += 1;
            stat.misses_in_a_row = 0;
            self.quarantines += 1;
        }
    }

    fn quarantined(&self, server: Addr, now: SimTime) -> bool {
        self.replica_stats
            .get(&server)
            .map(|s| s.quarantined_until > now)
            .unwrap_or(false)
    }

    /// Adaptive hedge delay before contacting the next replica of a read:
    /// a multiple of the contacted replica's latency EWMA, clamped. With
    /// no samples yet this is `HEDGE_MIN` — aggressive, but the extra
    /// read is cheap and the deadline still bounds everything.
    fn hedge_delay(&self, server: Addr) -> SimTime {
        let ewma = self
            .replica_stats
            .get(&server)
            .map(|s| s.ewma.as_micros())
            .unwrap_or(0);
        let scaled = (ewma as f64 * HEDGE_MULT) as u64;
        SimTime::from_micros(scaled)
            .max(HEDGE_MIN)
            .min(HEDGE_MAX)
    }

    fn send_to(&self, ctx: &mut Ctx<'_>, server: Addr, req_id: u64, op: StoreOp, key: &Bytes, value: &Bytes) {
        let req = StoreRequest {
            req_id,
            op,
            key: key.clone(),
            value: value.clone(),
        };
        let dst = Endpoint::new(server, SERVER_PORT);
        ctx.send(req.into_packet(self.local, dst));
    }

    fn issue(&mut self, ctx: &mut Ctx<'_>, op: StoreOp, key: Bytes, value: Bytes, tag: u64) {
        let req_id = self.next_req;
        self.next_req += 1;
        let now = ctx.now();
        let mut replicas = self.ring.replicas(&key, self.cfg.replicas);
        let is_write = !matches!(op, StoreOp::Get);
        if is_write {
            // A newer write supersedes any pending repair of the same key:
            // re-sending the stale value after this would resurrect it.
            for id in self.repairs.sorted_keys(|_, r| r.key == key) {
                if let Some(r) = self.repairs.remove(&id) {
                    ctx.cancel_timer(r.retry);
                }
            }
        } else {
            // Reads steer around quarantined replicas (stable order within
            // each class keeps the preference deterministic). Writes always
            // fan out to the full set — durability trumps latency.
            let (healthy, suspect): (Vec<Addr>, Vec<Addr>) = replicas
                .iter()
                .partition(|&&s| !self.quarantined(s, now));
            replicas = healthy;
            replicas.extend(suspect);
        }
        // Reads contact the preferred replica only and hedge later;
        // writes contact everyone in parallel (paper: max of the RTTs).
        let contact = if is_write {
            replicas.len()
        } else {
            replicas.len().min(1)
        };
        let targets: Vec<PendingTarget> = replicas
            .iter()
            .map(|&server| PendingTarget {
                server,
                sent_at: now,
                answered: false,
            })
            .collect();
        for &server in replicas.iter().take(contact) {
            self.send_to(ctx, server, req_id, op, &key, &value);
        }
        let hedge = match replicas.first() {
            Some(&primary) if !is_write && replicas.len() > 1 => {
                let delay = self.hedge_delay(primary);
                Some(ctx.set_timer(delay, TimerToken::new(STORE_HEDGE_KIND).with_a(req_id)))
            }
            _ => None,
        };
        let deadline = ctx.set_timer(OP_TIMEOUT, TimerToken::new(STORE_TIMER_KIND).with_a(req_id));
        self.pending.insert(
            req_id,
            PendingOp {
                tag,
                op,
                key,
                value,
                issued: now,
                targets,
                contacted: contact,
                acks: 0,
                hit: None,
                deadline,
                hedge,
            },
        );
    }

    /// Contacts the next uncontacted replica of a pending read, if any.
    /// Returns the server hedged to.
    fn contact_next(&mut self, ctx: &mut Ctx<'_>, req_id: u64) -> Option<Addr> {
        let now = ctx.now();
        let (server, op, key, value) = {
            let pend = self.pending.get_mut(&req_id)?;
            let idx = pend.contacted;
            let target = pend.targets.get_mut(idx)?;
            target.sent_at = now;
            let server = target.server;
            pend.contacted += 1;
            (server, pend.op, pend.key.clone(), pend.value.clone())
        };
        self.send_to(ctx, server, req_id, op, &key, &value);
        Some(server)
    }

    /// Routes an RPC packet; returns completed operations.
    pub fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) -> Vec<StoreEvent> {
        let Some(resp) = StoreResponse::decode(&pkt.payload) else {
            return Vec::new();
        };
        let now = ctx.now();
        let from = pkt.src.addr;
        // First pass under the pending borrow: settle the target and
        // decide what to do; act after the borrow ends.
        let settled = match self.pending.get_mut(&resp.req_id) {
            Some(op) => {
                let mut latency = None;
                for t in op.targets.iter_mut().take(op.contacted) {
                    if t.server == from && !t.answered {
                        t.answered = true;
                        latency = Some(now.saturating_sub(t.sent_at));
                        break;
                    }
                }
                let Some(latency) = latency else {
                    // A duplicate or stray response; the op's accounting
                    // already settled this replica.
                    return Vec::new();
                };
                match resp.status {
                    StoreStatus::Ok => {
                        op.acks += 1;
                        if resp.op == StoreOp::Get && op.hit.is_none() {
                            op.hit = Some(resp.value.clone());
                        }
                    }
                    StoreStatus::Miss => {}
                }
                let is_get = matches!(op.op, StoreOp::Get);
                let miss_reply = is_get && op.hit.is_none();
                let complete = if is_get {
                    op.hit.is_some() || op.all_answered()
                } else {
                    op.all_answered()
                };
                Some((latency, miss_reply, complete))
            }
            None => None,
        };
        let Some((latency, miss_reply, complete)) = settled else {
            // Not pending: maybe a (late or retried) ack settling a repair.
            if let Some(rep) = self.repairs.get_mut(&resp.req_id) {
                rep.servers.retain(|&s| s != from);
                if rep.servers.is_empty() {
                    ctx.cancel_timer(rep.retry);
                    self.repairs.remove(&resp.req_id);
                }
                self.replica_stats
                    .entry(from)
                    .or_insert_with(ReplicaStat::new)
                    .misses_in_a_row = 0;
            }
            return Vec::new();
        };
        self.replica_answered(from, latency);
        if miss_reply && !complete {
            // A miss on one replica must consult the other before the op
            // can conclude Miss — the value may have landed on only one
            // replica (an under-acked write). Fire it now rather than
            // waiting for the hedge timer, which has nothing left to do
            // once every replica is contacted.
            self.contact_next(ctx, resp.req_id);
            let pend = self.pending.get_mut(&resp.req_id);
            let exhausted = pend.filter(|op| op.contacted == op.targets.len());
            if let Some(hedge) = exhausted.and_then(|op| op.hedge.take()) {
                ctx.cancel_timer(hedge);
            }
            return Vec::new();
        }
        if !complete {
            return Vec::new();
        }
        let Some(op) = self.pending.remove(&resp.req_id) else {
            return Vec::new();
        };
        ctx.cancel_timer(op.deadline);
        if let Some(hedge) = op.hedge {
            ctx.cancel_timer(hedge);
        }
        vec![self.finish(op, now)]
    }

    /// Handles the client's timers: op deadlines, hedge triggers, and
    /// repair rounds. Returns completed (timed-out or partially-acked)
    /// operations.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) -> Vec<StoreEvent> {
        match token.kind {
            STORE_TIMER_KIND => self.on_deadline(ctx, token.a),
            STORE_HEDGE_KIND => {
                self.on_hedge(ctx, token.a);
                Vec::new()
            }
            STORE_RETRY_KIND => {
                self.on_repair_round(ctx, token.a);
                Vec::new()
            }
            _ => {
                debug_assert!(false, "unexpected timer kind {:#x}", token.kind);
                Vec::new()
            }
        }
    }

    fn on_hedge(&mut self, ctx: &mut Ctx<'_>, req_id: u64) {
        let slow = {
            let Some(pend) = self.pending.get(&req_id) else {
                return;
            };
            if pend.hit.is_some() || pend.contacted >= pend.targets.len() {
                return;
            }
            // Blame the first contacted replica still sitting on the
            // request.
            pend.targets
                .iter()
                .take(pend.contacted)
                .find(|t| !t.answered)
                .map(|t| t.server)
        };
        let Some(hedged) = self.contact_next(ctx, req_id) else {
            return;
        };
        self.hedges += 1;
        if let Some(slow) = slow {
            self.stat(slow).hedges += 1;
        }
        // More replicas behind this one: chain another hedge trigger.
        let delay = self.hedge_delay(hedged);
        if let Some(pend) = self.pending.get_mut(&req_id) {
            pend.hedge = (pend.contacted < pend.targets.len())
                .then(|| ctx.set_timer(delay, TimerToken::new(STORE_HEDGE_KIND).with_a(req_id)));
        }
    }

    fn on_deadline(&mut self, ctx: &mut Ctx<'_>, req_id: u64) -> Vec<StoreEvent> {
        let Some(op) = self.pending.remove(&req_id) else {
            return Vec::new();
        };
        if let Some(hedge) = op.hedge {
            ctx.cancel_timer(hedge);
        }
        let now = ctx.now();
        // Charge the deadline to every contacted replica that sat silent.
        let silent: Vec<Addr> = op
            .targets
            .iter()
            .take(op.contacted)
            .filter(|t| !t.answered)
            .map(|t| t.server)
            .collect();
        for &server in &silent {
            self.replica_missed(server, now);
        }
        // Under-acked write: repair the silent replicas in the background.
        // The caller's event is NOT delayed — it reports the acks observed
        // at the deadline, same as before repair existed.
        if !matches!(op.op, StoreOp::Get) && !silent.is_empty() {
            let delay = self.repair_backoff(ctx, 0);
            let retry = ctx.set_timer(delay, TimerToken::new(STORE_RETRY_KIND).with_a(req_id));
            self.repairs.insert(
                req_id,
                Repair {
                    op: op.op,
                    key: op.key.clone(),
                    value: op.value.clone(),
                    servers: silent,
                    attempt: 0,
                    retry,
                },
            );
        }
        vec![self.finish(op, now)]
    }

    /// Deterministic exponential backoff with seeded jitter: base × 2^round
    /// plus up to half of that again, drawn from the owning node's RNG
    /// stream (bit-for-bit reproducible, whatever other nodes draw).
    fn repair_backoff(&self, ctx: &mut Ctx<'_>, round: u32) -> SimTime {
        let base = RETRY_BACKOFF.as_micros() << round.min(16);
        let jitter = ctx.node_rng().gen_range(0..=base / 2);
        SimTime::from_micros(base + jitter)
    }

    fn on_repair_round(&mut self, ctx: &mut Ctx<'_>, req_id: u64) {
        let (op, key, value, servers, attempt) = {
            let Some(rep) = self.repairs.get_mut(&req_id) else {
                // Acked in the meantime or superseded by a newer write.
                return;
            };
            if rep.attempt >= MAX_RETRIES {
                self.repairs.remove(&req_id);
                self.repairs_abandoned += 1;
                return;
            }
            rep.attempt += 1;
            (
                rep.op,
                rep.key.clone(),
                rep.value.clone(),
                rep.servers.clone(),
                rep.attempt,
            )
        };
        for &server in &servers {
            self.send_to(ctx, server, req_id, op, &key, &value);
            self.retries += 1;
            self.stat(server).retries += 1;
        }
        let delay = self.repair_backoff(ctx, attempt);
        let retry = ctx.set_timer(delay, TimerToken::new(STORE_RETRY_KIND).with_a(req_id));
        if let Some(rep) = self.repairs.get_mut(&req_id) {
            rep.retry = retry;
        }
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

    /// Node embedding a StoreClient and running a scripted sequence:
    /// set → get → delete → get.
    struct ClientNode {
        client: StoreClient,
        events: Vec<StoreEvent>,
    }
    impl Node for ClientNode {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.client
                .set(ctx, Bytes::from_static(b"flow:a"), Bytes::from_static(b"S1"), 1);
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
            let evs = self.client.on_packet(ctx, &pkt);
            for ev in evs {
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
        let cfg = StoreClientConfig {
            replicas,
            ..StoreClientConfig::default()
        };
        let id = eng.add_node(
            "client",
            me.addr,
            Zone::Dc,
            Box::new(ClientNode {
                client: StoreClient::new(cfg, me, &servers),
                events: Vec::new(),
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
        // deadline, and each read its hedge, when it completed.
        assert_eq!(eng.timer_backlog(), 0);
    }

    #[test]
    fn hedged_get_contacts_one_server_when_healthy() {
        let (mut eng, id, server_ids) = build(2, 5);
        eng.run_for(SimTime::from_secs(1));
        let node = eng.node_ref::<ClientNode>(id);
        // First get hits the preferred replica before any hedge fires; the
        // final get (after the delete) misses there and consults the
        // backup immediately. Total gets on the wire: 1 + 2.
        let total_gets: u64 = server_ids
            .iter()
            .map(|&s| eng.node_ref::<StoreServer>(s).gets)
            .sum();
        assert_eq!(total_gets, 3);
        assert_eq!(node.client.hedges, 0, "healthy replicas never hedge");
    }

    #[test]
    fn get_survives_one_replica_failure() {
        let (mut eng, id, server_ids) = build(2, 5);
        // Let the set complete first.
        eng.run_for(SimTime::from_millis(2));
        // Kill the primary replica of "flow:a"; the get must fall back.
        let primary = {
            let node = eng.node_ref::<ClientNode>(id);
            node.client.ring().replicas(b"flow:a", 2)[0]
        };
        let victim = *server_ids
            .iter()
            .find(|&&sid| eng.node_name(sid).contains(&primary.to_string()))
            .expect("primary exists");
        eng.fail_node(victim);
        eng.run_for(SimTime::from_secs(2));
        let node = eng.node_ref::<ClientNode>(id);
        // The full script still completes; the get got the value from the
        // surviving replica via a hedged read long before the op deadline.
        assert!(node.events.len() >= 2, "events: {:?}", node.events.len());
        let get_ev = node
            .events
            .iter()
            .find(|e| e.tag == 2)
            .expect("get completed");
        assert_eq!(get_ev.outcome, StoreOutcome::Value(Bytes::from_static(b"S1")));
    }

    #[test]
    fn hedge_fires_when_primary_is_silent() {
        let (mut eng, id, server_ids) = build(2, 3);
        // Seed a key the scripted lifecycle never touches.
        eng.schedule(SimTime::from_millis(10), move |eng| {
            eng.with_node_ctx::<ClientNode>(id, |n, ctx| {
                n.client
                    .set(ctx, Bytes::from_static(b"flow:h"), Bytes::from_static(b"H1"), 50);
            });
        });
        eng.run_for(SimTime::from_millis(20));
        let primary = {
            let node = eng.node_ref::<ClientNode>(id);
            node.client.ring().replicas(b"flow:h", 2)[0]
        };
        let victim = *server_ids
            .iter()
            .find(|&&sid| eng.node_name(sid).contains(&primary.to_string()))
            .expect("primary exists");
        eng.fail_node(victim);
        eng.schedule(SimTime::ZERO, move |eng| {
            eng.with_node_ctx::<ClientNode>(id, |n, ctx| {
                n.client.get(ctx, Bytes::from_static(b"flow:h"), 51);
            });
        });
        eng.run_for(SimTime::from_millis(50));
        let node = eng.node_ref::<ClientNode>(id);
        let ev = node
            .events
            .iter()
            .find(|e| e.tag == 51)
            .expect("get completed");
        // The hedged read reached the backup long before the op deadline.
        assert_eq!(ev.outcome, StoreOutcome::Value(Bytes::from_static(b"H1")));
        assert!(
            ev.latency < SimTime::from_millis(10),
            "hedge beat the op deadline: {:?}",
            ev.latency
        );
        assert!(node.client.hedges >= 1);
        assert!(node.client.replica_stats()[&primary].hedges >= 1);
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
        // The repair gave up after its bounded rounds; nothing lingers.
        assert_eq!(node.client.repairs_in_flight(), 0);
        assert_eq!(node.client.repairs_abandoned, 1);
        assert!(node.client.retries > 0);
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
            node.client.ring().replicas(b"flow:p", 2)[0]
        };
        let victim = *server_ids
            .iter()
            .find(|&&sid| eng.node_name(sid).contains(&primary.to_string()))
            .expect("primary exists");
        eng.partition_node(victim);
        eng.schedule(SimTime::from_millis(10), move |eng| {
            eng.with_node_ctx::<ClientNode>(id, |n, ctx| {
                n.client
                    .set(ctx, Bytes::from_static(b"flow:p"), Bytes::from_static(b"P1"), 10);
            });
        });
        eng.run_for(SimTime::from_millis(200));
        eng.heal_node(victim);
        eng.schedule(SimTime::from_millis(10), move |eng| {
            eng.with_node_ctx::<ClientNode>(id, |n, ctx| {
                n.client
                    .set(ctx, Bytes::from_static(b"flow:p"), Bytes::from_static(b"P2"), 11);
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
        // Reads see the healed write — the superseding rule guarantees the
        // background repair of P1 can never overwrite P2.
        assert_eq!(ev(12).outcome, StoreOutcome::Value(Bytes::from_static(b"P2")));
        // The partition never counted as a timeout: a replica answered
        // every op.
        assert_eq!(node.client.timeouts, 0);
        // The silent replica was charged.
        let stat = &node.client.replica_stats()[&primary];
        assert!(stat.timeouts >= 1);
    }

    #[test]
    fn browning_replica_is_quarantined_and_reads_route_around_it() {
        let (mut eng, id, server_ids) = build(2, 3);
        eng.run_for(SimTime::from_millis(5));
        let (primary, backup) = {
            let node = eng.node_ref::<ClientNode>(id);
            let reps = node.client.ring().replicas(b"flow:q", 2);
            (reps[0], reps[1])
        };
        let victim = *server_ids
            .iter()
            .find(|&&sid| eng.node_name(sid).contains(&primary.to_string()))
            .expect("primary exists");
        // Brown out the primary: alive, but far beyond the op deadline.
        eng.partition_node(victim);
        // Three writes in a row, each missing the victim's ack, push it
        // over SUSPECT_AFTER and into quarantine.
        for (i, at) in [10u64, 220, 430].iter().enumerate() {
            let tag = 20 + i as u64;
            eng.schedule(SimTime::from_millis(*at), move |eng| {
                eng.with_node_ctx::<ClientNode>(id, |n, ctx| {
                    n.client.set(
                        ctx,
                        Bytes::from_static(b"flow:q"),
                        Bytes::from_static(b"Q"),
                        tag,
                    );
                });
            });
        }
        eng.run_for(SimTime::from_millis(700));
        {
            let node = eng.node_ref::<ClientNode>(id);
            assert_eq!(node.client.quarantines, 1, "victim quarantined once");
            let stat = &node.client.replica_stats()[&primary];
            assert!(stat.quarantined_until > SimTime::ZERO);
        }
        // A read while quarantined prefers the healthy backup: it answers
        // at DC speed with no hedge fired.
        let hedges_before = eng.node_ref::<ClientNode>(id).client.hedges;
        eng.schedule(SimTime::ZERO, move |eng| {
            eng.with_node_ctx::<ClientNode>(id, |n, ctx| {
                n.client.get(ctx, Bytes::from_static(b"flow:q"), 30);
            });
        });
        eng.run_for(SimTime::from_millis(50));
        let node = eng.node_ref::<ClientNode>(id);
        let ev = node
            .events
            .iter()
            .find(|e| e.tag == 30)
            .expect("quarantine-steered read completed");
        assert_eq!(ev.outcome, StoreOutcome::Value(Bytes::from_static(b"Q")));
        assert!(
            ev.latency < SimTime::from_millis(5),
            "read skipped the browning primary: {:?}",
            ev.latency
        );
        assert_eq!(node.client.hedges, hedges_before, "no hedge needed");
        let _ = backup;
    }

    #[test]
    fn under_acked_write_is_repaired_in_background() {
        let (mut eng, id, server_ids) = build(2, 3);
        eng.run_for(SimTime::from_millis(5));
        let primary = {
            let node = eng.node_ref::<ClientNode>(id);
            node.client.ring().replicas(b"flow:r", 2)[0]
        };
        let victim = *server_ids
            .iter()
            .find(|&&sid| eng.node_name(sid).contains(&primary.to_string()))
            .expect("primary exists");
        // Drop the victim's packets only briefly: the original send is
        // lost, but the first repair round lands.
        eng.partition_node(victim);
        eng.schedule(SimTime::from_millis(10), move |eng| {
            eng.with_node_ctx::<ClientNode>(id, |n, ctx| {
                n.client
                    .set(ctx, Bytes::from_static(b"flow:r"), Bytes::from_static(b"R1"), 40);
            });
        });
        // Heal right after the op deadline (10 ms + 100 ms), before the
        // first repair round can fire.
        eng.schedule(SimTime::from_millis(112), move |eng| {
            let victim = victim;
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
            assert!(node.client.retries >= 1, "repair rounds fired");
            assert_eq!(node.client.repairs_in_flight(), 0, "repair settled");
        }
        // The repaired replica now holds the value: a primary-only read
        // hits it directly.
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
