//! Online TCPStore read-after-write witness.
//!
//! A [`StoreWitness`] is a small in-DC node that continuously writes a
//! fresh key through the TCPStore client library and immediately reads
//! it back, asserting the §6 replication contract: as long as fewer
//! than the replication factor of store servers are impaired at once,
//! every acknowledged write is readable.
//!
//! The check must not fire across a store-membership change — a pair
//! whose window contains a store crash, partition, heal, or restart
//! proves nothing either way. The orchestrator therefore bumps the
//! witness's *epoch* at every store-fault boundary, and any set→get
//! pair that observes two different epochs is skipped instead of
//! judged.

use yoda_netsim::{Addr, Bytes, Ctx, Endpoint, Node, Packet, SimTime, TimerToken};
use yoda_tcpstore::{StoreClient, StoreEvent, StoreOutcome};

/// Timer discriminator for the witness's own pacing tick (distinct from
/// the store client's `STORE_TIMER_KIND`).
pub(crate) const WITNESS_TICK_KIND: u32 = 0xC4A0;

/// Port the witness's store client binds.
const WITNESS_PORT: u16 = 7007;

/// Phase of the in-flight pair.
#[derive(Debug, Clone, Copy)]
enum Phase {
    Set,
    Get,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    seq: u64,
    phase: Phase,
    epoch0: u64,
}

/// The witness node: periodic set→get pairs with epoch-guarded
/// read-after-write verdicts.
pub struct StoreWitness {
    client: StoreClient,
    period: SimTime,
    seq: u64,
    epoch: u64,
    pending: Option<Pending>,
    /// Pairs judged (set acknowledged, get returned the written value).
    pub(crate) checks: u64,
    /// Pairs skipped because a store-fault boundary intersected them.
    pub(crate) skipped: u64,
    /// Read-after-write violations observed (empty on a healthy run).
    pub(crate) violations: Vec<String>,
}

impl StoreWitness {
    /// A witness at `addr` writing every key to `replicas` of the given
    /// store servers (the deployment's replication factor).
    pub(crate) fn new(addr: Addr, servers: &[Addr], replicas: usize) -> Self {
        StoreWitness {
            client: StoreClient::new(replicas, Endpoint::new(addr, WITNESS_PORT), servers),
            period: SimTime::from_millis(250),
            seq: 0,
            epoch: 0,
            pending: None,
            checks: 0,
            skipped: 0,
            violations: Vec::new(),
        }
    }

    /// Called by the orchestrator at every store-fault boundary (crash,
    /// partition, heal, restart): pairs spanning the bump are skipped.
    pub(crate) fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    fn key(seq: u64) -> Bytes {
        Bytes::from(format!("chaos/witness/{seq}"))
    }

    fn value(seq: u64) -> Bytes {
        Bytes::copy_from_slice(&seq.to_le_bytes())
    }

    fn start_pair(&mut self, ctx: &mut Ctx<'_>) {
        self.seq += 1;
        let seq = self.seq;
        self.client.set(ctx, Self::key(seq), Self::value(seq), seq);
        self.pending = Some(Pending {
            seq,
            phase: Phase::Set,
            epoch0: self.epoch,
        });
    }

    fn violation(&mut self, now: SimTime, what: &str, seq: u64) {
        self.violations
            .push(format!("[{:.3}s] {what} (pair {seq})", now.as_secs_f64()));
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Option<StoreEvent>) {
        let (Some(ev), Some(p)) = (ev, self.pending) else {
            return;
        };
        if ev.tag != p.seq {
            return;
        }
        if self.epoch != p.epoch0 {
            // A store fault or heal intersected this pair: no verdict.
            self.skipped += 1;
            self.pending = None;
            return;
        }
        let now = ctx.now();
        match p.phase {
            Phase::Set => match ev.outcome {
                StoreOutcome::Done { acks } if acks >= 1 => {
                    self.client.get(ctx, Self::key(p.seq), p.seq);
                    self.pending = Some(Pending {
                        phase: Phase::Get,
                        ..p
                    });
                }
                StoreOutcome::Done { .. } | StoreOutcome::TimedOut => {
                    self.violation(now, "set got zero acks with stable store membership", p.seq);
                    self.pending = None;
                }
                _ => {
                    self.pending = None;
                }
            },
            Phase::Get => {
                match ev.outcome {
                    StoreOutcome::Value(v) => {
                        if v == Self::value(p.seq) {
                            self.checks += 1;
                        } else {
                            self.violation(
                                now,
                                "read-after-write returned a different value",
                                p.seq,
                            );
                        }
                    }
                    StoreOutcome::Miss => {
                        self.violation(now, "read-after-write miss", p.seq);
                    }
                    StoreOutcome::TimedOut => {
                        self.violation(
                            now,
                            "read-after-write get timed out with stable store membership",
                            p.seq,
                        );
                    }
                    StoreOutcome::Done { .. } => {}
                }
                self.pending = None;
            }
        }
    }
}

impl Node for StoreWitness {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.period, TimerToken::new(WITNESS_TICK_KIND));
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let ev = self.client.on_packet(ctx, &pkt);
        self.handle(ctx, ev);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        if token.kind == WITNESS_TICK_KIND {
            if self.pending.is_none() {
                self.start_pair(ctx);
            }
            ctx.set_timer(self.period, TimerToken::new(WITNESS_TICK_KIND));
        } else {
            let ev = self.client.on_timer(ctx, token);
            self.handle(ctx, ev);
        }
    }
}
