//! The shell's probe driver for `action=prequal` rules (`yoda-balance`):
//! ticks, replies and timeouts. Probing only runs while at least one
//! installed rule is prequal.

use std::collections::BTreeSet;

use yoda_balance::{ProbeReply, ProbeRequest, Signal, PROBE_PORT};
use yoda_netsim::{Ctx, Endpoint, Packet, TimerToken, PROTO_PROBE};

use super::YodaInstance;

/// Probe tick timer (`yoda-balance` driver).
pub(super) const PROBE_TICK_KIND: u32 = 0x9E0;
/// Per-probe timeout timer; `token.a` carries the probe tag.
pub(super) const PROBE_TIMEOUT_KIND: u32 = 0x9E1;

impl YodaInstance {
    /// One probe tick: lapse expired quarantines, gather the live,
    /// unquarantined backends of every prequal rule, probe a
    /// power-of-`d` sample of them, and re-arm the tick.
    pub(super) fn probe_tick(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        self.prober.release_expired(now);
        let mut candidates: BTreeSet<Endpoint> = BTreeSet::new();
        for vcfg in self.vips.values() {
            candidates.extend(vcfg.rules.prequal_backends());
        }
        candidates
            .retain(|b| !self.select_ctx.dead.contains(b) && !self.prober.is_quarantined(*b, now));
        if !candidates.is_empty() {
            let cands: Vec<Endpoint> = candidates.into_iter().collect();
            let targets = self.prober.sample(&cands, ctx.node_rng());
            let src = Endpoint::new(self.addr, PROBE_PORT);
            for b in targets {
                let tag = self.prober.begin(b);
                ctx.send(Packet::new(
                    src,
                    b,
                    PROTO_PROBE,
                    ProbeRequest { tag }.encode(),
                ));
                ctx.set_timer(
                    self.cfg.probe.timeout,
                    TimerToken::new(PROBE_TIMEOUT_KIND).with_a(tag),
                );
            }
        }
        ctx.set_timer(self.cfg.probe.period, TimerToken::new(PROBE_TICK_KIND));
    }

    /// A probe reply: feed the signal to every VIP's rule table.
    pub(super) fn handle_probe_reply(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        let Some(reply) = ProbeReply::decode(&pkt.payload) else {
            return;
        };
        let now = ctx.now();
        let Some(backend) = self.prober.on_reply(reply.tag, now) else {
            return; // Late reply; the timeout already fired.
        };
        let sig = Signal {
            rif: reply.rif,
            latency_est: reply.latency,
            last_probe: now,
        };
        for vcfg in self.vips.values_mut() {
            vcfg.rules.on_probe(backend, sig);
        }
    }

    /// A probe timeout: quarantine the backend and drop its pooled
    /// signals, so selection stops routing to a silently-failed node.
    pub(super) fn probe_timeout(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if let Some(backend) = self.prober.on_timeout(tag, ctx.now()) {
            ctx.trace_note(format!("probe timeout: quarantine {backend}"));
            for vcfg in self.vips.values_mut() {
                vcfg.rules.purge_backend(backend);
            }
        }
    }
}
