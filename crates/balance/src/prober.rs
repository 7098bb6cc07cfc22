//! The asynchronous probe driver.
//!
//! [`Prober`] is pure bookkeeping — the owning node (a Yoda instance)
//! sends the packets and arms the timers; the prober decides *whom* to
//! probe (power-of-`d` sampling), matches replies to outstanding probes,
//! and quarantines backends whose probes time out. Quarantine is the
//! failure-handling half of the subsystem: a backend failed via
//! `yoda-netsim`'s node-failure injection silently drops probe packets,
//! so within one probe timeout it is quarantined and stops being
//! sampled; when the quarantine lapses, probing resumes, and the first
//! successful reply readmits it.

use std::collections::BTreeMap;

use yoda_netsim::rng::Rng;
use yoda_netsim::{Endpoint, SimTime};

use crate::pool::PoolConfig;

/// Probe subsystem tunables.
#[derive(Debug, Clone, Copy)]
pub struct ProbeConfig {
    /// Backends sampled per rule per probe tick (the `d` of
    /// power-of-`d`).
    pub d: usize,
    /// Probe tick period.
    pub period: SimTime,
    /// A probe unanswered for this long quarantines its backend.
    pub timeout: SimTime,
    /// How long a quarantined backend is excluded from sampling and
    /// selection before probing retries it.
    pub quarantine: SimTime,
    /// Pool tunables applied to every per-rule probe pool.
    pub pool: PoolConfig,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            d: 3,
            period: SimTime::from_millis(10),
            timeout: SimTime::from_millis(50),
            quarantine: SimTime::from_secs(1),
            pool: PoolConfig::default(),
        }
    }
}

/// Probe bookkeeping: outstanding probes, quarantines, counters.
#[derive(Debug)]
pub struct Prober {
    /// Tunables (read by the owning node for timer periods).
    pub cfg: ProbeConfig,
    /// Probe tag → probed backend.
    outstanding: BTreeMap<u64, Endpoint>,
    /// Quarantined backend → release time.
    quarantined: BTreeMap<Endpoint, SimTime>,
    next_tag: u64,
    /// Probes sent.
    pub probes_sent: u64,
    /// Probe replies matched.
    pub probes_answered: u64,
    /// Probes that timed out.
    pub probes_timed_out: u64,
    /// Quarantine entries created.
    pub quarantines: u64,
}

impl Prober {
    /// A fresh prober.
    pub fn new(cfg: ProbeConfig) -> Self {
        Prober {
            cfg,
            outstanding: BTreeMap::new(),
            quarantined: BTreeMap::new(),
            next_tag: 1,
            probes_sent: 0,
            probes_answered: 0,
            probes_timed_out: 0,
            quarantines: 0,
        }
    }

    /// True while `backend` is quarantined at `now`.
    pub fn is_quarantined(&self, backend: Endpoint, now: SimTime) -> bool {
        self.quarantined.get(&backend).map(|&until| now < until).unwrap_or(false)
    }

    /// Currently quarantined backends.
    pub fn quarantined(&self, now: SimTime) -> Vec<Endpoint> {
        self.quarantined
            .iter()
            .filter(|(_, &until)| now < until)
            .map(|(&b, _)| b)
            .collect()
    }

    /// Drops lapsed quarantine entries so probing retries those backends.
    pub fn release_expired(&mut self, now: SimTime) {
        self.quarantined.retain(|_, &mut until| now < until);
    }

    /// Samples up to `cfg.d` distinct probe targets from `candidates`
    /// (power-of-`d` choices), via a partial Fisher–Yates shuffle on the
    /// engine's seeded RNG.
    pub fn sample(&self, candidates: &[Endpoint], rng: &mut Rng) -> Vec<Endpoint> {
        let mut pool: Vec<Endpoint> = candidates.to_vec();
        let d = self.cfg.d.min(pool.len());
        for i in 0..d {
            let j = i + rng.gen_range(0..(pool.len() - i) as u64) as usize;
            pool.swap(i, j);
        }
        pool.truncate(d);
        pool
    }

    /// Registers an outgoing probe to `backend`; returns its tag.
    pub fn begin(&mut self, backend: Endpoint) -> u64 {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.outstanding.insert(tag, backend);
        self.probes_sent += 1;
        tag
    }

    /// Matches a reply to its outstanding probe. Returns the probed
    /// backend (and clears any quarantine on it — an answering backend
    /// is alive). `None` for unknown or already-expired tags.
    pub fn on_reply(&mut self, tag: u64, _now: SimTime) -> Option<Endpoint> {
        let backend = self.outstanding.remove(&tag)?;
        self.probes_answered += 1;
        self.quarantined.remove(&backend);
        Some(backend)
    }

    /// Handles a probe-timeout timer. If the probe is still outstanding,
    /// its backend is quarantined and returned; `None` when the reply
    /// already arrived.
    pub fn on_timeout(&mut self, tag: u64, now: SimTime) -> Option<Endpoint> {
        let backend = self.outstanding.remove(&tag)?;
        self.probes_timed_out += 1;
        self.quarantines += 1;
        self.quarantined.insert(backend, now + self.cfg.quarantine);
        Some(backend)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yoda_netsim::Addr;

    fn ep(d: u8) -> Endpoint {
        Endpoint::new(Addr::new(10, 1, 0, d), 80)
    }

    fn prober() -> Prober {
        Prober::new(ProbeConfig::default())
    }

    #[test]
    fn sample_is_distinct_and_bounded() {
        let p = prober();
        let cands: Vec<Endpoint> = (1..=10).map(ep).collect();
        let mut rng = Rng::seed_from_u64(5);
        for _ in 0..200 {
            let picks = p.sample(&cands, &mut rng);
            assert_eq!(picks.len(), 3);
            assert!(picks.iter().all(|b| cands.contains(b)));
            let mut uniq = picks.clone();
            uniq.sort();
            uniq.dedup();
            assert_eq!(uniq.len(), picks.len(), "distinct");
        }
        // Fewer candidates than d: sample them all.
        assert_eq!(p.sample(&cands[..2], &mut rng).len(), 2);
        assert!(p.sample(&[], &mut rng).is_empty());
    }

    #[test]
    fn sample_is_deterministic_for_seed() {
        let p = prober();
        let cands: Vec<Endpoint> = (1..=10).map(ep).collect();
        let mut a = Rng::seed_from_u64(9);
        let mut b = Rng::seed_from_u64(9);
        for _ in 0..50 {
            assert_eq!(p.sample(&cands, &mut a), p.sample(&cands, &mut b));
        }
    }

    #[test]
    fn reply_clears_outstanding_and_quarantine() {
        let mut p = prober();
        let t0 = SimTime::ZERO;
        let tag = p.begin(ep(1));
        assert_eq!(p.on_reply(tag, t0), Some(ep(1)));
        assert_eq!(p.on_reply(tag, t0), None, "tag consumed");
        assert_eq!(p.on_timeout(tag, t0), None, "reply beat the timeout");
        assert_eq!(p.probes_answered, 1);
        assert_eq!(p.probes_timed_out, 0);
    }

    #[test]
    fn timeout_quarantines_and_lapses() {
        let mut p = prober();
        let t0 = SimTime::ZERO;
        let tag = p.begin(ep(2));
        let t1 = t0 + p.cfg.timeout;
        assert_eq!(p.on_timeout(tag, t1), Some(ep(2)));
        assert!(p.is_quarantined(ep(2), t1));
        assert_eq!(p.quarantined(t1), vec![ep(2)]);
        // Quarantine lapses after the configured duration.
        let t2 = t1 + p.cfg.quarantine;
        assert!(!p.is_quarantined(ep(2), t2));
        p.release_expired(t2);
        assert!(p.quarantined(t2).is_empty());
    }

    #[test]
    fn recovery_reply_ends_quarantine_early() {
        let mut p = prober();
        let t0 = SimTime::ZERO;
        let tag = p.begin(ep(3));
        p.on_timeout(tag, t0 + p.cfg.timeout);
        assert!(p.is_quarantined(ep(3), t0 + p.cfg.timeout));
        // A later probe answered by the backend readmits it immediately.
        let tag2 = p.begin(ep(3));
        assert_eq!(p.on_reply(tag2, t0 + p.cfg.quarantine), Some(ep(3)));
        assert!(!p.is_quarantined(ep(3), t0 + p.cfg.quarantine));
    }
}
