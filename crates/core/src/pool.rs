//! The per-rule probe pool of Prequal (*Load is not what you should
//! balance*, NSDI 2024, §4), run by [`RuleTable`](crate::RuleTable)'s
//! `action=prequal` arm: skip backends whose requests-in-flight sit above
//! the pool's hot quantile, then pick the lowest latency estimate.
//!
//! A small bounded pool of the freshest probe results. Three eviction
//! paths keep it honest:
//!
//! * **staleness** — entries older than `MAX_AGE` are dropped before
//!   every selection, so decisions never rest on signals from a previous
//!   load regime;
//! * **reuse** — an entry may justify at most `MAX_USES` selections
//!   before it is discarded (a probed RIF is invalidated by the very
//!   requests it attracts);
//! * **replacement** — when the pool is full, the *hottest* entry
//!   (highest RIF, oldest on ties) makes room, keeping the pool biased
//!   towards cold backends.
//!
//! The four bounds are Prequal's own values, not choices a deployment
//! makes.

use yoda_netsim::{Endpoint, SimTime};

/// Maximum entries held (Prequal uses a pool of 16).
const CAPACITY: usize = 16;
/// Entries older than this are evicted.
const MAX_AGE: SimTime = SimTime::from_millis(200);
/// Selections one entry may serve before eviction.
const MAX_USES: u32 = 2;
/// RIF quantile separating cold from hot (Prequal's Δ-quantile).
const HOT_QUANTILE: f64 = 0.84;

/// What a probe learned about one backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Signal {
    /// Requests in flight at the backend.
    pub(crate) rif: u32,
    /// Latency estimate for a request sent now (the origin server's
    /// service-latency EWMA, piggybacked on probe replies).
    pub(crate) latency_est: SimTime,
    /// When this signal was sampled.
    pub(crate) last_probe: SimTime,
}

/// One pooled probe result.
#[derive(Debug, Clone, Copy)]
struct PoolEntry {
    /// The probed backend.
    backend: Endpoint,
    /// Its probed signal.
    sig: Signal,
    /// Selections this entry has justified so far.
    uses: u32,
}

/// A bounded pool of recent probe results for one rule.
#[derive(Debug, Clone, Default)]
pub(crate) struct ProbePool {
    entries: Vec<PoolEntry>,
}

impl ProbePool {
    /// Number of pooled entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Admits a fresh probe result, replacing any previous entry for the
    /// same backend. When the pool is full, the hottest entry (highest
    /// RIF, oldest on ties) is evicted to make room.
    pub(crate) fn admit(&mut self, backend: Endpoint, sig: Signal) {
        self.entries.retain(|e| e.backend != backend);
        if self.entries.len() >= CAPACITY {
            if let Some(worst) = self
                .entries
                .iter()
                .enumerate()
                .max_by_key(|(_, e)| (e.sig.rif, std::cmp::Reverse(e.sig.last_probe)))
                .map(|(i, _)| i)
            {
                self.entries.remove(worst);
            }
        }
        self.entries.push(PoolEntry {
            backend,
            sig,
            uses: 0,
        });
    }

    /// Drops entries older than the staleness bound.
    pub(crate) fn evict_stale(&mut self, now: SimTime) {
        self.entries
            .retain(|e| now.saturating_sub(e.sig.last_probe) <= MAX_AGE);
    }

    /// Removes every entry for `backend` (death or quarantine).
    pub(crate) fn purge(&mut self, backend: Endpoint) {
        self.entries.retain(|e| e.backend != backend);
    }

    /// Hot-cold lexicographic selection among entries whose backend is in
    /// `live`: compute the RIF value at the pool's hot quantile, restrict
    /// to entries at or below it (the cold set), and pick the lowest
    /// latency estimate (ties: lowest RIF, then backend order). The
    /// chosen entry's reuse counter is charged; at `MAX_USES` it is
    /// evicted. Returns `None` when no live entry is pooled.
    pub(crate) fn pick_hot_cold(&mut self, live: &[Endpoint]) -> Option<Endpoint> {
        let candidates: Vec<usize> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| live.contains(&e.backend))
            .map(|(i, _)| i)
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let mut rifs: Vec<u32> = candidates
            .iter()
            .filter_map(|&i| self.entries.get(i).map(|e| e.sig.rif))
            .collect();
        rifs.sort_unstable();
        let rank = ((HOT_QUANTILE * (rifs.len() - 1) as f64).floor() as usize).min(rifs.len() - 1);
        let threshold = rifs.get(rank).copied().unwrap_or(u32::MAX);
        let chosen = candidates
            .into_iter()
            .filter_map(|i| self.entries.get(i).map(|e| (i, *e)))
            .filter(|(_, e)| e.sig.rif <= threshold)
            .min_by(|(_, a), (_, b)| {
                (a.sig.latency_est, a.sig.rif, a.backend).cmp(&(
                    b.sig.latency_est,
                    b.sig.rif,
                    b.backend,
                ))
            })
            .map(|(i, _)| i)?;
        let entry = self.entries.get_mut(chosen)?;
        entry.uses += 1;
        let backend = entry.backend;
        if entry.uses >= MAX_USES {
            self.entries.remove(chosen);
        }
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

    fn sig_at(rif: u32, lat_ms: u64, at_ms: u64) -> Signal {
        Signal {
            rif,
            latency_est: SimTime::from_millis(lat_ms),
            last_probe: SimTime::from_millis(at_ms),
        }
    }

    #[test]
    fn admit_replaces_same_backend() {
        let mut p = ProbePool::default();
        p.admit(ep(1), sig_at(3, 1, 0));
        p.admit(ep(1), sig_at(7, 1, 5));
        assert_eq!(p.len(), 1);
        assert_eq!(p.entries[0].sig.rif, 7);
    }

    #[test]
    fn full_pool_evicts_hottest() {
        let mut p = ProbePool::default();
        for d in 1..=CAPACITY as u8 {
            let rif = if d == 2 { 99 } else { u32::from(d) }; // ep(2) hottest
            p.admit(ep(d), sig_at(rif, 1, 0));
        }
        p.admit(ep(200), sig_at(3, 1, 0));
        assert_eq!(p.len(), CAPACITY);
        assert!(p.entries.iter().all(|e| e.backend != ep(2)));
    }

    #[test]
    fn staleness_eviction() {
        let mut p = ProbePool::default();
        p.admit(ep(1), sig_at(0, 1, 0));
        p.admit(ep(2), sig_at(0, 1, 150));
        p.evict_stale(MAX_AGE + SimTime::from_millis(1));
        assert_eq!(p.len(), 1);
        assert_eq!(p.entries[0].backend, ep(2));
    }

    #[test]
    fn reuse_eviction() {
        let mut p = ProbePool::default();
        p.admit(ep(1), sig_at(0, 1, 0));
        let live = [ep(1)];
        for used in 1..MAX_USES {
            assert_eq!(p.pick_hot_cold(&live), Some(ep(1)));
            assert_eq!(p.len(), 1, "use {used} keeps the entry");
        }
        assert_eq!(p.pick_hot_cold(&live), Some(ep(1)));
        assert_eq!(p.len(), 0, "the last use exhausts it");
        assert_eq!(p.pick_hot_cold(&live), None);
    }

    #[test]
    fn hot_entries_avoided() {
        let mut p = ProbePool::default();
        // The quantile over {0, 1, 40, 50} is 40: ep(4) is the one hot
        // entry, and it is never chosen while a cold one is pooled, though
        // its latency is the lowest. The cold ones go fastest first, each
        // until its uses run out.
        p.admit(ep(1), sig_at(40, 3, 0));
        p.admit(ep(2), sig_at(0, 9, 0));
        p.admit(ep(3), sig_at(1, 4, 0));
        p.admit(ep(4), sig_at(50, 1, 0)); // hot
        let live = [ep(1), ep(2), ep(3), ep(4)];
        for cold in [ep(1), ep(3), ep(2)] {
            for _ in 0..MAX_USES {
                assert_eq!(p.pick_hot_cold(&live), Some(cold));
            }
        }
        assert_eq!(p.pick_hot_cold(&live), Some(ep(4)), "all that is left");
    }

    #[test]
    fn pick_ignores_dead_backends() {
        let mut p = ProbePool::default();
        p.admit(ep(1), sig_at(0, 1, 0));
        p.admit(ep(2), sig_at(0, 2, 0));
        assert_eq!(p.pick_hot_cold(&[ep(2)]), Some(ep(2)));
        p.purge(ep(2));
        assert_eq!(p.pick_hot_cold(&[ep(2)]), None);
    }
}
