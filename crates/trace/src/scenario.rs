//! Deterministic workload scenarios for the adaptive-balancing study
//! (`fig17_adaptive_tail`, beyond the paper).
//!
//! The paper's trace drives VIP *assignment*; this module instead scripts
//! per-backend *capacity* over time plus a bursty open-loop arrival
//! process, the two ingredients the Prequal-style policy in
//! `yoda-balance` must cope with:
//!
//! * [`AdaptiveScenario`] — per-backend speed-factor phases: every
//!   backend serves at factor 1.0 except where a phase says otherwise
//!   (a factor of 5.0 means 5×-slower service).
//! * [`BurstyLoad`] — a square-wave request rate alternating between a
//!   base and a burst level with a fixed period and duty cycle.
//!
//! Both are pure functions of time, so a run is reproducible from the
//! scenario parameters alone.

use yoda_netsim::SimTime;

/// One scripted capacity phase for one backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SpeedPhase {
    /// Index of the backend this phase applies to.
    pub(crate) backend: usize,
    /// Phase start (inclusive).
    pub(crate) from: SimTime,
    /// Phase end (exclusive); `SimTime::MAX`-like sentinels are fine.
    pub(crate) until: SimTime,
    /// Service-time multiplier during the phase (1.0 = nominal,
    /// 5.0 = five times slower).
    pub(crate) factor: f64,
}

/// A scripted heterogeneous-backend scenario: phases override the
/// nominal speed factor of individual backends over time windows.
#[derive(Debug, Clone, Default)]
pub struct AdaptiveScenario {
    phases: Vec<SpeedPhase>,
}

impl AdaptiveScenario {
    /// A scenario where every backend is nominal forever.
    pub fn uniform() -> Self {
        AdaptiveScenario::default()
    }

    /// A scenario where `backend` is `factor`× slower for the whole run.
    pub fn one_slow(backend: usize, factor: f64, run: SimTime) -> Self {
        AdaptiveScenario {
            phases: vec![SpeedPhase {
                backend,
                from: SimTime::ZERO,
                until: run,
                factor,
            }],
        }
    }

    /// A scenario where `backend` degrades to `factor`× at `from` and
    /// recovers at `until` (the mid-run brownout case).
    pub fn degrade_recover(backend: usize, factor: f64, from: SimTime, until: SimTime) -> Self {
        AdaptiveScenario {
            phases: vec![SpeedPhase {
                backend,
                from,
                until,
                factor,
            }],
        }
    }

    /// The speed factor of `backend` at `now` (1.0 when no phase applies).
    pub fn factor_at(&self, backend: usize, now: SimTime) -> f64 {
        self.phases
            .iter()
            .rev()
            .find(|p| p.backend == backend && p.from <= now && now < p.until)
            .map(|p| p.factor)
            .unwrap_or(1.0)
    }

    /// The times at which any backend's factor changes (phase edges),
    /// deduplicated and sorted — the moments a harness must reapply
    /// factors to the simulated servers.
    pub fn edges(&self) -> Vec<SimTime> {
        let mut edges: Vec<SimTime> = self.phases.iter().flat_map(|p| [p.from, p.until]).collect();
        edges.sort_unstable();
        edges.dedup();
        edges
    }
}

/// A square-wave open-loop request rate: `base_rps` normally,
/// `burst_rps` during the first `duty` fraction of every `period`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstyLoad {
    /// Baseline request rate.
    pub base_rps: f64,
    /// Burst request rate.
    pub burst_rps: f64,
    /// Square-wave period.
    pub period: SimTime,
    /// Fraction of the period spent at the burst level, in `[0, 1]`.
    pub duty: f64,
}

impl BurstyLoad {
    /// The request rate at `now`.
    pub fn rate_at(&self, now: SimTime) -> f64 {
        let period = self.period.as_micros().max(1);
        let phase = (now.as_micros() % period) as f64 / period as f64;
        if phase < self.duty.clamp(0.0, 1.0) {
            self.burst_rps
        } else {
            self.base_rps
        }
    }

    /// The times in `[0, run)` at which the rate changes (period and
    /// duty edges), sorted.
    pub fn edges(&self, run: SimTime) -> Vec<SimTime> {
        let mut out = Vec::new();
        let period = self.period.as_micros().max(1);
        let duty_off = (period as f64 * self.duty.clamp(0.0, 1.0)) as u64;
        let mut start = 0u64;
        while start < run.as_micros() {
            out.push(SimTime::from_micros(start));
            let off = start + duty_off;
            if duty_off > 0 && off < run.as_micros() {
                out.push(SimTime::from_micros(off));
            }
            start += period;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_nominal_everywhere() {
        let s = AdaptiveScenario::uniform();
        for b in 0..6 {
            assert_eq!(s.factor_at(b, SimTime::from_secs(3)), 1.0);
        }
        assert!(s.edges().is_empty());
    }

    #[test]
    fn one_slow_applies_to_one_backend() {
        let run = SimTime::from_secs(20);
        let s = AdaptiveScenario::one_slow(2, 5.0, run);
        assert_eq!(s.factor_at(2, SimTime::from_secs(1)), 5.0);
        assert_eq!(s.factor_at(1, SimTime::from_secs(1)), 1.0);
        assert_eq!(s.factor_at(2, run), 1.0, "phase end is exclusive");
    }

    #[test]
    fn degrade_recover_windows() {
        let s = AdaptiveScenario::degrade_recover(
            0,
            4.0,
            SimTime::from_secs(6),
            SimTime::from_secs(14),
        );
        assert_eq!(s.factor_at(0, SimTime::from_secs(5)), 1.0);
        assert_eq!(s.factor_at(0, SimTime::from_secs(6)), 4.0);
        assert_eq!(s.factor_at(0, SimTime::from_secs(13)), 4.0);
        assert_eq!(s.factor_at(0, SimTime::from_secs(14)), 1.0);
        assert_eq!(
            s.edges(),
            vec![SimTime::from_secs(6), SimTime::from_secs(14)]
        );
    }

    #[test]
    fn bursty_square_wave() {
        let l = BurstyLoad {
            base_rps: 100.0,
            burst_rps: 400.0,
            period: SimTime::from_secs(4),
            duty: 0.25,
        };
        assert_eq!(l.rate_at(SimTime::ZERO), 400.0);
        assert_eq!(l.rate_at(SimTime::from_millis(999)), 400.0);
        assert_eq!(l.rate_at(SimTime::from_secs(1)), 100.0);
        assert_eq!(l.rate_at(SimTime::from_secs(3)), 100.0);
        assert_eq!(l.rate_at(SimTime::from_secs(4)), 400.0, "wave repeats");
        let edges = l.edges(SimTime::from_secs(8));
        assert_eq!(
            edges,
            vec![
                SimTime::ZERO,
                SimTime::from_secs(1),
                SimTime::from_secs(4),
                SimTime::from_secs(5),
            ]
        );
    }
}
