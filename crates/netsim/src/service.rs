//! CPU / service-time modelling.
//!
//! Several experiments in the paper hinge on CPU saturation: a Yoda
//! instance saturates at ~12K req/s (§7.1), a Memcached server at ~80K
//! ops/s (Fig. 11), and the autoscaler reacts to CPU utilisation (Fig. 13).
//!
//! [`ServiceQueue`] models a node's CPU as `cores` parallel single-server
//! FIFO queues fed round-robin (matching the paper's per-core nfqueue
//! design where a flow hashes to one core): each unit of work occupies a
//! core for its service time; completion time is when the work finishes.
//! Utilisation over a window is busy-time / (window × cores).

use crate::time::SimTime;

/// A multi-core FIFO service-time model.
///
/// # Examples
///
/// ```
/// use yoda_netsim::{ServiceQueue, SimTime};
///
/// let mut cpu = ServiceQueue::new(1);
/// let done1 = cpu.submit(SimTime::ZERO, SimTime::from_micros(10), 0);
/// let done2 = cpu.submit(SimTime::ZERO, SimTime::from_micros(10), 0);
/// assert_eq!(done1, SimTime::from_micros(10));
/// assert_eq!(done2, SimTime::from_micros(20)); // queued behind the first
/// ```
#[derive(Debug, Clone)]
pub struct ServiceQueue {
    cores: Vec<CoreState>,
    window_start: SimTime,
    window_busy: SimTime,
}

#[derive(Debug, Clone, Copy, Default)]
struct CoreState {
    free_at: SimTime,
}

impl ServiceQueue {
    /// Creates a model with `cores` parallel cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0, "a CPU needs at least one core");
        ServiceQueue {
            cores: vec![CoreState::default(); cores],
            window_start: SimTime::ZERO,
            window_busy: SimTime::ZERO,
        }
    }

    /// Submits a job of length `service` arriving at `now` to the core
    /// selected by `affinity` (e.g. a flow hash, so packets of one
    /// connection stay ordered on one core). Returns its completion time.
    pub fn submit(&mut self, now: SimTime, service: SimTime, affinity: u64) -> SimTime {
        let idx = (affinity % self.cores.len().max(1) as u64) as usize;
        let Some(core) = self.cores.get_mut(idx) else {
            // Unreachable: the constructor guarantees at least one core.
            return now + service;
        };
        let start = now.max(core.free_at);
        let done = start + service;
        core.free_at = done;
        self.window_busy += service;
        done
    }

    /// Instantaneous queueing delay a job with `affinity` would see if
    /// submitted at `now` (0 when the core is idle).
    pub(crate) fn backlog(&self, now: SimTime, affinity: u64) -> SimTime {
        let idx = (affinity % self.cores.len().max(1) as u64) as usize;
        self.cores
            .get(idx)
            .map_or(SimTime::ZERO, |c| c.free_at.saturating_sub(now))
    }

    /// Utilisation since the last [`ServiceQueue::reset_window`] call, in
    /// `[0, 1]` (clipped; backlog can push raw busy-time above the window).
    pub fn utilization(&self, now: SimTime) -> f64 {
        let elapsed = now.saturating_sub(self.window_start).as_micros();
        if elapsed == 0 {
            return 0.0;
        }
        let busy = self.window_busy.as_micros() as f64;
        (busy / (elapsed as f64 * self.cores.len() as f64)).min(1.0)
    }

    /// Starts a new utilisation measurement window at `now`.
    pub fn reset_window(&mut self, now: SimTime) {
        self.window_start = now;
        self.window_busy = SimTime::ZERO;
    }

    /// Whether a job submitted at `now` with `affinity` would wait longer
    /// than `limit` — used to model drop-on-overload.
    pub fn would_exceed(&self, now: SimTime, affinity: u64, limit: SimTime) -> bool {
        self.backlog(now, affinity) > limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_per_core() {
        let mut q = ServiceQueue::new(2);
        // Same affinity => same core => serialized.
        let a = q.submit(SimTime::ZERO, SimTime::from_micros(5), 0);
        let b = q.submit(SimTime::ZERO, SimTime::from_micros(5), 0);
        // Different affinity => other core => parallel.
        let c = q.submit(SimTime::ZERO, SimTime::from_micros(5), 1);
        assert_eq!(a, SimTime::from_micros(5));
        assert_eq!(b, SimTime::from_micros(10));
        assert_eq!(c, SimTime::from_micros(5));
    }

    #[test]
    fn idle_gap_not_counted_busy() {
        let mut q = ServiceQueue::new(1);
        q.submit(SimTime::ZERO, SimTime::from_micros(10), 0);
        // Arrives after the core went idle.
        q.submit(SimTime::from_micros(100), SimTime::from_micros(10), 0);
        assert!((q.utilization(SimTime::from_micros(200)) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn utilization_window_reset() {
        let mut q = ServiceQueue::new(1);
        q.submit(SimTime::ZERO, SimTime::from_micros(50), 0);
        assert!((q.utilization(SimTime::from_micros(100)) - 0.5).abs() < 1e-9);
        q.reset_window(SimTime::from_micros(100));
        assert_eq!(q.utilization(SimTime::from_micros(200)), 0.0);
    }

    #[test]
    fn backlog_and_overload() {
        let mut q = ServiceQueue::new(1);
        q.submit(SimTime::ZERO, SimTime::from_millis(5), 0);
        assert_eq!(q.backlog(SimTime::ZERO, 0), SimTime::from_millis(5));
        assert!(q.would_exceed(SimTime::ZERO, 0, SimTime::from_millis(1)));
        assert!(!q.would_exceed(SimTime::from_millis(5), 0, SimTime::from_millis(1)));
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        ServiceQueue::new(0);
    }
}
