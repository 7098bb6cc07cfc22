//! Periodic in-simulation sampling.
//!
//! Several figures plot a quantity over simulated time (Figure 13's CPU
//! and request rate, Figure 14's per-server traffic split). A
//! [`TimeSeries`] schedules a closure at a fixed period that reads node
//! state and records a row.

use std::sync::{Arc, Mutex};

use yoda_netsim::{Engine, SimTime};

/// One sampled row: the time it was taken and the sampled values.
pub(crate) type Row = (SimTime, Vec<f64>);

/// A shared, periodically-appended series of `(time, values)` rows.
///
/// Backed by `Arc<Mutex<…>>` rather than `Rc<RefCell<…>>`: the sampling
/// closures ride the engine's event queue, and `Engine::schedule` requires
/// `Send`. The mutex is never contended — one engine runs on one thread —
/// so the cost is an uncontended lock per sample, which is noise next to
/// the sampling closure itself.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    rows: Arc<Mutex<Vec<Row>>>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Schedules `sample` to run every `period` from `start` until `end`,
    /// appending its returned values as a row.
    pub fn install(
        &self,
        engine: &mut Engine,
        start: SimTime,
        period: SimTime,
        end: SimTime,
        sample: impl Fn(&mut Engine) -> Vec<f64> + Clone + Send + 'static,
    ) {
        let mut t = start;
        while t <= end {
            let rows = self.rows.clone();
            let sample = sample.clone();
            engine.schedule(t, move |eng| {
                let values = sample(eng);
                rows.lock()
                    .expect("sampler poisoned")
                    .push((eng.now(), values));
            });
            t += period;
        }
    }

    /// The collected rows.
    pub fn rows(&self) -> Vec<Row> {
        self.rows.lock().expect("sampler poisoned").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yoda_netsim::Topology;

    #[test]
    fn samples_at_period() {
        let mut eng = Engine::with_topology(1, Topology::uniform(SimTime::from_millis(1)));
        let series = TimeSeries::new();
        series.install(
            &mut eng,
            SimTime::ZERO,
            SimTime::from_secs(1),
            SimTime::from_secs(5),
            |eng| vec![eng.now().as_secs_f64()],
        );
        eng.run_for(SimTime::from_secs(10));
        let rows = series.rows();
        assert_eq!(rows.len(), 6); // t = 0..=5
        assert_eq!(rows[3].1[0], 3.0);
    }
}
