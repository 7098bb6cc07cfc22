//! Aggregated TCPStore-client statistics for the experiment binaries.
//!
//! Every Yoda instance embeds a [`StoreClient`] whose per-replica health
//! view (latency EWMA, timeouts, hedges, retries, quarantines) drives the
//! gray-failure machinery. The benches fold the views of all instances
//! into one [`StoreStatsSummary`] so a run can print which replica was
//! slow, how often the hedge fired, and what the retry traffic cost.

use std::collections::BTreeMap;

use yoda_netsim::{Addr, SimTime};
use yoda_tcpstore::{ReplicaStat, StoreClient};

use crate::report::Table;

/// Store-client statistics summed across many clients (one per Yoda
/// instance), with the per-replica breakdown preserved.
#[derive(Debug, Default, Clone)]
pub struct StoreStatsSummary {
    /// Per-replica stats, merged across clients (EWMA sample-weighted).
    pub(crate) per_replica: BTreeMap<Addr, ReplicaStat>,
    /// Operations that timed out entirely (all retries exhausted).
    pub timeouts: u64,
    /// Hedged reads fired.
    pub hedges: u64,
    /// Background repair sends fired.
    pub retries: u64,
    /// Replica quarantine entries.
    pub quarantines: u64,
    /// Under-acked writes abandoned after the retry budget.
    pub(crate) repairs_abandoned: u64,
}

impl StoreStatsSummary {
    /// Folds one client's counters and per-replica view into the summary.
    pub fn absorb(&mut self, client: &StoreClient) {
        self.timeouts += client.timeouts;
        self.hedges += client.hedges;
        self.retries += client.retries;
        self.quarantines += client.quarantines;
        self.repairs_abandoned += client.repairs_abandoned;
        for (&addr, s) in client.replica_stats() {
            let e = self.per_replica.entry(addr).or_insert_with(|| ReplicaStat {
                ewma: SimTime::ZERO,
                samples: 0,
                timeouts: 0,
                hedges: 0,
                retries: 0,
                quarantines: 0,
                misses_in_a_row: 0,
                quarantined_until: SimTime::ZERO,
            });
            let total = e.samples + s.samples;
            // Sample-weighted merge keeps the column meaningful when
            // clients saw the replica unevenly.
            let weighted = e.ewma.as_micros() * e.samples + s.ewma.as_micros() * s.samples;
            if let Some(mean) = weighted.checked_div(total) {
                e.ewma = SimTime::from_micros(mean);
            }
            e.samples = total;
            e.timeouts += s.timeouts;
            e.hedges += s.hedges;
            e.retries += s.retries;
            e.quarantines += s.quarantines;
        }
    }

    /// Renders the per-replica breakdown as a printable table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(&[
            "replica",
            "ewma (ms)",
            "samples",
            "timeouts",
            "hedges",
            "retries",
            "quarantines",
        ]);
        for (addr, s) in &self.per_replica {
            t.row(&[
                addr.to_string(),
                format!("{:.3}", s.ewma.as_micros() as f64 / 1000.0),
                s.samples.to_string(),
                s.timeouts.to_string(),
                s.hedges.to_string(),
                s.retries.to_string(),
                s.quarantines.to_string(),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yoda_netsim::Endpoint;

    #[test]
    fn absorb_merges_counters_and_replicas() {
        let servers = [Addr::new(10, 0, 1, 1), Addr::new(10, 0, 1, 2)];
        let me = Endpoint::new(Addr::new(10, 0, 0, 1), 7000);
        let mut a = StoreClient::new(2, me, &servers);
        let mut b = StoreClient::new(2, me, &servers);
        a.timeouts = 2;
        a.hedges = 3;
        b.timeouts = 1;
        b.retries = 5;
        let mut sum = StoreStatsSummary::default();
        sum.absorb(&a);
        sum.absorb(&b);
        assert_eq!(sum.timeouts, 3);
        assert_eq!(sum.hedges, 3);
        assert_eq!(sum.retries, 5);
        // Fresh clients have no replica samples yet; the table still
        // renders (possibly empty) without panicking.
        sum.table().print();
    }
}
