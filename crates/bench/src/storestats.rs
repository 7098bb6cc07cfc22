//! Aggregated TCPStore-client statistics for the experiment binaries.
//!
//! Every Yoda instance embeds a [`StoreClient`] that counts, per replica,
//! the responses it received and the ops that replica let run into their
//! deadline. The benches fold the views of all instances into one
//! [`StoreStatsSummary`] so a run can print which replica was silent.

use std::collections::BTreeMap;

use yoda_netsim::Addr;
use yoda_tcpstore::{ReplicaStat, StoreClient};

use crate::report::Table;

/// Store-client statistics summed across many clients (one per Yoda
/// instance), with the per-replica breakdown preserved.
#[derive(Debug, Default, Clone)]
pub struct StoreStatsSummary {
    /// Per-replica stats, summed across clients.
    pub(crate) per_replica: BTreeMap<Addr, ReplicaStat>,
    /// Operations that no replica answered within the op timeout.
    pub timeouts: u64,
}

impl StoreStatsSummary {
    /// Folds one client's counters and per-replica view into the summary.
    pub fn absorb(&mut self, client: &StoreClient) {
        self.timeouts += client.timeouts;
        for (&addr, s) in client.replica_stats() {
            let e = self.per_replica.entry(addr).or_default();
            e.samples += s.samples;
            e.timeouts += s.timeouts;
        }
    }

    /// Renders the per-replica breakdown as a printable table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(&["replica", "samples", "timeouts"]);
        for (addr, s) in &self.per_replica {
            t.row(&[
                addr.to_string(),
                s.samples.to_string(),
                s.timeouts.to_string(),
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
        b.timeouts = 1;
        let mut sum = StoreStatsSummary::default();
        sum.absorb(&a);
        sum.absorb(&b);
        assert_eq!(sum.timeouts, 3);
        // Fresh clients have no replica samples yet; the table still
        // renders (possibly empty) without panicking.
        sum.table().print();
    }
}
