//! Consistent hashing with K-replica selection.
//!
//! "For any TCPStore operation, the Memcached client first determines the
//! K servers among the total N servers using K different hash functions,
//! and consistent hashing." (paper §6)
//!
//! [`HashRing`] places each server at `vnodes` points on a 64-bit ring;
//! [`HashRing::replicas`] hashes the key with K distinct seeds and walks
//! the ring from each digest, skipping duplicates so the K replicas land
//! on K distinct servers whenever K ≤ N.

use yoda_netsim::hash_bytes;
use yoda_netsim::Addr;

/// A consistent-hashing ring over store servers.
///
/// # Examples
///
/// ```
/// use yoda_tcpstore::HashRing;
/// use yoda_netsim::Addr;
///
/// let servers: Vec<Addr> = (1..=10).map(|i| Addr::new(10, 0, 1, i)).collect();
/// let ring = HashRing::new(&servers, 100);
/// let mut replicas = Vec::new();
/// ring.replicas(b"flow:172.16.0.1:40000", 2, &mut replicas);
/// assert_eq!(replicas.len(), 2);
/// assert_ne!(replicas[0], replicas[1]);
/// ```
#[derive(Debug, Clone)]
pub struct HashRing {
    /// (ring position, server) sorted by position.
    points: Vec<(u64, Addr)>,
    servers: Vec<Addr>,
}

impl HashRing {
    /// Builds a ring with `vnodes` virtual nodes per server.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty or `vnodes` is zero.
    pub fn new(servers: &[Addr], vnodes: usize) -> Self {
        assert!(!servers.is_empty(), "ring needs at least one server");
        assert!(vnodes > 0, "ring needs at least one vnode per server");
        let mut points = Vec::with_capacity(servers.len() * vnodes);
        for &s in servers {
            for v in 0..vnodes {
                let mut tag = [0u8; 12];
                tag[..4].copy_from_slice(&s.as_u32().to_be_bytes());
                tag[4..].copy_from_slice(&(v as u64).to_be_bytes());
                points.push((hash_bytes(0x51EE7, &tag), s));
            }
        }
        points.sort_unstable();
        points.dedup_by_key(|p| p.0);
        HashRing {
            points,
            servers: servers.to_vec(),
        }
    }

    /// The server owning `digest`'s position.
    fn successor(&self, digest: u64) -> Addr {
        // partition_point yields idx <= len; len wraps to the ring's start.
        // The constructor guarantees at least one point.
        let idx = self.points.partition_point(|&(p, _)| p < digest);
        self.points
            .get(idx)
            .or_else(|| self.points.first())
            .map_or(Addr::UNSPECIFIED, |&(_, s)| s)
    }

    /// Selects `k` distinct replica servers for `key` using `k` seeded
    /// hash functions, into `out` (cleared first: the caller reuses one
    /// buffer). When `k > N` the result has N entries.
    pub fn replicas(&self, key: &[u8], k: usize, out: &mut Vec<Addr>) {
        out.clear();
        let mut fn_idx = 0u64;
        // K hash functions; on collision with an already-chosen server,
        // walk the ring to the next point (bounded probing).
        while out.len() < k.min(self.servers.len()) {
            let digest = hash_bytes(fn_idx, key);
            let mut candidate = self.successor(digest);
            if out.contains(&candidate) {
                // Probe forward along the ring for the next distinct server.
                let mut idx = self.points.partition_point(|&(p, _)| p < digest);
                let mut steps = 0;
                while out.contains(&candidate) && steps < self.points.len() {
                    idx += 1;
                    if let Some(&(_, next)) = self.points.get(idx % self.points.len()) {
                        candidate = next;
                    }
                    steps += 1;
                }
            }
            if !out.contains(&candidate) {
                out.push(candidate);
            }
            fn_idx += 1;
        }
    }

    /// The primary server for a key (first hash function).
    pub fn primary(&self, key: &[u8]) -> Addr {
        self.successor(hash_bytes(0, key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The replica set as a fresh vector, filled through a buffer that
    /// starts out stale (as a reused one does).
    fn replica_set(ring: &HashRing, key: &[u8], k: usize) -> Vec<Addr> {
        let mut out = vec![Addr::UNSPECIFIED; 7];
        ring.replicas(key, k, &mut out);
        out
    }

    fn servers(n: u8) -> Vec<Addr> {
        (1..=n).map(|i| Addr::new(10, 0, 1, i)).collect()
    }

    #[test]
    fn replicas_are_distinct() {
        let ring = HashRing::new(&servers(10), 64);
        for i in 0..500 {
            let key = format!("key-{i}");
            let reps = replica_set(&ring, key.as_bytes(), 3);
            assert_eq!(reps.len(), 3);
            assert_ne!(reps[0], reps[1]);
            assert_ne!(reps[1], reps[2]);
            assert_ne!(reps[0], reps[2]);
        }
    }

    #[test]
    fn k_capped_by_server_count() {
        let ring = HashRing::new(&servers(2), 16);
        let reps = replica_set(&ring, b"k", 5);
        assert_eq!(reps.len(), 2);
    }

    #[test]
    fn deterministic_selection() {
        let ring1 = HashRing::new(&servers(10), 64);
        let ring2 = HashRing::new(&servers(10), 64);
        for i in 0..100 {
            let key = format!("key-{i}");
            assert_eq!(
                replica_set(&ring1, key.as_bytes(), 2),
                replica_set(&ring2, key.as_bytes(), 2)
            );
        }
    }

    #[test]
    fn load_roughly_balanced() {
        let ring = HashRing::new(&servers(10), 128);
        let mut counts = std::collections::BTreeMap::new();
        const N: usize = 20_000;
        for i in 0..N {
            let key = format!("flow:{i}");
            *counts.entry(ring.primary(key.as_bytes())).or_insert(0usize) += 1;
        }
        for (&s, &c) in &counts {
            let share = c as f64 / N as f64;
            assert!(
                share > 0.03 && share < 0.25,
                "server {s} got share {share:.3}"
            );
        }
        assert_eq!(counts.len(), 10, "all servers used");
    }

    #[test]
    fn removal_remaps_only_lost_keys() {
        // Consistent hashing: removing one server must not move keys whose
        // primary survives.
        let all = servers(10);
        let ring_full = HashRing::new(&all, 128);
        let reduced: Vec<Addr> = all.iter().copied().filter(|a| *a != all[3]).collect();
        let ring_less = HashRing::new(&reduced, 128);
        let mut moved_but_should_not = 0;
        let mut total_stable = 0;
        for i in 0..5000 {
            let key = format!("flow:{i}");
            let before = ring_full.primary(key.as_bytes());
            if before != all[3] {
                total_stable += 1;
                if ring_less.primary(key.as_bytes()) != before {
                    moved_but_should_not += 1;
                }
            }
        }
        assert_eq!(
            moved_but_should_not, 0,
            "{moved_but_should_not}/{total_stable} stable keys moved"
        );
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_ring_panics() {
        HashRing::new(&[], 10);
    }

    #[test]
    fn single_server_ring_returns_it_for_any_k() {
        let only = Addr::new(10, 0, 1, 1);
        let ring = HashRing::new(&[only], 16);
        for k in [1usize, 2, 5] {
            for i in 0..50 {
                let key = format!("key-{i}");
                assert_eq!(replica_set(&ring, key.as_bytes(), k), vec![only]);
            }
        }
        assert_eq!(ring.primary(b"anything"), only);
    }

    #[test]
    fn k_exceeding_servers_returns_all_distinct() {
        // k far beyond N: every server appears exactly once, none twice.
        let all = servers(4);
        let ring = HashRing::new(&all, 32);
        for i in 0..200 {
            let key = format!("key-{i}");
            let mut reps = replica_set(&ring, key.as_bytes(), 100);
            assert_eq!(reps.len(), 4);
            reps.sort();
            reps.dedup();
            assert_eq!(reps.len(), 4, "replicas must be distinct");
        }
    }

    #[test]
    fn replica_sets_stable_when_unrelated_server_added() {
        // Adding a server may pull some keys onto *it*, but must never
        // shuffle a key between two pre-existing servers: any change to a
        // key's replica set involves the new server.
        let old = servers(9);
        let mut grown = old.clone();
        let newcomer = Addr::new(10, 0, 1, 10);
        grown.push(newcomer);
        let ring_old = HashRing::new(&old, 128);
        let ring_new = HashRing::new(&grown, 128);
        let mut disrupted = 0;
        for i in 0..3000 {
            let key = format!("flow:{i}");
            let before = replica_set(&ring_old, key.as_bytes(), 2);
            let after = replica_set(&ring_new, key.as_bytes(), 2);
            if before != after {
                assert!(
                    after.contains(&newcomer),
                    "key {key}: {before:?} -> {after:?} without involving the new server"
                );
                disrupted += 1;
            }
        }
        // Consistent hashing bounds churn to roughly K/N of keys.
        assert!(
            (disrupted as f64) < 3000.0 * 0.5,
            "{disrupted}/3000 replica sets changed"
        );
    }

    #[test]
    fn hash_seeds_decorrelate() {
        let a = hash_bytes(0, b"same-key");
        let b = hash_bytes(1, b"same-key");
        assert_ne!(a, b);
    }
}
