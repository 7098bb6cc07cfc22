//! `FlowTable` against a `BTreeMap` model.
//!
//! The table replaced ordered maps on every per-packet lookup, so it must
//! be observably the same map: same answers to every operation, same
//! contents, and — through `sorted_keys`, the only way to enumerate it —
//! the same walk order. Keys are drawn the way production draws them: a
//! few client subnets, a couple of VIPs, a window of ephemeral ports, so
//! many keys differ in one octet or one port and bucket collisions are
//! the normal case, not the exception.

use std::collections::BTreeMap;

use yoda::netsim::{Addr, Endpoint, FlowTable, Rng};

type Key = (Endpoint, Endpoint);

/// A 4-tuple from a clustered space of `4 * hosts * ports * 2` keys.
fn key(rng: &mut Rng, hosts: u32, ports: u32) -> Key {
    let host = rng.gen_range(0..hosts);
    let client = Endpoint::new(
        Addr::new(
            172,
            16 + rng.gen_range(0..4u32) as u8,
            (host >> 8) as u8,
            host as u8,
        ),
        (33_000 + rng.gen_range(0..ports)) as u16,
    );
    let vip = Endpoint::new(Addr::new(100, 0, 0, 1 + rng.gen_range(0..2u32) as u8), 80);
    (client, vip)
}

/// Applies one random operation to both maps and compares what it
/// returned.
fn step(rng: &mut Rng, table: &mut FlowTable<Key, u64>, model: &mut BTreeMap<Key, u64>, k: Key) {
    let v = rng.next_u64();
    match rng.gen_range(0..100u32) {
        // Insert or overwrite.
        0..=39 => assert_eq!(table.insert(k, v), model.insert(k, v)),
        40..=69 => assert_eq!(table.remove(&k), model.remove(&k)),
        70..=84 => {
            assert_eq!(table.get(&k), model.get(&k));
            assert_eq!(table.contains_key(&k), model.contains_key(&k));
        }
        85..=92 => {
            if let Some(slot) = table.get_mut(&k) {
                *slot ^= v;
            }
            if let Some(slot) = model.get_mut(&k) {
                *slot ^= v;
            }
        }
        93..=97 => {
            let got = *table.get_or_insert_with(k, || v);
            assert_eq!(got, *model.entry(k).or_insert(v));
        }
        // A sweep: drop an arbitrary eighth, decided per entry.
        98 => {
            table.retain(|_, val| *val % 8 != v % 8);
            model.retain(|_, val| *val % 8 != v % 8);
        }
        // A walk: selected keys come back in `BTreeMap` order.
        _ => {
            let want: Vec<Key> = model
                .iter()
                .filter(|(_, val)| **val % 2 == v % 2)
                .map(|(k, _)| *k)
                .collect();
            assert_eq!(table.sorted_keys(|_, val| *val % 2 == v % 2), want);
            assert_eq!(
                table.any(|_, val| *val == v),
                model.values().any(|val| *val == v)
            );
        }
    }
    assert_eq!(table.len(), model.len());
    assert_eq!(table.is_empty(), model.is_empty());
}

fn assert_same(table: &FlowTable<Key, u64>, model: &BTreeMap<Key, u64>) {
    let keys: Vec<Key> = model.keys().copied().collect();
    assert_eq!(table.sorted_keys(|_, _| true), keys);
    for (k, v) in model {
        assert_eq!(table.get(k), Some(v));
    }
}

#[test]
fn ten_thousand_random_sequences_match_the_model() {
    // Small key spaces (8..=263 keys) so every sequence overwrites,
    // removes and re-inserts the same keys many times over.
    for seed in 0..10_000u64 {
        let mut rng = Rng::seed_from_u64(0xF10E ^ seed);
        let (hosts, ports) = (1 + rng.gen_range(0..4u32), 1 + rng.gen_range(0..8u32));
        let (mut table, mut model) = (FlowTable::new(), BTreeMap::new());
        for _ in 0..rng.gen_range(20..200u32) {
            let k = key(&mut rng, hosts, ports);
            step(&mut rng, &mut table, &mut model, k);
        }
        assert_same(&table, &model);
    }
}

#[test]
fn growth_through_many_doublings_matches_the_model() {
    // 2M possible keys, insert-heavy until ~100K are live: the table
    // doubles a dozen times with every entry rehashed each time.
    let mut rng = Rng::seed_from_u64(7);
    let (mut table, mut model) = (FlowTable::new(), BTreeMap::new());
    let mut doublings = 0;
    while model.len() < 100_000 {
        let before = table.capacity();
        let k = key(&mut rng, 1 << 10, 1 << 8);
        let v = rng.next_u64();
        assert_eq!(table.insert(k, v), model.insert(k, v));
        doublings += u32::from(table.capacity() > before);
        if rng.gen_range(0..4u32) == 0 {
            let k = key(&mut rng, 1 << 10, 1 << 8);
            assert_eq!(table.remove(&k), model.remove(&k));
            assert_eq!(table.get(&k), None);
        }
    }
    assert!(doublings >= 10, "only {doublings} doublings");
    assert_same(&table, &model);
}

/// A population of live connections, held in the table and the model.
#[derive(Default)]
struct Population {
    table: FlowTable<Key, u64>,
    model: BTreeMap<Key, u64>,
    live: Vec<Key>,
    /// Largest `capacity` seen right after an insert: a resize rehashes
    /// every entry, so that is when it shows the table's true size.
    peak: usize,
}

impl Population {
    fn connect(&mut self, rng: &mut Rng) {
        let k = key(rng, 1 << 10, 1 << 8);
        if self.model.insert(k, 0).is_none() {
            self.live.push(k);
        }
        self.table.insert(k, 0);
        self.peak = self.peak.max(self.table.capacity());
    }

    fn disconnect(&mut self, at: usize) {
        let k = self.live.swap_remove(at);
        assert_eq!(self.table.remove(&k), self.model.remove(&k));
    }
}

#[test]
fn churn_returns_to_empty_without_growing_the_table() {
    // A flow table's steady state: connections come and go around a fixed
    // population. Capacity must settle during the first round and stay
    // there — deletions may not leave the table needing ever more room.
    let mut rng = Rng::seed_from_u64(11);
    let mut p = Population::default();
    let mut settled = 0;
    for round in 0..20 {
        while p.live.len() < 5_000 {
            p.connect(&mut rng);
        }
        // Steady churn at full population: one out, one in.
        for _ in 0..20_000 {
            p.disconnect(rng.gen_range(0..p.live.len() as u64) as usize);
            p.connect(&mut rng);
        }
        assert_same(&p.table, &p.model);
        // Drain to nothing.
        while !p.live.is_empty() {
            p.disconnect(0);
        }
        assert_eq!((p.table.len(), p.table.is_empty()), (0, true));
        if round == 0 {
            settled = p.peak;
            assert!((5_000..4 * 5_000).contains(&settled), "capacity {settled}");
        }
        assert_eq!(p.peak, settled, "the table grew in round {round}");
    }
}
