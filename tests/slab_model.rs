//! `Slab` against a `BTreeMap` model.
//!
//! A TCP stack's sockets live in a slab that their `ConnId` indexes, so a
//! handle that outlived its connection must find nothing — after the
//! remove, and again once the slot holds a newer connection. Random
//! insert, remove, get and get_mut sequences, sized to cross several
//! pages and to refill freed slots, check every answer against a map of
//! the live keys and a list of every key removed, and that the slab
//! never holds more slots than it ever held values at once.

use std::collections::BTreeMap;

use yoda::netsim::PAGE_LEN;
use yoda::netsim::{Rng, Slab, SlabKey};

fn slot(key: SlabKey) -> u64 {
    key.to_bits() & u64::from(u32::MAX)
}

#[test]
fn slab_matches_a_map_and_rejects_stale_handles() {
    for seed in 0..8u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let mut slab: Slab<u64> = Slab::new();
        let mut live: BTreeMap<SlabKey, u64> = BTreeMap::new();
        let mut dead: Vec<SlabKey> = Vec::new();
        let (mut inserts, mut reused_seen, mut peak) = (0u32, false, 0);
        // Grow past three pages, shrink, grow again: freed slots refill.
        let target = |step: usize| match step / 4_000 {
            0 | 2 => PAGE_LEN * 3 + 17,
            _ => 40,
        };
        for step in 0..12_000 {
            let grow = live.len() < target(step);
            match rng.gen_range(0..10u32) {
                0..=3 if grow || live.is_empty() => {
                    let value = rng.next_u64();
                    let key = slab.insert(value);
                    inserts += 1;
                    assert_eq!(key.serial(), inserts, "serial counts inserts");
                    assert!(live.insert(key, value).is_none(), "key handed out twice");
                    // A new slot only when every slot is taken: no leaks.
                    peak = peak.max(live.len() as u64);
                    assert!(
                        slot(key) < peak,
                        "slot {} with {peak} live at most",
                        slot(key)
                    );
                    reused_seen |= dead.iter().any(|d| slot(*d) == slot(key));
                }
                0..=5 if !live.is_empty() => {
                    let nth = rng.gen_range(0..live.len());
                    let key = *live.keys().nth(nth).unwrap();
                    assert_eq!(slab.remove(key), live.remove(&key));
                    assert_eq!(slab.remove(key), None, "removed twice");
                    dead.push(key);
                }
                6 if !live.is_empty() => {
                    let nth = rng.gen_range(0..live.len());
                    let (key, value) = live.iter_mut().nth(nth).unwrap();
                    let bumped = value.wrapping_add(1);
                    *slab.get_mut(*key).unwrap() = bumped;
                    *value = bumped;
                }
                7 | 8 if !dead.is_empty() => {
                    let key = dead[rng.gen_range(0..dead.len())];
                    assert_eq!(slab.get(key), None, "stale handle answered");
                    assert!(slab.get_mut(key).is_none(), "stale handle answered");
                }
                _ => {
                    let bits = rng.next_u64();
                    let key = SlabKey::from_bits(bits);
                    assert_eq!(slab.get(key), live.get(&key), "arbitrary bits");
                }
            }
            assert_eq!(slab.len(), live.len());
        }
        for (key, value) in &live {
            assert_eq!(slab.get(*key), Some(value));
        }
        assert!(reused_seen, "seed {seed}: no freed slot was ever refilled");
        assert!(dead.iter().all(|k| slab.get(*k).is_none()));
    }
}
