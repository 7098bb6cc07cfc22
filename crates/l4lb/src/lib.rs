//! Ananta-style L4 load balancer (the substrate Yoda rides on).
//!
//! Yoda (paper §3) requires exactly four things of the cloud's L4 LB:
//!
//! 1. **split** incoming VIP traffic across the Yoda instances assigned to
//!    that VIP,
//! 2. keep **per-flow affinity** so a connection's packets keep reaching
//!    the same instance,
//! 3. **re-steer** a flow to a surviving instance when its instance is
//!    removed from the VIP mapping (failure or VIP re-assignment),
//! 4. **SNAT** instance-originated connections so servers see the VIP.
//!
//! This crate implements those four properties with an [`EdgeRouter`]
//! (owns the VIP addresses, ECMP-hashes each connection to a mux) and a
//! pool of [`Mux`] nodes (per-VIP instance lists + a learned flow table,
//! IP-in-IP encapsulation toward instances). Mapping updates are applied
//! **per mux, non-atomically** — the paper's §4.5 transient-overload
//! constraint exists precisely because of this, and the Figure 16(d)
//! experiment measures it.

#![forbid(unsafe_code)]

mod ctrl;
mod mux;
mod router;

pub use ctrl::{CtrlMsg, CTRL_PORT};
pub use mux::{FlowKey, Mux};
pub use router::EdgeRouter;

use yoda_netsim::{hash_pair, hash_u32};
use yoda_netsim::{Addr, Endpoint};

/// Canonical, direction-insensitive key for a connection: both directions
/// of a flow (and every ECMP/mux decision about it) hash identically.
#[deny(clippy::missing_inline_in_public_items)]
#[inline]
pub fn canonical_flow(a: Endpoint, b: Endpoint) -> (Endpoint, Endpoint) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// An endpoint's 48 bits as one word (address above port).
#[inline]
fn endpoint_word(e: Endpoint) -> u64 {
    ((e.addr.as_u32() as u64) << 16) | e.port as u64
}

/// Deterministic rendezvous (highest-random-weight) choice of one
/// candidate for a flow. Minimal disruption: adding/removing a candidate
/// only remaps the flows that hashed to it.
///
/// Returns `None` when `candidates` is empty.
#[deny(clippy::missing_inline_in_public_items)]
#[inline]
pub fn rendezvous_pick(a: Endpoint, b: Endpoint, candidates: &[Addr]) -> Option<Addr> {
    let (lo, hi) = canonical_flow(a, b);
    let key = hash_pair(0xECA7, endpoint_word(lo), endpoint_word(hi));
    candidates
        .iter()
        .copied()
        .max_by_key(|c| hash_u32(key, c.as_u32()))
}

/// Slots in a [`Steering`] memo.
const MEMO_SLOTS: usize = 1024;

/// A candidate list together with a memo of the picks made from it.
///
/// [`rendezvous_pick`] is a pure function of (flow, list), and the nodes
/// that steer every packet — the edge router, an instance's SNAT egress —
/// ask it the same question for every packet of a flow. This type owns
/// the list *and* a direct-mapped `canonical flow → pick` memo, and
/// [`Steering::set`], the only way to replace the list, clears the memo:
/// a memoised answer is always the one `rendezvous_pick` would give now.
/// A colliding flow evicts; that costs a recomputation, never an answer.
pub struct Steering {
    candidates: Vec<Addr>,
    memo: Vec<Option<(Endpoint, Endpoint, Addr)>>,
}

// The router and the instance's SNAT egress steer every packet through
// these: they inline across crates (DESIGN.md "Cross-crate inlining").
#[deny(clippy::missing_inline_in_public_items)]
impl Steering {
    /// Steers across `candidates`.
    #[inline]
    pub fn new(candidates: Vec<Addr>) -> Self {
        Steering {
            candidates,
            memo: vec![None; MEMO_SLOTS],
        }
    }

    /// Replaces the candidate list and forgets every pick made from the
    /// old one.
    #[inline]
    pub fn set(&mut self, candidates: Vec<Addr>) {
        self.candidates = candidates;
        self.memo.fill(None);
    }

    /// `rendezvous_pick(a, b, self.candidates())`, remembered per flow.
    #[inline]
    pub fn pick(&mut self, a: Endpoint, b: Endpoint) -> Option<Addr> {
        let (lo, hi) = canonical_flow(a, b);
        let mixed = (endpoint_word(lo) ^ endpoint_word(hi).rotate_left(32))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let slot = self.memo.get_mut((mixed >> 32) as usize % MEMO_SLOTS)?;
        if let Some((l, h, pick)) = *slot {
            if (l, h) == (lo, hi) {
                return Some(pick);
            }
        }
        let pick = rendezvous_pick(lo, hi, &self.candidates)?;
        *slot = Some((lo, hi, pick));
        Some(pick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(d: u8, port: u16) -> Endpoint {
        Endpoint::new(Addr::new(10, 0, 0, d), port)
    }

    #[test]
    fn canonical_is_direction_insensitive() {
        let a = ep(1, 4000);
        let b = ep(2, 80);
        assert_eq!(canonical_flow(a, b), canonical_flow(b, a));
    }

    #[test]
    fn rendezvous_is_direction_insensitive() {
        let cands: Vec<Addr> = (1..=5).map(|i| Addr::new(10, 0, 9, i)).collect();
        let a = ep(1, 4000);
        let b = ep(2, 80);
        assert_eq!(rendezvous_pick(a, b, &cands), rendezvous_pick(b, a, &cands));
    }

    #[test]
    fn rendezvous_minimal_disruption() {
        let cands: Vec<Addr> = (1..=10).map(|i| Addr::new(10, 0, 9, i)).collect();
        let removed = cands[4];
        let reduced: Vec<Addr> = cands.iter().copied().filter(|&c| c != removed).collect();
        let mut moved = 0;
        let mut total = 0;
        for port in 1000..3000u16 {
            let a = ep(1, port);
            let b = ep(2, 80);
            let before = rendezvous_pick(a, b, &cands).unwrap();
            if before != removed {
                total += 1;
                if rendezvous_pick(a, b, &reduced).unwrap() != before {
                    moved += 1;
                }
            }
        }
        assert_eq!(moved, 0, "{moved}/{total} unaffected flows moved");
    }

    #[test]
    fn rendezvous_balances() {
        let cands: Vec<Addr> = (1..=4).map(|i| Addr::new(10, 0, 9, i)).collect();
        let mut counts = std::collections::BTreeMap::new();
        for port in 1000..5000u16 {
            let pick = rendezvous_pick(ep(1, port), ep(2, 80), &cands).unwrap();
            *counts.entry(pick).or_insert(0usize) += 1;
        }
        for (&c, &n) in &counts {
            let share = n as f64 / 4000.0;
            assert!(share > 0.15 && share < 0.35, "{c}: {share}");
        }
    }

    #[test]
    fn memoised_pick_is_rendezvous_pick_across_list_replacements() {
        use yoda_netsim::Rng;
        let mut rng = Rng::seed_from_u64(0x57EE);
        // Ten times more live flows than memo slots, so slots are shared
        // and every flow is evicted and recomputed many times over.
        let flows: Vec<(Endpoint, Endpoint)> = (0..10_000u32)
            .map(|i| {
                let client = Endpoint::new(
                    Addr::new(172, 16 + (i % 3) as u8, (i >> 8) as u8, i as u8),
                    33_000 + rng.gen_range(0..2_000u32) as u16,
                );
                (
                    client,
                    Endpoint::new(Addr::new(100, 0, 0, 1 + (i % 2) as u8), 80),
                )
            })
            .collect();
        let pool = |n: u8| -> Vec<Addr> { (1..=n).map(|i| Addr::new(10, 0, 2, i)).collect() };
        let mut steering = Steering::new(pool(10));
        // Grow, shrink, empty, the same list again, a reordered list.
        let mut lists = vec![
            pool(10),
            pool(10),
            pool(9),
            pool(1),
            Vec::new(),
            pool(3),
            pool(3),
        ];
        lists.extend((0..14).map(|_| pool(rng.gen_range(0..=12u32) as u8)));
        lists.push(pool(10).into_iter().rev().collect());
        assert!(lists.len() > 20);
        for list in lists {
            steering.set(list.clone());
            assert_eq!(steering.candidates, &list[..]);
            for round in 0..2 {
                for &(a, b) in &flows {
                    // Alternate directions between and within rounds.
                    let (x, y) = if (a.port as usize + round).is_multiple_of(2) {
                        (a, b)
                    } else {
                        (b, a)
                    };
                    assert_eq!(steering.pick(x, y), rendezvous_pick(x, y, &list));
                }
            }
        }
    }

    #[test]
    fn rendezvous_empty_is_none() {
        assert_eq!(rendezvous_pick(ep(1, 1), ep(2, 2), &[]), None);
    }
}
