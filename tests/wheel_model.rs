//! `TimerWheel` against a sorted-set model of `(time, seq)` keys.
//!
//! The wheel replaced the engine's heap for every timer and packet, and
//! its read side is one call, `pop_before(bound)`, that may move the
//! wheel clock and cascade slots even when it returns nothing. So the
//! model checks three things on every operation: the wheel pops exactly
//! what the model would, in the same order — a cancel drops the entry
//! from the model at once, so a cancelled timer must never pop; it never
//! moves its clock to or past the bound (the next thing the engine does
//! is handle an event *at* the bound, and that event's arms must not be
//! clamped forward); and its counts stay exact.
//!
//! Deadlines and bounds are drawn where the structure has edges — the
//! width of a slot and of a window at every level, the overflow epoch,
//! the start of the slot holding the current minimum — not uniformly.

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use yoda::netsim::wheel::{Fired, TimerWheel, WheelItem, L0_SLOTS, LEVEL_SHIFT};
use yoda::netsim::{Addr, Endpoint, Packet, Rng, TimerToken, PROTO_PING};

const L0: u64 = L0_SLOTS as u64;
const EPOCH: u64 = 1 << LEVEL_SHIFT[LEVEL_SHIFT.len() - 1];

struct Pending {
    timer: bool,
    deadline: u64,
}

/// The wheel, the model, and the engine-side state a caller keeps.
struct Pair {
    wheel: TimerWheel,
    /// Every pending `(deadline, seq)`, in pop order.
    queue: BTreeSet<(u64, u64)>,
    pending: BTreeMap<u64, Pending>,
    /// Every handle ever issued: (slab slot, id). Most go stale.
    handles: Vec<(u32, u64)>,
    /// The engine clock: time of the last event handled. Arms are at or
    /// after it, and the wheel clock must never be ahead of it.
    time: u64,
    next_seq: u64,
}

impl Pair {
    fn new() -> Self {
        Pair {
            wheel: TimerWheel::new(),
            queue: BTreeSet::new(),
            pending: BTreeMap::new(),
            handles: Vec::new(),
            time: 0,
            next_seq: 0,
        }
    }

    fn arm(&mut self, deadline: u64, timer: bool) {
        assert!(self.wheel.now() <= self.time, "wheel clock ahead of the engine");
        let seq = self.next_seq;
        self.next_seq += 1;
        let item = if timer {
            WheelItem::Timer {
                node: 0,
                generation: 0,
                token: TimerToken::new(0),
            }
        } else {
            let ep = Endpoint::new(Addr::new(10, 0, 0, 1), 1);
            WheelItem::Packet {
                pkt: Packet::new(ep, ep, PROTO_PING, Bytes::new()),
                dst: 0,
            }
        };
        let slot = self.wheel.arm(deadline, seq, seq, item);
        self.queue.insert((deadline, seq));
        self.pending.insert(seq, Pending { timer, deadline });
        self.handles.push((slot, seq));
    }

    /// Cancels through a random handle — live, fired, or pointing at a
    /// slab slot some later entry now occupies.
    fn cancel(&mut self, rng: &mut Rng) {
        if self.handles.is_empty() {
            return;
        }
        let (slot, id) = self.handles[rng.gen_range(0..self.handles.len())];
        let want = match self.pending.get(&id) {
            Some(p) if p.timer => {
                self.queue.remove(&(p.deadline, id));
                self.pending.remove(&id);
                true
            }
            _ => false,
        };
        assert_eq!(self.wheel.cancel(slot, id), want, "cancel of id {id}");
    }

    /// The earliest pending key.
    fn min(&self) -> Option<(u64, u64)> {
        self.queue.first().copied()
    }

    /// What the model answers to `pop_before(bound)`.
    fn model_pop(&mut self, bound: (u64, u64)) -> Option<(u64, u64)> {
        let min = self.min()?;
        if min >= bound {
            return None;
        }
        self.queue.pop_first();
        self.pending.remove(&min.1).expect("pending entry");
        Some(min)
    }

    fn check_fired(&mut self, got: Option<Fired>, want: Option<(u64, u64)>) {
        let got = got.map(|f| {
            assert_eq!(f.id, f.seq, "armed with id == seq");
            (f.time, f.seq)
        });
        assert_eq!(got, want);
        if let Some((t, _)) = want {
            assert!(t >= self.time, "popped into the past");
            self.time = t;
            assert_eq!(self.wheel.now(), t, "a pop leaves the clock at its deadline");
        }
    }

    fn pop_before(&mut self, bound: (u64, u64)) -> bool {
        let before = self.wheel.now();
        let want = self.model_pop(bound);
        let got = self.wheel.pop_before(bound.0, bound.1);
        let now = self.wheel.now();
        assert!(
            now == before || (now, 0) < bound,
            "clock moved to {now}, not strictly below bound {bound:?}"
        );
        self.check_fired(got, want);
        want.is_some()
    }

    fn check_counts(&self) {
        assert_eq!(self.wheel.len(), self.pending.len());
        assert_eq!(self.wheel.is_empty(), self.pending.is_empty());
        assert_eq!(
            self.wheel.timer_len(),
            self.pending.values().filter(|p| p.timer).count()
        );
    }
}

/// A delay at one of the structure's edges.
fn delay(rng: &mut Rng) -> u64 {
    let level = rng.gen_range(0..LEVEL_SHIFT.len());
    let jitter = rng.gen_range(0..3u64);
    match rng.gen_range(0..12u32) {
        0 => 0,
        1 => 1,
        2 => L0 - 1,
        3 => L0,
        // A datacenter hop.
        4 | 5 => rng.gen_range(250..=300u64),
        // One slot of L1..L5 (or one L5 window, the overflow epoch).
        6 | 7 => (1 << LEVEL_SHIFT[level]) + jitter - 1,
        // Somewhere inside that range.
        8 | 9 => rng.gen_range(0..2u64 << LEVEL_SHIFT[level]),
        10 => 30_000_000 + jitter,
        _ => EPOCH * rng.gen_range(1..4u64) + rng.gen_range(0..L0),
    }
}

/// A bound before / at / inside / after the slot holding the model's
/// minimum at some level — one of which is the first occupied coarse
/// slot the wheel would have to cascade.
fn bound(rng: &mut Rng, pair: &Pair) -> (u64, u64) {
    let Some((d, s)) = pair.min() else {
        return (pair.time + rng.gen_range(0..L0), rng.gen_range(0..3u64));
    };
    let shift = LEVEL_SHIFT[rng.gen_range(0..LEVEL_SHIFT.len())];
    let start = (d >> shift << shift).max(pair.time);
    match rng.gen_range(0..12u32) {
        0 => (start, 0),
        1 => (start, 1 + rng.gen_range(0..pair.next_seq + 1)),
        2 => (start.saturating_sub(1).max(pair.time), rng.gen_range(0..2u64)),
        3 => (start + 1, 0),
        4 => (rng.gen_range(start..=d), 0),
        5 => (d, s),
        6 => (d, s + 1),
        7 => (d, 0),
        8 => (d + 1, 0),
        9 => (d + rng.gen_range(0..2u64 << shift), rng.gen_range(0..2u64)),
        10 => (rng.gen_range(pair.time..=d), rng.gen_range(0..pair.next_seq + 1)),
        _ => (u64::MAX, u64::MAX),
    }
}

fn step(rng: &mut Rng, pair: &mut Pair) {
    match rng.gen_range(0..100u32) {
        0..=39 => {
            let d = pair.time + delay(rng);
            pair.arm(d, rng.gen_range(0..3u32) > 0);
        }
        40..=49 => pair.cancel(rng),
        50..=89 => {
            let b = bound(rng, pair);
            if !pair.pop_before(b) && b.0 < u64::MAX {
                // The engine now handles what it bounded the wheel by: a
                // control at (b.0, b.1), or — bound (limit + 1, 0) — the
                // end of a run at `limit`. Either way the clock moves
                // there, with or without telling the wheel, and an arm
                // at that very time must pop at that time.
                let at = if b.1 == 0 && b.0 > 0 && rng.gen_range(0..2u32) == 0 { b.0 - 1 } else { b.0 };
                if at >= pair.time {
                    pair.time = at;
                    if rng.gen_range(0..2u32) == 0 {
                        pair.wheel.advance(at);
                    }
                    if rng.gen_range(0..2u32) == 0 {
                        pair.arm(at, rng.gen_range(0..2u32) == 0);
                    }
                }
            }
        }
        // A quiet clock set, legal only up to the earliest deadline.
        90..=94 => {
            let limit = pair.min().map_or(pair.time + delay(rng), |(d, _)| {
                rng.gen_range(pair.time..=d)
            });
            pair.wheel.advance(limit);
            pair.time = limit;
            assert_eq!(pair.wheel.now(), limit);
        }
        // Drain a few with the unbounded form.
        _ => {
            for _ in 0..rng.gen_range(1..4u32) {
                let want = pair.model_pop((u64::MAX, u64::MAX));
                let got = pair.wheel.pop();
                pair.check_fired(got, want);
            }
        }
    }
    pair.check_counts();
}

#[test]
fn ten_thousand_random_sequences_match_the_heap() {
    for seed in 0..10_000u64 {
        let mut rng = Rng::seed_from_u64(0x3EE1 ^ seed);
        let mut pair = Pair::new();
        // Start some sequences far from zero, on and off boundaries.
        if seed % 3 > 0 {
            pair.time = delay(&mut rng) * (seed % 3);
            pair.wheel.advance(pair.time);
        }
        for _ in 0..rng.gen_range(20..200u32) {
            step(&mut rng, &mut pair);
        }
        while let Some(want) = pair.model_pop((u64::MAX, u64::MAX)) {
            let got = pair.wheel.pop();
            pair.check_fired(got, Some(want));
        }
        assert!(pair.wheel.pop().is_none());
        pair.check_counts();
    }
}

#[test]
fn an_arm_at_the_bound_after_a_refusal_is_not_clamped() {
    // The one-microsecond edge: the first occupied coarse slot starts
    // exactly at the bound time. `pop_before((start, 0))` must refuse
    // without cascading it — that would put the clock at `start`, one
    // past the run limit `start - 1`, and clamp an arm made there.
    for shift in LEVEL_SHIFT {
        let start = 1u64 << shift;
        let mut pair = Pair::new();
        pair.arm(start + 5, true);
        assert!(!pair.pop_before((start, 0)));
        assert!(pair.wheel.now() < start);
        pair.time = start - 1;
        pair.arm(start - 1, false);
        assert!(pair.pop_before((start, 0)), "the arm at the limit pops within the limit");
        assert_eq!(pair.time, start - 1);
        // With a control at (start, seq > 0) next, the slot may cascade —
        // the clock stops at `start` — but nothing pops.
        assert!(!pair.pop_before((start, 7)));
        assert!(pair.wheel.now() <= start);
        pair.time = start;
        pair.arm(start, true);
        assert!(pair.pop_before((start + 1, 0)));
        assert_eq!(pair.time, start);
        assert!(pair.pop_before((u64::MAX, 0)));
        assert_eq!(pair.time, start + 5);
    }
}
