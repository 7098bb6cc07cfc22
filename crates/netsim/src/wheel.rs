//! Hierarchical timing wheel with O(1) arm and cancel, and a read side
//! that never scans.
//!
//! The engine used to route every timer *and every packet* through the
//! global `BinaryHeap` — O(log n) per operation plus allocation churn.
//! This wheel delivers the same *exact* event order at O(1) amortized
//! cost and carries both event classes ([`WheelItem`]); only rare
//! control closures remain in the heap.
//!
//! | level    | slots | slot width              | window                    |
//! |----------|-------|-------------------------|---------------------------|
//! | L0       | 4,096 | 1 µs                    | 2^12 µs ≈ 4.1 ms          |
//! | L1       | 64    | 2^12 µs ≈ 4.1 ms        | 2^18 µs ≈ 262 ms          |
//! | L2       | 64    | 2^18 µs ≈ 262 ms        | 2^24 µs ≈ 16.8 s          |
//! | L3       | 64    | 2^24 µs ≈ 16.8 s        | 2^30 µs ≈ 17.9 min        |
//! | L4       | 64    | 2^30 µs ≈ 17.9 min      | 2^36 µs ≈ 19.1 h          |
//! | L5       | 64    | 2^36 µs ≈ 19.1 h        | 2^42 µs ≈ 50.9 days       |
//! | overflow | list  | —                       | everything beyond L5      |
//!
//! (All of it is [`LEVEL_SHIFT`].) An entry is placed in the finest
//! level whose *current window* — the aligned range of that width
//! containing the wheel clock — contains its deadline. L0 is wide
//! enough that a datacenter hop (250–300 µs) is armed straight into it
//! and never moves again, and a WAN hop (64–65.5 ms) lands in L1 and
//! moves once.
//!
//! # Entries pop only from the head of an L0 slot
//!
//! All entries in one L0 slot share one deadline and the list ascends in
//! `seq`, so the head of the first occupied L0 slot is the global
//! minimum: [`TimerWheel::pop_before`] reads two bitmap words and one
//! slab entry. When L0 is empty the first occupied coarser slot holds
//! the minimum *somewhere* in its list; instead of scanning for it the
//! wheel moves its clock to that slot's start and *cascades* the slot
//! ([`TimerWheel::advance`]): its entries re-place into finer levels,
//! and the lookup starts over. Every entry is therefore touched once per
//! level it descends and never searched for.
//!
//! **The clock never passes the bound.** `pop_before(t, s)` cascades a
//! slot starting at `start` only when `(start, 0) < (t, s)`, and
//! otherwise returns `None` with nothing moved. The engine passes the
//! key of the next event it would process instead (the control-heap top,
//! or one past its run limit), so after any call the wheel clock is at
//! or before the time of the next event the engine handles — and an
//! [`TimerWheel::arm`] made while handling it (deadline ≥ that time) is
//! never clamped forward.
//!
//! Every slot skipped by a clock move is provably empty (the clock only
//! moves to the deadline of a popped minimum, to the start of the first
//! occupied slot, or to a quiet deadline with nothing pending before
//! it), so a move cascades at most one slot per level.
//!
//! # Determinism
//!
//! The engine's event order is `(time, seq)` — the wheel must reproduce
//! the old heap's order bit-for-bit. Slot lists are intrusively linked
//! and kept **ascending in `seq`**: [`TimerWheel::arm`] requires
//! strictly increasing `seq` across calls (the engine allocates `seq`
//! from one global counter at arm time, so this holds by construction),
//! lists append at the tail, and cascades traverse head-to-tail and run
//! coarse to fine, so re-placed entries stay ascending and always
//! precede later direct arms. Nothing depends on memory addresses.
//!
//! # Cancellation removes the entry
//!
//! Slot lists are doubly linked, so [`TimerWheel::cancel`] unlinks the
//! entry from wherever it sits and frees its slab slot at once: a
//! cancelled timer never pops, is never an event and folds nothing into
//! the engine's digest. The list is found without a search: an entry
//! always sits where [`TimerWheel::arm`] would place it at the current
//! clock (a cascade re-places exactly the entries whose home moved), so
//! its deadline and the clock name the list. The surviving entries keep
//! their `(deadline, seq)` keys and their order.
//!
//! # Panic freedom
//!
//! Slot-array indices are masked (`L0_MASK`, `LK_MASK`, `WORD_MASK`)
//! and slab indices come only from the wheel's own lists, so indexing
//! cannot go out of bounds: the module's one
//! `#![expect(clippy::indexing_slicing)]` rests on that.

#![expect(
    clippy::indexing_slicing,
    reason = "slot indices are masked to their array's power-of-two length and slab indices come only from the wheel's own lists"
)]

use crate::node::TimerToken;
use crate::packet::Packet;

/// Sentinel for "no entry" in the intrusive lists.
const NIL: u32 = u32::MAX;

/// Coarse levels L1..L5 (0-based `k` in the code).
const LEVELS: usize = 5;

/// The whole layout: L0's window is a deadline with the low
/// `LEVEL_SHIFT[0]` bits masked off; coarse level `k` takes its slot
/// index from bits `LEVEL_SHIFT[k] .. LEVEL_SHIFT[k + 1]` and its window
/// masks off the low `LEVEL_SHIFT[k + 1]` bits. Deadlines outside L5's
/// window wait in the overflow list.
pub const LEVEL_SHIFT: [u32; LEVELS + 1] = [12, 18, 24, 30, 36, 42];

/// One-microsecond slots in L0.
pub const L0_SLOTS: usize = 1 << LEVEL_SHIFT[0];
const L0_MASK: usize = L0_SLOTS - 1;
/// L0 occupancy bitmap words (one summary bit each).
const L0_WORDS: usize = L0_SLOTS / 64;
const WORD_MASK: usize = L0_WORDS - 1;
/// Slot-index mask of every coarse level (64 slots, one bitmap word).
const LK_MASK: usize = 63;
/// Deadlines differing from the clock above this bit are in overflow.
const TOP_SHIFT: u32 = LEVEL_SHIFT[LEVELS];

// One summary word covers L0's bitmap, and every coarse level has 64
// slots; the bit arithmetic below assumes both.
const _: () = {
    assert!(L0_WORDS == 64);
    let mut k = 0;
    while k < LEVELS {
        assert!(LEVEL_SHIFT[k + 1] - LEVEL_SHIFT[k] == 6);
        k += 1;
    }
};

/// What a wheel entry delivers when it pops.
#[derive(Debug)]
pub enum WheelItem {
    /// A node timer.
    Timer {
        /// Owning node index.
        node: usize,
        /// Node generation at arm time (stale-after-restore suppression).
        generation: u64,
        /// Application payload.
        token: TimerToken,
    },
    /// A packet in flight, stored inline so delivery costs one slab read
    /// with no side allocation, paired with its destination node (`dst`)
    /// resolved at send time. Packets are never cancelled.
    Packet {
        /// The packet itself.
        pkt: Packet,
        /// Destination node index.
        dst: u32,
    },
}

/// One slab entry: pending, or free (on the free list).
#[derive(Debug)]
struct Entry {
    /// Absolute deadline, µs.
    deadline: u64,
    /// Global event sequence number — the tie-breaker at equal deadlines.
    seq: u64,
    /// The engine-wide timer id: what the engine folds into its event
    /// digest when the entry pops, and what lets [`TimerWheel::cancel`]
    /// reject a stale handle whose slab slot has been recycled. Unused
    /// for packets.
    id: u64,
    /// `Some` exactly while the entry is pending.
    item: Option<WheelItem>,
    /// Next entry in the same slot list (or [`NIL`]); for a free entry,
    /// the next free slot.
    next: u32,
    /// Previous entry in the same slot list. Read only when the entry is
    /// not its list's head (the head is recognised by the list's `head`
    /// field), so a pop leaves its successor's `prev` stale.
    prev: u32,
}

/// A popped entry, in exact `(time, seq)` event order.
#[derive(Debug)]
pub struct Fired {
    /// Absolute deadline, µs.
    pub time: u64,
    /// Global event sequence number.
    pub seq: u64,
    /// Engine-wide timer id (0 for packets) — the digest-visible id.
    pub id: u64,
    /// What fired.
    pub(crate) item: WheelItem,
}

/// One slot's intrusive list: slab indices of its first and last entry,
/// side by side so an arm or a pop touches one cache line of the slot
/// array.
#[derive(Debug, Clone, Copy)]
struct SlotList {
    head: u32,
    tail: u32,
}

const EMPTY: SlotList = SlotList {
    head: NIL,
    tail: NIL,
};

/// Where an entry with a given deadline lives at the current clock.
#[derive(Debug, Clone, Copy)]
enum Home {
    /// L0 slot index.
    L0(usize),
    /// Coarse level `k`, slot index.
    Coarse(usize, usize),
    Overflow,
}

/// The wheel. See the module docs for the level layout, the
/// pop-only-from-L0 rule and the determinism contract.
pub struct TimerWheel {
    now: u64,
    /// Pending entries, packets included.
    len: usize,
    /// Pending timer entries only (the engine's timer-backlog metric).
    timers: usize,
    /// Lower bound on the next acceptable `seq` (monotonicity contract).
    next_min_seq: u64,
    slab: Vec<Entry>,
    /// Head of the LIFO free list, threaded through `Entry::next` of dead
    /// slots (no side vector, no per-event capacity checks).
    free_head: u32,
    l0: Box<[SlotList; L0_SLOTS]>,
    /// Occupied L0 slots, and which words of that bitmap are nonzero.
    l0_bits: [u64; L0_WORDS],
    l0_summary: u64,
    lk: [[SlotList; 64]; LEVELS],
    lk_bits: [u64; LEVELS],
    /// Entries beyond L5's window, in arm (= ascending `seq`) order.
    overflow: Vec<u32>,
}

impl Default for TimerWheel {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl TimerWheel {
    /// An empty wheel at time 0.
    pub fn new() -> Self {
        TimerWheel {
            now: 0,
            len: 0,
            timers: 0,
            next_min_seq: 0,
            slab: Vec::new(),
            free_head: NIL,
            l0: Box::new([EMPTY; L0_SLOTS]),
            l0_bits: [0; L0_WORDS],
            l0_summary: 0,
            lk: [[EMPTY; 64]; LEVELS],
            lk_bits: [0; LEVELS],
            overflow: Vec::new(),
        }
    }

    /// Pending entries of both kinds.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pending timers only, excluding packets.
    pub fn timer_len(&self) -> usize {
        self.timers
    }

    /// Current wheel time, µs.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Arms an entry at absolute time `deadline` (clamped to now) with
    /// the given engine-assigned `seq` and `id`. Returns the slab slot to
    /// embed in the caller's timer handle for O(1) cancellation.
    ///
    /// `seq` must be strictly greater than every previously armed `seq`
    /// — the sorted-slot-list invariant the pop order relies on. The
    /// engine satisfies this by construction (one global counter,
    /// allocated at arm time).
    pub fn arm(&mut self, deadline: u64, seq: u64, id: u64, item: WheelItem) -> u32 {
        debug_assert!(seq >= self.next_min_seq, "seq must be strictly increasing");
        self.next_min_seq = seq + 1;
        if matches!(item, WheelItem::Timer { .. }) {
            self.timers += 1;
        }
        let deadline = deadline.max(self.now);
        let mut slot = self.free_head;
        // `NIL` indexes nothing, so an empty free list takes the push arm.
        match self.slab.get_mut(slot as usize) {
            Some(e) => {
                // Field by field: a recycled slot is written where it
                // lies instead of being built elsewhere and copied over.
                self.free_head = e.next;
                e.deadline = deadline;
                e.seq = seq;
                e.id = id;
                e.item = Some(item);
                e.next = NIL;
            }
            None => {
                slot = self.slab.len() as u32;
                self.slab.push(Entry {
                    deadline,
                    seq,
                    id,
                    item: Some(item),
                    next: NIL,
                    prev: NIL,
                });
            }
        }
        self.len += 1;
        self.place(slot, deadline);
        slot
    }

    /// Removes the timer in `slot` iff it is still pending and its id
    /// matches (a recycled slot has a different id — or holds a packet,
    /// whose `id` field is meaningless — and a popped or cancelled one
    /// holds nothing, so stale handles are rejected): unlinks it from its
    /// list and frees the slab slot. Returns whether anything was
    /// cancelled. O(1) unless the timer waits in the overflow list.
    pub fn cancel(&mut self, slot: u32, id: u64) -> bool {
        let d = match self.slab.get_mut(slot as usize) {
            Some(e) if e.id == id && matches!(e.item, Some(WheelItem::Timer { .. })) => {
                e.item = None;
                e.deadline
            }
            _ => return false,
        };
        match self.home(d) {
            Home::Overflow => {
                let at = self.overflow.iter().position(|&s| s == slot);
                debug_assert!(at.is_some(), "a timer beyond L5 waits in the overflow list");
                if let Some(at) = at {
                    self.overflow.remove(at);
                }
            }
            home => self.unlink(slot, home),
        }
        if let Some(e) = self.slab.get_mut(slot as usize) {
            e.next = self.free_head;
            self.free_head = slot;
        }
        self.len -= 1;
        self.timers -= 1;
        true
    }

    /// Unlinks entry `slot` from its slot list `home` (a level, not the
    /// overflow list), clearing the slot's bitmap bit if it empties.
    fn unlink(&mut self, slot: u32, home: Home) {
        let Some((prev, next)) = self.slab.get(slot as usize).map(|e| (e.prev, e.next)) else {
            return;
        };
        let list = match home {
            Home::L0(idx) => &mut self.l0[idx & L0_MASK],
            Home::Coarse(k, idx) => &mut self.lk[k][idx & LK_MASK],
            Home::Overflow => return,
        };
        let (is_head, is_tail) = (list.head == slot, list.tail == slot);
        debug_assert!(
            (is_head || prev != NIL) && (is_tail || next != NIL),
            "an entry sits in the list its deadline and the clock name"
        );
        if is_head {
            list.head = next;
        } else if let Some(p) = self.slab.get_mut(prev as usize) {
            p.next = next;
        }
        if is_tail {
            list.tail = if is_head { NIL } else { prev };
        } else if let Some(n) = self.slab.get_mut(next as usize) {
            n.prev = prev;
        }
        if is_head && is_tail {
            self.clear_bit(home);
        }
    }

    /// Removes and returns the minimum `(deadline, seq)` entry iff it is
    /// strictly below `(bound_time, bound_seq)`, leaving the wheel clock
    /// at its deadline. Otherwise returns `None` with the clock at or
    /// before `bound_time` and every entry still pending — see "The clock
    /// never passes the bound" in the module docs for what callers pass
    /// and why.
    pub fn pop_before(&mut self, bound_time: u64, bound_seq: u64) -> Option<Fired> {
        loop {
            if self.l0_summary != 0 {
                return self.pop_l0_head(bound_time, bound_seq);
            }
            // L0 is empty, so everything pending is at or after `start`.
            let start = self.first_coarse_start()?;
            if (start, 0) >= (bound_time, bound_seq) {
                return None;
            }
            debug_assert!(
                start > self.now,
                "occupied coarse slots lie ahead of the clock"
            );
            self.advance(start);
        }
    }

    /// Removes and returns the minimum `(deadline, seq)` entry, whatever
    /// its time: [`TimerWheel::pop_before`] without a bound.
    pub fn pop(&mut self) -> Option<Fired> {
        self.pop_before(u64::MAX, u64::MAX)
    }

    /// Advances the wheel clock to `to` (no-op when not in the future),
    /// cascading the newly current slot of every level whose boundary was
    /// crossed. The caller guarantees no pending entry has a deadline
    /// before `to` — true for [`TimerWheel::pop_before`] (`to` is the
    /// start of the first occupied slot) and for the engine's
    /// quiet-deadline clock set (everything earlier already popped) —
    /// which is what makes single-slot cascades sufficient: skipped slots
    /// are empty.
    pub fn advance(&mut self, to: u64) {
        let old = self.now;
        if to <= old {
            return;
        }
        self.now = to;
        if self.len == 0 {
            // Nothing pending anywhere, so every slot is empty and no
            // cascade can move anything. Control-only stretches take this
            // path per event.
            return;
        }
        if old >> TOP_SHIFT != to >> TOP_SHIFT && !self.overflow.is_empty() {
            let of = std::mem::take(&mut self.overflow);
            for slot in of {
                // Lands in a level if its epoch has come, else back in
                // the overflow list — in the same order either way.
                if let Some(d) = self.slab.get(slot as usize).map(|e| e.deadline) {
                    self.place(slot, d);
                }
            }
        }
        // Coarse to fine, so entries cascading out of L_{k} re-place into
        // an L_{k-1} slot before that slot itself cascades.
        for k in (0..LEVELS).rev() {
            if old >> LEVEL_SHIFT[k] != to >> LEVEL_SHIFT[k] {
                self.cascade(k, (to >> LEVEL_SHIFT[k]) as usize & LK_MASK);
            }
        }
    }

    /// First occupied L0 slot (`l0_summary` must be nonzero). Bits below
    /// `now & L0_MASK` are necessarily clear, so it is the earliest
    /// pending 1 µs tick.
    #[inline]
    fn first_l0(&self) -> usize {
        let w = self.l0_summary.trailing_zeros() as usize;
        (w << 6) | self.l0_bits[w & WORD_MASK].trailing_zeros() as usize
    }

    /// Pops the head of the first occupied L0 slot — the global minimum:
    /// all entries of a slot share one deadline and ascend in seq, and
    /// everything in a later slot or a coarser level is strictly later —
    /// unless it is at or past the bound.
    #[inline]
    fn pop_l0_head(&mut self, bound_time: u64, bound_seq: u64) -> Option<Fired> {
        let idx = self.first_l0();
        let list = &mut self.l0[idx & L0_MASK];
        let slot = list.head;
        let e = self.slab.get_mut(slot as usize)?;
        if (e.deadline, e.seq) >= (bound_time, bound_seq) {
            return None;
        }
        let item = e.item.take()?; // always Some: set at arm, taken once here
        let fired = Fired {
            time: e.deadline,
            seq: e.seq,
            id: e.id,
            item,
        };
        list.head = std::mem::replace(&mut e.next, self.free_head);
        self.free_head = slot;
        if list.head == NIL {
            list.tail = NIL;
            self.clear_bit(Home::L0(idx));
        }
        self.len -= 1;
        if matches!(fired.item, WheelItem::Timer { .. }) {
            self.timers -= 1;
        }
        // Same L0 window as before, so no boundary of any level is
        // crossed and nothing cascades.
        self.now = fired.time;
        Some(fired)
    }

    /// Start time of the first occupied coarse slot — a lower bound on
    /// every pending deadline when L0 is empty. Level k's window strictly
    /// precedes level k+1's, within a level the first occupied slot is the
    /// earliest range, and the overflow list is beyond every level.
    fn first_coarse_start(&self) -> Option<u64> {
        if let Some(k) = (0..LEVELS).find(|&k| self.lk_bits[k] != 0) {
            let window = self.now >> LEVEL_SHIFT[k + 1] << LEVEL_SHIFT[k + 1];
            let idx = self.lk_bits[k].trailing_zeros() as u64;
            return Some(window | (idx << LEVEL_SHIFT[k]));
        }
        self.overflow_deadlines()
            .min()
            .map(|d| d >> TOP_SHIFT << TOP_SHIFT)
    }

    fn overflow_deadlines(&self) -> impl Iterator<Item = u64> + '_ {
        let slab = &self.slab;
        self.overflow
            .iter()
            .filter_map(move |&s| slab.get(s as usize).map(|e| e.deadline))
    }

    /// The list an entry with deadline `d` belongs in at the current
    /// clock: the slot of the finest level whose current window contains
    /// `d`, or the overflow list. A pending entry is always in its home:
    /// [`TimerWheel::advance`] re-places exactly the entries whose home
    /// moved.
    #[inline]
    fn home(&self, d: u64) -> Home {
        let now = self.now;
        if d >> LEVEL_SHIFT[0] == now >> LEVEL_SHIFT[0] {
            return Home::L0(d as usize & L0_MASK);
        }
        match (0..LEVELS).find(|&k| d >> LEVEL_SHIFT[k + 1] == now >> LEVEL_SHIFT[k + 1]) {
            Some(k) => Home::Coarse(k, (d >> LEVEL_SHIFT[k]) as usize & LK_MASK),
            None => Home::Overflow,
        }
    }

    /// Marks the slot list `home` empty in the occupancy bitmaps.
    #[inline]
    fn clear_bit(&mut self, home: Home) {
        match home {
            Home::L0(idx) => {
                let w = (idx >> 6) & WORD_MASK;
                self.l0_bits[w] &= !(1u64 << (idx & 63));
                if self.l0_bits[w] == 0 {
                    self.l0_summary &= !(1u64 << w);
                }
            }
            Home::Coarse(k, idx) => self.lk_bits[k] &= !(1u64 << (idx & LK_MASK)),
            Home::Overflow => {}
        }
    }

    /// Appends slab entry `slot` (deadline `d`, `next` already [`NIL`])
    /// to the tail of its home list, which keeps every list ascending in
    /// `seq` (see the module docs).
    #[inline]
    fn place(&mut self, slot: u32, d: u64) {
        let list = match self.home(d) {
            Home::L0(idx) => {
                self.l0_bits[(idx >> 6) & WORD_MASK] |= 1u64 << (idx & 63);
                self.l0_summary |= 1u64 << (idx >> 6);
                &mut self.l0[idx]
            }
            Home::Coarse(k, idx) => {
                self.lk_bits[k] |= 1u64 << idx;
                &mut self.lk[k][idx]
            }
            Home::Overflow => return self.overflow.push(slot),
        };
        let tail = std::mem::replace(&mut list.tail, slot);
        if tail == NIL {
            list.head = slot;
        } else if let Some(t) = self.slab.get_mut(tail as usize) {
            t.next = slot;
        }
        if let Some(e) = self.slab.get_mut(slot as usize) {
            e.prev = tail;
        }
    }

    /// Empties level `k` slot `idx`, re-placing its entries at the current
    /// time (they land in finer levels, or L0 — never back in the source:
    /// the slot is current, so its deadlines all fit a finer window).
    /// Traversal is head-to-tail, so ascending `seq` order carries over.
    fn cascade(&mut self, k: usize, idx: usize) {
        let list = std::mem::replace(&mut self.lk[k][idx & LK_MASK], EMPTY);
        self.clear_bit(Home::Coarse(k, idx));
        let mut cur = list.head;
        while let Some(e) = self.slab.get_mut(cur as usize) {
            let next = std::mem::replace(&mut e.next, NIL);
            let d = e.deadline;
            self.place(cur, d);
            cur = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tok(kind: u32) -> TimerToken {
        TimerToken::new(kind)
    }

    fn titem() -> WheelItem {
        WheelItem::Timer {
            node: 0,
            generation: 0,
            token: tok(0),
        }
    }

    #[test]
    fn entry_footprint_is_pinned() {
        // An in-flight packet rides its slab entry inline, so the packet's
        // size sets the entry's: deadline, seq and id, the item (the
        // 80-byte `Packet` plus its destination, behind the tag) and the
        // two list links. Every pending event costs this much; a change
        // here should be a deliberate one.
        assert_eq!(std::mem::size_of::<WheelItem>(), 88);
        assert_eq!(std::mem::size_of::<Entry>(), 120);
    }

    /// Arms with auto-incrementing seq/id starting at 0.
    struct Harness {
        wheel: TimerWheel,
        seq: u64,
    }

    impl Harness {
        fn new() -> Self {
            Harness {
                wheel: TimerWheel::new(),
                seq: 0,
            }
        }
        fn arm(&mut self, deadline: u64) -> (u64, u32) {
            let seq = self.seq;
            self.seq += 1;
            let slot = self.wheel.arm(deadline, seq, seq, titem());
            (seq, slot)
        }
        fn arm_packet(&mut self, deadline: u64, dst: u32) -> (u64, u32) {
            use crate::addr::{Addr, Endpoint};
            let seq = self.seq;
            self.seq += 1;
            let pkt = Packet::new(
                Endpoint::new(Addr::new(10, 0, 0, 1), 1),
                Endpoint::new(Addr::new(10, 0, 0, 2), 80),
                crate::packet::PROTO_PING,
                crate::Bytes::new(),
            );
            let slot = self
                .wheel
                .arm(deadline, seq, 0, WheelItem::Packet { pkt, dst });
            (seq, slot)
        }
        /// Pops everything, returning (time, seq) pairs.
        fn drain(&mut self) -> Vec<(u64, u64)> {
            let mut out = Vec::new();
            while let Some(f) = self.wheel.pop() {
                out.push((f.time, f.seq));
            }
            out
        }
    }

    #[test]
    fn pops_in_deadline_then_seq_order() {
        let mut h = Harness::new();
        h.arm(500);
        h.arm(100);
        h.arm(300);
        h.arm(100); // same tick as the second arm: seq breaks the tie
        assert_eq!(h.drain(), vec![(100, 1), (100, 3), (300, 2), (500, 0)]);
    }

    /// Arms `n` timers at deadline `d`, cancels the ones at `cut`
    /// (indices into the arm order) and returns what pops.
    fn cancel_from_one_list(d: u64, n: usize, cut: &[usize]) -> Vec<(u64, u64)> {
        let mut h = Harness::new();
        let handles: Vec<(u64, u32)> = (0..n).map(|_| h.arm(d)).collect();
        for &i in cut {
            let (id, slot) = handles[i];
            assert!(h.wheel.cancel(slot, id), "cancel of pending timer {i}");
        }
        assert_eq!(h.wheel.timer_len(), n - cut.len());
        h.drain()
    }

    #[test]
    fn cancel_unlinks_head_middle_and_tail_of_an_l0_slot() {
        let d = 777;
        // Head, middle, tail, two neighbours, and every one of them: the
        // survivors pop in seq order and the emptied slot leaves L0 dark.
        assert_eq!(
            cancel_from_one_list(d, 4, &[0]),
            vec![(d, 1), (d, 2), (d, 3)]
        );
        assert_eq!(
            cancel_from_one_list(d, 4, &[2]),
            vec![(d, 0), (d, 1), (d, 3)]
        );
        assert_eq!(
            cancel_from_one_list(d, 4, &[3]),
            vec![(d, 0), (d, 1), (d, 2)]
        );
        assert_eq!(cancel_from_one_list(d, 4, &[1, 2]), vec![(d, 0), (d, 3)]);
        assert_eq!(cancel_from_one_list(d, 3, &[2, 0, 1]), vec![]);
        let mut h = Harness::new();
        let (id, slot) = h.arm(d);
        assert!(h.wheel.cancel(slot, id));
        assert_eq!((h.wheel.l0_summary, h.wheel.l0_bits[0]), (0, 0));
        // The slot takes new arms after it emptied.
        h.arm(d);
        assert_eq!(h.drain(), vec![(d, 1)]);
    }

    #[test]
    fn cancel_in_a_coarse_slot_then_cascade() {
        // Three timers in L1 slot 1: the middle one is cancelled while
        // the slot is coarse, the tail one after the cascade moved it to
        // an L0 slot.
        let d = L0_SLOTS as u64 + 40;
        let mut h = Harness::new();
        h.arm(d);
        let (id1, s1) = h.arm(d + 1);
        let (id2, s2) = h.arm(d + 2);
        assert_eq!(h.wheel.lk_bits[0], 2);
        assert!(h.wheel.cancel(s1, id1));
        assert_eq!(h.wheel.lk_bits[0], 2, "the slot still holds two");
        h.wheel.advance(L0_SLOTS as u64);
        assert_eq!(h.wheel.lk_bits[0], 0, "cascaded into L0");
        assert!(h.wheel.cancel(s2, id2));
        assert_eq!(h.drain(), vec![(d, 0)]);
        // A coarse slot emptied by cancel leaves no bit behind.
        let (id, slot) = h.arm(d + (1 << LEVEL_SHIFT[1]));
        assert_ne!(h.wheel.lk_bits, [0; LEVELS]);
        assert!(h.wheel.cancel(slot, id));
        assert_eq!(h.wheel.lk_bits, [0; LEVELS]);
        assert!(h.wheel.pop().is_none() && h.wheel.is_empty());
    }

    #[test]
    fn cancel_in_overflow_keeps_the_others_in_order() {
        let far = 1u64 << LEVEL_SHIFT[LEVELS];
        let mut h = Harness::new();
        let handles: Vec<(u64, u32)> = (0..3).map(|i| h.arm(far + 10 * i)).collect();
        assert_eq!(h.wheel.overflow.len(), 3);
        let (id, slot) = handles[1];
        assert!(h.wheel.cancel(slot, id));
        assert_eq!(h.wheel.overflow.len(), 2);
        assert_eq!(h.drain(), vec![(far, 0), (far + 20, 2)]);
    }

    #[test]
    fn cancel_of_recycled_slot_is_rejected() {
        let mut h = Harness::new();
        let (id0, slot0) = h.arm(10);
        assert_eq!(h.wheel.pop().map(|f| f.seq), Some(0));
        // Slot 0 is free; re-arm recycles it with a new id.
        let (_, slot1) = h.arm(20);
        assert_eq!(slot0, slot1, "slab slot recycled");
        assert!(!h.wheel.cancel(slot0, id0), "stale handle must not cancel");
        // Same for a slot recycled after a cancel.
        let (id2, slot2) = h.arm(30);
        assert!(h.wheel.cancel(slot2, id2));
        let (_, slot3) = h.arm(40);
        assert_eq!(slot2, slot3, "cancel freed the slot at once");
        assert!(!h.wheel.cancel(slot2, id2), "stale handle must not cancel");
        assert_eq!(h.drain(), vec![(20, 1), (40, 3)]);
    }

    #[test]
    fn packets_interleave_with_timers_and_reject_cancel() {
        let mut h = Harness::new();
        h.arm(300); // seq 0, timer
        let (_, pslot) = h.arm_packet(100, 42); // seq 1
        h.arm_packet(300, 43); // seq 2: same tick as the timer
        assert_eq!(h.wheel.len(), 3);
        assert_eq!(h.wheel.timer_len(), 1, "packets excluded from timer count");
        // A packet entry must not be cancellable, even with its id value.
        assert!(!h.wheel.cancel(pslot, 0), "packets are never cancelled");
        let first = h.wheel.pop().expect("packet pending");
        assert!(matches!(first.item, WheelItem::Packet { dst: 42, .. }));
        assert_eq!(h.drain(), vec![(300, 0), (300, 2)], "seq breaks the tie");
        assert_eq!(h.wheel.timer_len(), 0);
    }

    #[test]
    fn cross_level_placement_keeps_seq_order_at_equal_deadlines() {
        // Two timers with the SAME deadline armed at different distances:
        // the first from far away (lands in a coarse level, cascades in
        // later), the second from nearby (lands in L0 directly). The heap
        // ordered them by seq; the wheel must too, even though the
        // cascaded entry joins the L0 slot list after the direct one.
        let mut h = Harness::new();
        let d = (1 << LEVEL_SHIFT[1]) + 123; // beyond L1's first window from t=0
        h.arm(d); // seq 0, placed coarse
        h.arm(5); // seq 1, fires first and advances the clock near d
        h.arm(d); // seq 2... still far
        assert_eq!(h.wheel.pop().map(|f| f.seq), Some(1));
        h.wheel.advance(d - 1); // cascade d's window into fine levels
        h.arm(d); // seq 3, placed directly in L0
        let got = h.drain();
        assert_eq!(got, vec![(d, 0), (d, 2), (d, 3)]);
    }

    #[test]
    fn deep_hierarchy_and_overflow_cascade_fire_in_order() {
        // One timer in L0, one just past the first window of each level
        // (so one per coarse level, the last in the overflow list), and
        // one deep in overflow that stays put across one epoch.
        let mut h = Harness::new();
        let mut deadlines = vec![200u64, (3 << LEVEL_SHIFT[LEVELS]) + 2];
        deadlines.extend(LEVEL_SHIFT.iter().map(|&shift| (1u64 << shift) + 7));
        for &d in &deadlines {
            h.arm(d);
        }
        assert_eq!(h.wheel.lk_bits, [2; LEVELS], "slot 1 of every coarse level");
        assert_eq!(h.wheel.overflow.len(), 2);
        let got: Vec<u64> = h.drain().iter().map(|&(t, _)| t).collect();
        let mut want = deadlines.clone();
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(h.wheel.is_empty());
    }

    #[test]
    fn quiet_advance_then_arm_lands_at_full_resolution() {
        // The engine sets the clock to a quiet deadline without popping
        // anything; a timer armed right after must still fire exactly.
        let mut h = Harness::new();
        h.wheel.advance(987_654_321);
        h.arm(987_654_321 + 40);
        h.arm(987_654_321 + 4);
        let got: Vec<u64> = h.drain().iter().map(|&(t, _)| t).collect();
        assert_eq!(got, vec![987_654_321 + 4, 987_654_321 + 40]);
    }

    #[test]
    fn zero_delay_timer_fires_at_now() {
        let mut h = Harness::new();
        h.wheel.advance(555);
        h.arm(555);
        assert_eq!(h.drain(), vec![(555, 0)]);
    }

    #[test]
    fn backlog_drops_at_cancel() {
        let mut h = Harness::new();
        let (id, slot) = h.arm(1_000);
        h.arm(2_000);
        assert_eq!((h.wheel.len(), h.wheel.timer_len()), (2, 2));
        assert!(h.wheel.cancel(slot, id));
        assert_eq!(
            (h.wheel.len(), h.wheel.timer_len()),
            (1, 1),
            "gone at cancel"
        );
        assert!(!h.wheel.cancel(slot, id), "double cancel rejected");
        assert_eq!(h.drain(), vec![(2_000, 1)], "a cancelled timer never pops");
    }

    #[test]
    fn same_deadline_wave_pops_head_first_in_constant_time() {
        // A packet wave: thousands of entries at one deadline, placed
        // coarse, cascaded into a single L0 slot. They must pop in exact
        // seq order, and the sorted-list invariant means each pop reads
        // only the head (this test guards the order; the bench guards
        // the speed).
        let mut h = Harness::new();
        let d = L0_SLOTS as u64 + 1_000;
        for i in 0..2_048u32 {
            h.arm_packet(d, i);
        }
        let got = h.drain();
        assert_eq!(got.len(), 2_048);
        for (i, &(t, s)) in got.iter().enumerate() {
            assert_eq!((t, s), (d, i as u64));
        }
    }

    #[test]
    fn pop_before_refuses_at_the_bound_and_cascades_only_below_it() {
        let mut h = Harness::new();
        let start = L0_SLOTS as u64; // first L1 slot boundary
        h.arm(start + 9); // seq 0, in L1 slot 1
                          // Bound at the slot start with seq 0: cascading would put the
                          // clock at the bound, so nothing may move.
        assert!(h.wheel.pop_before(start, 0).is_none());
        assert_eq!((h.wheel.now(), h.wheel.lk_bits[0]), (0, 2));
        // Any bound above (start, 0) lets the slot cascade; the entry
        // itself is still past the bound.
        assert!(h.wheel.pop_before(start, 1).is_none());
        assert_eq!((h.wheel.now(), h.wheel.lk_bits[0]), (start, 0));
        assert!(
            h.wheel.pop_before(start + 9, 0).is_none(),
            "strictly below the bound"
        );
        assert_eq!(h.wheel.pop_before(start + 9, 1).map(|f| f.seq), Some(0));
        assert_eq!(h.wheel.now(), start + 9);
    }

    #[test]
    fn slab_stays_at_the_population_under_steady_churn() {
        // 64 entries in flight, each pop arming a successor — datacenter
        // hops, with every seventh a far timer: slots recycle LIFO, so
        // the slab never grows past the population.
        let mut h = Harness::new();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..64 {
            h.arm_packet(250 + i, 0);
        }
        for i in 0..200_000u64 {
            let f = h.wheel.pop().expect("population is constant");
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if i % 7 == 0 {
                h.arm(f.time + 100_000 + (x >> 40) % 100_000);
            } else {
                h.arm_packet(f.time + 250 + (x >> 40) % 51, 0);
            }
        }
        assert_eq!((h.wheel.len(), h.wheel.slab.len()), (64, 64));
    }

    /// Randomized (but seeded, in-test-only) differential check against a
    /// sorted reference: thousands of arms at scattered deadlines across
    /// every level must pop in exact (deadline, seq) order.
    #[test]
    fn differential_order_against_sorted_reference() {
        let mut h = Harness::new();
        let mut expect: Vec<(u64, u64)> = Vec::new();
        // Simple LCG so the test needs no RNG dependency.
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut next = |m: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 16) % m
        };
        let mut popped = 0u64;
        for round in 0..64 {
            for _ in 0..32 {
                // Two windows of L0, L1, L2 and L4 in turn.
                let spread = 2 << LEVEL_SHIFT[[0, 1, 2, 4][round % 4]];
                let d = h.wheel.now() + 1 + next(spread);
                let (seq, _) = h.arm(d);
                expect.push((d, seq));
            }
            // Pop a few each round so arms happen at many wheel times.
            for _ in 0..24 {
                let f = h.wheel.pop().expect("entries pending");
                expect.sort_unstable();
                let want = expect.remove(0);
                assert_eq!((f.time, f.seq), want, "after {popped} pops");
                popped += 1;
            }
        }
        let rest = h.drain();
        expect.sort_unstable();
        assert_eq!(rest, expect);
    }
}
