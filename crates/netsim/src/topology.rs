//! Link and latency model.
//!
//! Nodes are placed in [`Zone`]s; a [`Topology`] maps ordered zone pairs to
//! a [`LinkSpec`] (one-way propagation latency, jitter, loss, duplication)
//! and stacks time-windowed overrides on top. [`LinkSpec::deliver`] is the
//! one rule that turns a spec into a packet's fate. This is deliberately
//! coarse: Yoda's mechanisms depend on *relative* timing (intra-DC
//! microseconds vs. WAN ~65 ms one-way, 600 ms failure detection, 300 ms
//! retransmission timers), not on link capacity or switch-level fidelity.
//!
//! Defaults reproduce the paper's testbed: clients on a university campus
//! reaching a Windows Azure datacenter over a WAN path with ~133 ms
//! baseline request latency, and sub-millisecond paths inside the DC.

use crate::rng::Rng;
use crate::time::SimTime;

/// Placement of a node, selecting which links its traffic traverses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Zone {
    /// External clients (campus / Internet).
    External,
    /// Inside the datacenter (muxes, LB instances, stores, backends).
    Dc,
}

impl Zone {
    const COUNT: usize = 2;

    fn index(self) -> usize {
        match self {
            Zone::External => 0,
            Zone::Dc => 1,
        }
    }
}

/// Characteristics of a directed zone-to-zone path.
#[derive(Debug, Clone, Copy)]
pub struct LinkSpec {
    /// One-way propagation delay.
    pub latency: SimTime,
    /// Uniform jitter added on top of `latency` (0..=jitter).
    pub jitter: SimTime,
    /// Independent drop probability applied per packet (0.0 = reliable).
    ///
    /// `loss >= 1.0` is a deterministic blackhole: the packet is dropped
    /// without consuming a random roll, so opening/closing a partition
    /// never perturbs the RNG stream of surviving traffic.
    pub loss: f64,
    /// Independent duplication probability applied per delivered packet
    /// (0.0 = never). A duplicated packet takes a second, independent
    /// trip through `LinkSpec::deliver` (own loss and jitter rolls).
    pub duplicate: f64,
}

impl LinkSpec {
    /// A link with the given one-way latency and no other impairments.
    pub fn with_latency(latency: SimTime) -> Self {
        LinkSpec {
            latency,
            jitter: SimTime::ZERO,
            loss: 0.0,
            duplicate: 0.0,
        }
    }

    /// A link that deterministically drops everything (partition).
    pub fn blackhole() -> Self {
        LinkSpec {
            loss: 1.0,
            ..LinkSpec::with_latency(SimTime::ZERO)
        }
    }

    /// The arrival time of a packet sent at `now`, or `None` when it is
    /// lost. The draws are the determinism contract: `loss >= 1.0` drops
    /// without a roll, then one loss roll if `loss > 0`, then one jitter
    /// roll if `jitter > 0`.
    pub(crate) fn deliver(&self, now: SimTime, rng: &mut Rng) -> Option<SimTime> {
        if self.loss >= 1.0 || (self.loss > 0.0 && rng.gen_f64() < self.loss) {
            return None;
        }
        let jitter = if self.jitter > SimTime::ZERO {
            SimTime::from_micros(rng.gen_range(0..=self.jitter.as_micros()))
        } else {
            SimTime::ZERO
        };
        Some(now + self.latency + jitter)
    }

    /// Whether a delivered packet is sent twice. Rolls only when
    /// `duplicate > 0`, so links without the knob draw nothing.
    pub(crate) fn duplicates(&self, rng: &mut Rng) -> bool {
        self.duplicate > 0.0 && rng.gen_f64() < self.duplicate
    }
}

/// Handle for one stacked link override, returned by
/// [`Topology::apply_override`] and consumed by
/// [`Topology::clear_override`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverrideId(u32);

/// The zone-pair link table and its override stacks.
///
/// # Examples
///
/// ```
/// use yoda_netsim::{Topology, Zone, SimTime, LinkSpec};
///
/// let mut topo = Topology::azure_testbed();
/// topo.set_link(Zone::External, Zone::Dc, LinkSpec::with_latency(SimTime::from_millis(50)));
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    links: [[LinkSpec; Zone::COUNT]; Zone::COUNT],
    /// Stacked time-windowed impairments per directed zone pair. The most
    /// recently applied override wins wholesale (no field merging);
    /// clearing one reveals whatever is below it, down to the base spec.
    overrides: [[Vec<(OverrideId, LinkSpec)>; Zone::COUNT]; Zone::COUNT],
    next_override: u32,
}

impl Topology {
    /// Topology matching the paper's testbed: campus clients ↔ Azure DC
    /// with ~65 ms one-way WAN latency (133 ms baseline request latency
    /// once server processing is added) and 250 µs intra-DC one-way
    /// latency.
    pub fn azure_testbed() -> Self {
        let wan = LinkSpec {
            jitter: SimTime::from_micros(1_500),
            ..LinkSpec::with_latency(SimTime::from_micros(64_000))
        };
        let dc = LinkSpec {
            jitter: SimTime::from_micros(50),
            ..LinkSpec::with_latency(SimTime::from_micros(250))
        };
        Topology {
            // Rows and columns in `Zone::index` order: External, Dc.
            links: [[wan, wan], [wan, dc]],
            overrides: Default::default(),
            next_override: 0,
        }
    }

    /// A topology with a single uniform latency everywhere — convenient for
    /// unit tests.
    pub fn uniform(latency: SimTime) -> Self {
        Topology {
            links: [[LinkSpec::with_latency(latency); Zone::COUNT]; Zone::COUNT],
            overrides: Default::default(),
            next_override: 0,
        }
    }

    /// Overrides the directed link `from → to` (and only that direction).
    pub fn set_link(&mut self, from: Zone, to: Zone, spec: LinkSpec) {
        if let Some(link) = self
            .links
            .get_mut(from.index())
            .and_then(|row| row.get_mut(to.index()))
        {
            *link = spec;
        }
    }

    /// Returns the base link spec for a directed zone pair (ignoring any
    /// active overrides).
    pub fn link(&self, from: Zone, to: Zone) -> LinkSpec {
        // Zone::index() is always < Zone::COUNT; the fallback is a
        // zero-latency reliable link and cannot actually be hit.
        self.links
            .get(from.index())
            .and_then(|row| row.get(to.index()))
            .copied()
            .unwrap_or(LinkSpec::with_latency(SimTime::ZERO))
    }

    /// Pushes a time-windowed impairment onto the directed link
    /// `from → to`. While active, the override replaces the base spec
    /// wholesale; the most recent push wins when several overlap. Applied
    /// via [`Engine::schedule`](crate::Engine::schedule) control events so
    /// activation sits at a deterministic `(time, seq)` position.
    pub fn apply_override(&mut self, from: Zone, to: Zone, spec: LinkSpec) -> OverrideId {
        let id = OverrideId(self.next_override);
        self.next_override += 1;
        if let Some(stack) = self
            .overrides
            .get_mut(from.index())
            .and_then(|row| row.get_mut(to.index()))
        {
            stack.push((id, spec));
        }
        id
    }

    /// Removes one override from the directed link `from → to`, revealing
    /// whatever was below it. Unknown ids are ignored (already cleared).
    pub fn clear_override(&mut self, from: Zone, to: Zone, id: OverrideId) {
        if let Some(stack) = self
            .overrides
            .get_mut(from.index())
            .and_then(|row| row.get_mut(to.index()))
        {
            stack.retain(|(oid, _)| *oid != id);
        }
    }

    /// The spec currently in force for a directed pair: the newest active
    /// override, or the base link when none is active.
    pub(crate) fn effective(&self, from: Zone, to: Zone) -> LinkSpec {
        match self
            .overrides
            .get(from.index())
            .and_then(|row| row.get(to.index()))
            .and_then(|stack| stack.last())
        {
            Some((_, spec)) => *spec,
            None => self.link(from, to),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy(loss: f64) -> LinkSpec {
        LinkSpec {
            loss,
            ..LinkSpec::with_latency(SimTime::from_millis(1))
        }
    }

    #[test]
    fn uniform_latency_applies() {
        let topo = Topology::uniform(SimTime::from_millis(10));
        let mut rng = Rng::seed_from_u64(1);
        let t = topo
            .effective(Zone::Dc, Zone::Dc)
            .deliver(SimTime::ZERO, &mut rng);
        assert_eq!(t, Some(SimTime::from_millis(10)));
    }

    #[test]
    fn azure_wan_is_slower_than_dc() {
        let topo = Topology::azure_testbed();
        assert!(
            topo.link(Zone::External, Zone::Dc).latency > topo.link(Zone::Dc, Zone::Dc).latency
        );
    }

    #[test]
    fn a_blackhole_drops_without_a_roll() {
        let mut rng = Rng::seed_from_u64(1);
        assert_eq!(LinkSpec::blackhole().deliver(SimTime::ZERO, &mut rng), None);
        assert_eq!(lossy(2.0).deliver(SimTime::ZERO, &mut rng), None);
        assert_eq!(rng.next_u64(), Rng::seed_from_u64(1).next_u64());
    }

    #[test]
    fn loss_is_one_roll_against_the_probability() {
        let link = lossy(0.5);
        let (mut rng, mut replay) = (Rng::seed_from_u64(7), Rng::seed_from_u64(7));
        let mut lost = 0;
        for _ in 0..200 {
            let kept = replay.gen_f64() >= 0.5;
            let t = link.deliver(SimTime::ZERO, &mut rng);
            assert_eq!(t, kept.then_some(SimTime::from_millis(1)));
            lost += usize::from(!kept);
        }
        assert!((50..150).contains(&lost), "{lost} of 200 lost at 50 %");
        // No jitter and no duplication knob: nothing else was drawn.
        assert_eq!(rng.next_u64(), replay.next_u64());
        assert!(!link.duplicates(&mut rng));
        assert_eq!(rng.next_u64(), replay.next_u64());
    }

    #[test]
    fn jitter_within_bounds() {
        let link = Topology::azure_testbed().link(Zone::External, Zone::Dc);
        let mut rng = Rng::seed_from_u64(42);
        for _ in 0..100 {
            let t = link.deliver(SimTime::ZERO, &mut rng).unwrap();
            assert!(t >= link.latency && t <= link.latency + link.jitter);
        }
    }

    #[test]
    fn duplication_rolls_only_when_set() {
        let dup = LinkSpec {
            duplicate: 1.0,
            ..LinkSpec::with_latency(SimTime::from_millis(1))
        };
        let (mut rng, mut replay) = (Rng::seed_from_u64(1), Rng::seed_from_u64(1));
        assert!(dup.duplicates(&mut rng));
        let _ = replay.gen_f64();
        assert!(!lossy(0.0).duplicates(&mut rng));
        assert_eq!(rng.next_u64(), replay.next_u64());
    }

    #[test]
    fn override_stack_wins_and_reveals_base_when_cleared() {
        let mut topo = Topology::uniform(SimTime::from_millis(1));
        let burst = topo.apply_override(Zone::External, Zone::Dc, lossy(0.5));
        let spike = topo.apply_override(
            Zone::External,
            Zone::Dc,
            LinkSpec::with_latency(SimTime::from_millis(40)),
        );
        // Newest override wins wholesale.
        assert_eq!(
            topo.effective(Zone::External, Zone::Dc).latency,
            SimTime::from_millis(40)
        );
        topo.clear_override(Zone::External, Zone::Dc, spike);
        assert_eq!(topo.effective(Zone::External, Zone::Dc).loss, 0.5);
        topo.clear_override(Zone::External, Zone::Dc, burst);
        assert_eq!(topo.effective(Zone::External, Zone::Dc).loss, 0.0);
        // Clearing an unknown id is a no-op.
        topo.clear_override(Zone::External, Zone::Dc, spike);
    }

    #[test]
    fn an_override_impairs_one_direction_only() {
        let mut topo = Topology::uniform(SimTime::from_millis(1));
        let id = topo.apply_override(Zone::External, Zone::Dc, LinkSpec::blackhole());
        let mut rng = Rng::seed_from_u64(1);
        let send = |topo: &Topology, from, to, rng: &mut Rng| {
            topo.effective(from, to).deliver(SimTime::ZERO, rng)
        };
        assert_eq!(send(&topo, Zone::External, Zone::Dc, &mut rng), None);
        assert!(send(&topo, Zone::Dc, Zone::External, &mut rng).is_some());
        topo.clear_override(Zone::External, Zone::Dc, id);
        assert!(send(&topo, Zone::External, Zone::Dc, &mut rng).is_some());
    }
}
