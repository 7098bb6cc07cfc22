//! Link and latency model.
//!
//! Nodes are placed in [`Zone`]s; a [`Topology`] maps ordered zone pairs to
//! a [`LinkSpec`] (one-way propagation latency, jitter, bandwidth). This is
//! deliberately coarse: Yoda's mechanisms depend on *relative* timing
//! (intra-DC microseconds vs. WAN ~65 ms one-way, 600 ms failure detection,
//! 300 ms retransmission timers), not on switch-level fidelity.
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
    /// Same-host loopback (controller collocated with a component).
    Local,
}

impl Zone {
    const COUNT: usize = 3;

    fn index(self) -> usize {
        match self {
            Zone::External => 0,
            Zone::Dc => 1,
            Zone::Local => 2,
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
    /// Link bandwidth in bytes per second; `None` means unconstrained.
    pub bandwidth_bps: Option<u64>,
    /// Independent drop probability applied per packet (0.0 = reliable).
    ///
    /// `loss >= 1.0` is a deterministic blackhole: the packet is dropped
    /// without consuming a random roll, so opening/closing a partition
    /// never perturbs the RNG stream of surviving traffic.
    pub loss: f64,
    /// Independent duplication probability applied per delivered packet
    /// (0.0 = never). A duplicated packet takes a second, independent
    /// trip through the link model (own jitter/loss/queueing roll).
    pub duplicate: f64,
}

impl LinkSpec {
    /// A link with the given one-way latency and no other impairments.
    pub fn with_latency(latency: SimTime) -> Self {
        LinkSpec {
            latency,
            jitter: SimTime::ZERO,
            bandwidth_bps: None,
            loss: 0.0,
            duplicate: 0.0,
        }
    }

    /// A link that deterministically drops everything (partition).
    pub fn blackhole() -> Self {
        LinkSpec {
            latency: SimTime::ZERO,
            jitter: SimTime::ZERO,
            bandwidth_bps: None,
            loss: 1.0,
            duplicate: 0.0,
        }
    }
}

/// Handle for one stacked link override, returned by
/// [`Topology::apply_override`] and consumed by
/// [`Topology::clear_override`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverrideId(u32);

/// The zone-pair latency/bandwidth matrix.
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
    /// Serialization state per directed zone pair: the time the link is
    /// busy until (models FIFO queueing at the bottleneck).
    busy_until: [[SimTime; Zone::COUNT]; Zone::COUNT],
    /// Stacked time-windowed impairments per directed zone pair. The most
    /// recently applied override wins wholesale (no field merging);
    /// clearing one reveals whatever is below it, down to the base spec.
    overrides: [[Vec<(OverrideId, LinkSpec)>; Zone::COUNT]; Zone::COUNT],
    next_override: u32,
}

impl Topology {
    /// Topology matching the paper's testbed: campus clients ↔ Azure DC
    /// with ~65 ms one-way WAN latency (133 ms baseline request latency
    /// once server processing is added), 250 µs intra-DC one-way latency,
    /// and 5 µs loopback.
    pub fn azure_testbed() -> Self {
        let wan = LinkSpec {
            latency: SimTime::from_micros(64_000),
            jitter: SimTime::from_micros(1_500),
            bandwidth_bps: None,
            loss: 0.0,
            duplicate: 0.0,
        };
        let dc = LinkSpec {
            latency: SimTime::from_micros(250),
            jitter: SimTime::from_micros(50),
            bandwidth_bps: None,
            loss: 0.0,
            duplicate: 0.0,
        };
        let local = LinkSpec::with_latency(SimTime::from_micros(5));
        Topology {
            // Rows and columns in `Zone::index` order: External, Dc, Local.
            links: [[wan, wan, dc], [wan, dc, dc], [dc, dc, local]],
            busy_until: [[SimTime::ZERO; Zone::COUNT]; Zone::COUNT],
            overrides: Default::default(),
            next_override: 0,
        }
    }

    /// A topology with a single uniform latency everywhere — convenient for
    /// unit tests.
    pub fn uniform(latency: SimTime) -> Self {
        Topology {
            links: [[LinkSpec::with_latency(latency); Zone::COUNT]; Zone::COUNT],
            busy_until: [[SimTime::ZERO; Zone::COUNT]; Zone::COUNT],
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

    /// Overrides both directions of the `a ↔ b` link.
    pub fn set_link_bidir(&mut self, a: Zone, b: Zone, spec: LinkSpec) {
        self.set_link(a, b, spec);
        self.set_link(b, a, spec);
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
    pub fn effective(&self, from: Zone, to: Zone) -> LinkSpec {
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

    /// Rolls the effective duplication probability for a directed pair.
    /// Consumes randomness only when the knob is nonzero, so topologies
    /// with `duplicate == 0.0` replay bit-identical RNG streams.
    pub(crate) fn roll_duplicate(&self, from: Zone, to: Zone, rng: &mut Rng) -> bool {
        let d = self.effective(from, to).duplicate;
        d > 0.0 && rng.gen_f64() < d
    }

    /// Computes the delivery time of a packet of `wire_len` bytes sent at
    /// `now` from `from` to `to`, advancing the link's queue occupancy.
    ///
    /// Returns `None` if the packet is lost.
    pub fn delivery_time(
        &mut self,
        now: SimTime,
        from: Zone,
        to: Zone,
        wire_len: usize,
        rng: &mut Rng,
    ) -> Option<SimTime> {
        let spec = self.effective(from, to);
        if spec.loss >= 1.0 {
            // Deterministic blackhole (partition): no RNG consumed, so
            // surviving traffic replays identically while the partition
            // is open.
            return None;
        }
        if spec.loss > 0.0 && rng.gen_f64() < spec.loss {
            return None;
        }
        let jitter = if spec.jitter > SimTime::ZERO {
            SimTime::from_micros(rng.gen_range(0..=spec.jitter.as_micros()))
        } else {
            SimTime::ZERO
        };
        let busy_slot = self
            .busy_until
            .get_mut(from.index())
            .and_then(|row| row.get_mut(to.index()));
        let start = match (spec.bandwidth_bps, busy_slot) {
            (Some(bps), Some(busy)) => {
                let start = now.max(*busy);
                let tx_us = (wire_len as u64 * 1_000_000).div_ceil(bps);
                *busy = start + SimTime::from_micros(tx_us);
                *busy
            }
            _ => now,
        };
        Some(start + spec.latency + jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_latency_applies() {
        let mut topo = Topology::uniform(SimTime::from_millis(10));
        let mut rng = Rng::seed_from_u64(1);
        let t = topo
            .delivery_time(SimTime::ZERO, Zone::Dc, Zone::Dc, 100, &mut rng)
            .unwrap();
        assert_eq!(t, SimTime::from_millis(10));
    }

    #[test]
    fn azure_wan_is_slower_than_dc() {
        let topo = Topology::azure_testbed();
        assert!(
            topo.link(Zone::External, Zone::Dc).latency > topo.link(Zone::Dc, Zone::Dc).latency
        );
    }

    #[test]
    fn bandwidth_serializes_back_to_back_packets() {
        let mut topo = Topology::uniform(SimTime::from_millis(1));
        topo.set_link(
            Zone::Dc,
            Zone::Dc,
            LinkSpec {
                latency: SimTime::from_millis(1),
                jitter: SimTime::ZERO,
                bandwidth_bps: Some(1_000_000), // 1 MB/s => 1000 B takes 1 ms
                loss: 0.0,
                duplicate: 0.0,
            },
        );
        let mut rng = Rng::seed_from_u64(1);
        let t1 = topo
            .delivery_time(SimTime::ZERO, Zone::Dc, Zone::Dc, 1000, &mut rng)
            .unwrap();
        let t2 = topo
            .delivery_time(SimTime::ZERO, Zone::Dc, Zone::Dc, 1000, &mut rng)
            .unwrap();
        // Second packet queues behind the first: one extra ms of tx delay.
        assert_eq!(t1, SimTime::from_millis(2));
        assert_eq!(t2, SimTime::from_millis(3));
    }

    #[test]
    fn lossy_link_drops_deterministically() {
        let mut topo = Topology::uniform(SimTime::from_millis(1));
        topo.set_link(
            Zone::Dc,
            Zone::Dc,
            LinkSpec {
                latency: SimTime::from_millis(1),
                jitter: SimTime::ZERO,
                bandwidth_bps: None,
                loss: 1.0,
                duplicate: 0.0,
            },
        );
        let mut rng = Rng::seed_from_u64(1);
        assert!(topo
            .delivery_time(SimTime::ZERO, Zone::Dc, Zone::Dc, 100, &mut rng)
            .is_none());
    }

    #[test]
    fn duplicating_link_duplicates_deterministically() {
        let mut topo = Topology::uniform(SimTime::from_millis(1));
        topo.set_link(
            Zone::Dc,
            Zone::Dc,
            LinkSpec {
                latency: SimTime::from_millis(1),
                jitter: SimTime::ZERO,
                bandwidth_bps: None,
                loss: 0.0,
                duplicate: 1.0,
            },
        );
        let mut rng_a = Rng::seed_from_u64(1);
        let mut rng_b = Rng::seed_from_u64(1);
        assert!(topo.roll_duplicate(Zone::Dc, Zone::Dc, &mut rng_a));
        assert!(topo.roll_duplicate(Zone::Dc, Zone::Dc, &mut rng_b));
        // duplicate == 0.0 must not consume randomness at all.
        let clean = Topology::uniform(SimTime::from_millis(1));
        let before = rng_a.next_u64();
        let mut rng_c = Rng::seed_from_u64(1);
        let _ = rng_c.gen_f64(); // align with rng_a's consumed roll
        assert!(!clean.roll_duplicate(Zone::Dc, Zone::Dc, &mut rng_c));
        assert_eq!(before, rng_c.next_u64());
    }

    #[test]
    fn override_stack_wins_and_reveals_base_when_cleared() {
        let mut topo = Topology::uniform(SimTime::from_millis(1));
        let burst = topo.apply_override(
            Zone::External,
            Zone::Dc,
            LinkSpec {
                latency: SimTime::from_millis(1),
                jitter: SimTime::ZERO,
                bandwidth_bps: None,
                loss: 0.5,
                duplicate: 0.0,
            },
        );
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
    fn asymmetric_partition_blocks_one_direction_only() {
        let mut topo = Topology::uniform(SimTime::from_millis(1));
        let id = topo.apply_override(Zone::External, Zone::Dc, LinkSpec::blackhole());
        let mut rng = Rng::seed_from_u64(1);
        let before = rng.next_u64();
        assert!(topo
            .delivery_time(SimTime::ZERO, Zone::External, Zone::Dc, 100, &mut rng)
            .is_none());
        // Blackhole drop consumed no randomness.
        let mut rng2 = Rng::seed_from_u64(1);
        assert_eq!(before, rng2.next_u64());
        // The reverse direction is untouched.
        assert!(topo
            .delivery_time(SimTime::ZERO, Zone::Dc, Zone::External, 100, &mut rng)
            .is_some());
        topo.clear_override(Zone::External, Zone::Dc, id);
        assert!(topo
            .delivery_time(SimTime::ZERO, Zone::External, Zone::Dc, 100, &mut rng)
            .is_some());
    }

    #[test]
    fn jitter_within_bounds() {
        let mut topo = Topology::azure_testbed();
        let mut rng = Rng::seed_from_u64(42);
        let base = topo.link(Zone::External, Zone::Dc).latency;
        let jit = topo.link(Zone::External, Zone::Dc).jitter;
        for _ in 0..100 {
            let t = topo
                .delivery_time(SimTime::ZERO, Zone::External, Zone::Dc, 100, &mut rng)
                .unwrap();
            assert!(t >= base && t <= base + jit);
        }
    }
}
