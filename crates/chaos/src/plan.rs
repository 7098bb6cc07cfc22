//! Seeded fault-plan generation (FoundationDB-style simulation chaos).
//!
//! A [`ChaosPlan`] is a pure function of `(seed, survivable)` for the
//! one testbed shape below: the same inputs always produce the identical
//! fault schedule, so a failing run reproduces bit-for-bit from the seed
//! printed by the test harness.
//! Plans come in two regimes:
//!
//! * **survivable** — the generator enforces the availability
//!   preconditions under which Yoda promises zero user-visible breakage
//!   (§6): never fewer than `MIN_LIVE_INSTANCES` instances or
//!   `MIN_LIVE_MUXES` muxes, at most `MAX_STORES_IMPAIRED`
//!   (replication factor − 1) store servers impaired at once, at least
//!   one live backend per service, WAN partitions far shorter than the
//!   browser timeout, and no controller kill.
//! * **unconstrained** — the floors are lifted and the controller itself
//!   may be killed (permanently). Such runs are only expected to degrade
//!   *gracefully*: every fetch resolves in bounded time and no flow
//!   vanishes from the conservation counters.

use std::fmt;

use yoda_netsim::Rng;
use yoda_netsim::SimTime;

/// Minimum spacing enforced between two faults that touch the same
/// target, so a restore and the next crash of one component never land
/// on the same instant (scheduling order would then depend on plan
/// order, not time).
const TARGET_GAP: SimTime = SimTime::from_millis(1);

/// Active Yoda instances in the chaos testbed.
pub(crate) const INSTANCES: usize = 3;
/// TCPStore servers in the chaos testbed.
pub(crate) const STORES: usize = 3;
/// L4 muxes in the chaos testbed.
pub(crate) const MUXES: usize = 2;
/// Backend servers in the chaos testbed (backend `i` serves service
/// `i % SERVICES`).
pub(crate) const BACKENDS: usize = 4;
/// Online services in the chaos testbed.
pub(crate) const SERVICES: usize = 2;
/// Minimum fault duration.
const MIN_DURATION: SimTime = SimTime::from_secs(1);

/// Backends belonging to service `s`.
fn backends_of_service(s: usize) -> usize {
    (0..BACKENDS).filter(|b| b % SERVICES == s).count()
}

/// One injectable fault. Component targets are indices into the
/// testbed's component vectors (`instances[i]`, `stores[i]`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// Kill Yoda instance `i`; restart it with fresh state at the end.
    InstanceCrash {
        /// Instance index.
        i: usize,
    },
    /// Partition instance `i` (alive, timers firing, no packets in or
    /// out); heal at the end.
    InstancePartition {
        /// Instance index.
        i: usize,
    },
    /// Kill store server `i`; restart it empty at the end.
    StoreCrash {
        /// Store index.
        i: usize,
    },
    /// Partition store server `i`; heal at the end (data survives).
    StorePartition {
        /// Store index.
        i: usize,
    },
    /// Kill mux `i`; restart it with a cold flow table at the end.
    MuxCrash {
        /// Mux index.
        i: usize,
    },
    /// Kill backend `i`; restart it at the end.
    BackendCrash {
        /// Backend index.
        i: usize,
    },
    /// Kill the controller. Never restored: the control plane stays dead
    /// for the rest of the run (unconstrained plans only).
    ControllerKill,
    /// Raise WAN loss to `loss_pct`% in both directions for the window.
    WanLossBurst {
        /// Packet loss percentage (0–100).
        loss_pct: u32,
    },
    /// Add `extra_ms` of one-way latency to the WAN in both directions.
    WanLatencySpike {
        /// Added one-way latency in milliseconds.
        extra_ms: u32,
    },
    /// Blackhole the WAN: `to_dc` cuts client→DC, `to_ext` cuts
    /// DC→client. One-sided cuts exercise asymmetric partitions.
    WanPartition {
        /// Cut the External→Dc direction.
        to_dc: bool,
        /// Cut the Dc→External direction.
        to_ext: bool,
    },
    /// Gray failure: slow `node`'s CPU service time by `factor`× for the
    /// window. The node stays alive and keeps answering pings — only its
    /// work gets slow. Stores and backends carry the CPU service-time
    /// models, so they are the valid targets (store brownout is the
    /// headline case).
    NodeSlowdown {
        /// The component to brown out.
        node: GrayTarget,
        /// Service-time multiplier (`10` = answering 10× slower).
        factor: u32,
    },
    /// Gray failure: degrade every link touching `node` — `loss_pct`%
    /// per-packet loss plus up to `jitter_ms` of added seeded delay in
    /// each direction. The node itself is healthy; its network is not.
    LinkDegrade {
        /// The component whose links flap.
        node: GrayTarget,
        /// Per-packet loss percentage (0–100) on the node's links.
        loss_pct: u32,
        /// Upper bound on added per-packet delay (milliseconds).
        jitter_ms: u32,
    },
    /// Gray failure: cut exactly one direction of `node`'s connectivity
    /// (`inbound` = packets to it vanish, otherwise packets from it do).
    /// The half-open connectivity confuses naive health checks: one side
    /// still sees traffic flowing.
    AsymmetricPartition {
        /// The component to half-partition.
        node: GrayTarget,
        /// Cut ingress when `true`, egress when `false`.
        inbound: bool,
    },
}

/// Which component a gray fault degrades. Maps onto the same overlap
/// targets as the crash faults, so a slow store counts against
/// `MAX_STORES_IMPAIRED` exactly like a dead one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum GrayTarget {
    /// Yoda instance `i`.
    Instance(usize),
    /// Store server `i`.
    Store(usize),
    /// Mux `i`.
    Mux(usize),
    /// Backend server `i`.
    Backend(usize),
}

impl GrayTarget {
    fn target(self) -> Target {
        match self {
            GrayTarget::Instance(i) => Target::Instance(i),
            GrayTarget::Store(i) => Target::Store(i),
            GrayTarget::Mux(i) => Target::Mux(i),
            GrayTarget::Backend(i) => Target::Backend(i),
        }
    }
}

/// What a fault impairs, for overlap accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    Instance(usize),
    Store(usize),
    Mux(usize),
    Backend(usize),
    Controller,
    Wan,
}

impl FaultKind {
    fn target(self) -> Target {
        match self {
            FaultKind::InstanceCrash { i } | FaultKind::InstancePartition { i } => {
                Target::Instance(i)
            }
            FaultKind::StoreCrash { i } | FaultKind::StorePartition { i } => Target::Store(i),
            FaultKind::MuxCrash { i } => Target::Mux(i),
            FaultKind::BackendCrash { i } => Target::Backend(i),
            FaultKind::ControllerKill => Target::Controller,
            FaultKind::WanLossBurst { .. }
            | FaultKind::WanLatencySpike { .. }
            | FaultKind::WanPartition { .. } => Target::Wan,
            FaultKind::NodeSlowdown { node, .. }
            | FaultKind::LinkDegrade { node, .. }
            | FaultKind::AsymmetricPartition { node, .. } => node.target(),
        }
    }

    /// Whether this fault can consume a browser retry even with a
    /// perfectly behaving L7 LB. WAN impairments and anything that slows
    /// or breaks the backend/data path for client bytes count; Yoda's own
    /// churn (instances, muxes, stores — crashed, partitioned, slowed, or
    /// lossy) is masked by flow re-steering, TCPStore recovery, hedged
    /// store reads, and degraded-mode admission, and costs nothing.
    /// Exception: packet loss on an instance or mux link sits on the
    /// client byte path itself, which no LB logic can mask.
    fn client_visible(self) -> bool {
        match self {
            FaultKind::LinkDegrade { node, .. } => !matches!(node, GrayTarget::Store(_)),
            FaultKind::NodeSlowdown { node, .. } => matches!(node, GrayTarget::Backend(_)),
            FaultKind::AsymmetricPartition { .. } => false,
            _ => matches!(self.target(), Target::Wan | Target::Backend(_)),
        }
    }
}

/// One scheduled fault: injected at `at`, healed/restored at
/// `at + duration` (except [`FaultKind::ControllerKill`], which is
/// permanent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Fault {
    /// Injection time.
    pub(crate) at: SimTime,
    /// Impairment duration.
    pub(crate) duration: SimTime,
    /// What to break.
    pub kind: FaultKind,
}

impl Fault {
    /// When the fault heals.
    pub(crate) fn end(&self) -> SimTime {
        self.at + self.duration
    }

    /// Whether two faults are concurrent (with the safety gap).
    fn overlaps(&self, other: &Fault) -> bool {
        self.at < other.end() + TARGET_GAP && other.at < self.end() + TARGET_GAP
    }
}

/// Start of the injection window: fault start times fall in
/// `[WINDOW_START, Regime::window_end]`.
const WINDOW_START: SimTime = SimTime::from_secs(2);

/// What the two regimes draw differently.
struct Regime {
    /// Whether the floors and caps (`MIN_LIVE_INSTANCES` …
    /// `MAX_LINK_JITTER_MS`) bind and the controller is spared.
    /// Unconstrained plans may kill it (permanently).
    survivable: bool,
    /// Target number of faults (the generator may fall short when the
    /// constraints reject too many draws; it never exceeds this).
    faults: usize,
    /// Maximum faults active at any instant.
    max_concurrent: usize,
    /// End of the injection window.
    window_end: SimTime,
    /// Maximum fault duration.
    max_duration: SimTime,
    /// Ceiling on WAN-partition duration (kept far below the browser
    /// timeout in survivable plans).
    max_wan_partition: SimTime,
}

/// Availability-preserving: Yoda's §6 preconditions hold at every
/// instant of the schedule.
const SURVIVABLE: Regime = Regime {
    survivable: true,
    faults: 5,
    max_concurrent: 2,
    window_end: SimTime::from_secs(20),
    max_duration: SimTime::from_secs(6),
    max_wan_partition: SimTime::from_secs(2),
};

/// No floors: mass failures, permanent controller death, long WAN
/// blackholes. The run is only expected to degrade gracefully.
const UNCONSTRAINED: Regime = Regime {
    survivable: false,
    faults: 8,
    max_concurrent: 4,
    window_end: SimTime::from_secs(30),
    max_duration: SimTime::from_secs(8),
    max_wan_partition: SimTime::from_secs(5),
};

// The floors and caps below bind survivable plans only; unconstrained
// plans lift them all.

/// Floor on live (unimpaired) Yoda instances.
const MIN_LIVE_INSTANCES: usize = 1;
/// Floor on live muxes.
const MIN_LIVE_MUXES: usize = 1;
/// Ceiling on concurrently impaired store servers (replication factor − 1
/// keeps every key readable).
const MAX_STORES_IMPAIRED: usize = 1;
/// Floor on live backends per service.
const MIN_LIVE_BACKENDS_PER_SERVICE: usize = 1;
/// Ceiling on *client-visible* faults across the whole plan (WAN
/// impairments and backend crashes — faults no L7 LB can mask). Each can
/// consume one browser retry on an unlucky object: a WAN burst kills the
/// attempt in flight during it (a twice-lost SYN already exceeds browser
/// patience at the paper's 3 s SYN RTO), and a backend crash resets the
/// flows pinned to it. Yoda's own churn (instances, muxes, stores) is
/// masked by flow re-steering and TCPStore recovery and costs nothing.
/// Zero broken flows is therefore only guaranteed when this count stays
/// at or below the browser's retry budget.
const MAX_CLIENT_VISIBLE: usize = 2;
/// Ceiling on a [`FaultKind::NodeSlowdown`] factor.
const MAX_SLOWDOWN_FACTOR: u32 = 10;
/// Ceiling on `factor × duration_secs` for a slowdown — the total
/// "slowness budget" of one gray fault. Caps the backlog a browned-out
/// store can accumulate, so survivable runs drain it before the deadline.
const MAX_SLOWDOWN_FACTOR_SECS: u64 = 60;
/// Ceiling on [`FaultKind::LinkDegrade`] loss (percent).
const MAX_LINK_LOSS_PCT: u32 = 30;
/// Ceiling on [`FaultKind::LinkDegrade`] jitter (milliseconds).
const MAX_LINK_JITTER_MS: u32 = 20;

/// A complete seeded fault schedule, sorted by injection time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosPlan {
    /// The seed the plan (and the run) derives from.
    pub(crate) seed: u64,
    /// Whether the schedule respects the availability floors.
    pub(crate) survivable: bool,
    /// The schedule, sorted by `(at, duration, kind)`.
    pub faults: Vec<Fault>,
}

impl ChaosPlan {
    /// Generates the plan for `seed` in one regime by rejection sampling:
    /// draw a fault, keep it only when the regime still admits it next to
    /// everything already accepted. Attempts are bounded, so a crowded
    /// schedule ends with fewer faults instead of looping.
    pub fn generate(seed: u64, survivable: bool) -> ChaosPlan {
        let regime = if survivable {
            &SURVIVABLE
        } else {
            &UNCONSTRAINED
        };
        let mut rng = Rng::seed_from_u64(seed ^ 0xC4A0_5EED_0B57_AC1E);
        let mut faults: Vec<Fault> = Vec::new();
        let max_attempts = regime.faults * 64 + 64;
        for _ in 0..max_attempts {
            if faults.len() >= regime.faults {
                break;
            }
            let f = draw(&mut rng, regime);
            if admissible(&faults, &f, regime) {
                faults.push(f);
            }
        }
        faults.sort();
        ChaosPlan {
            seed,
            survivable,
            faults,
        }
    }

    /// Multi-line rendering for failure output: paste the seed back into
    /// the harness and the identical schedule regenerates.
    pub(crate) fn render(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for ChaosPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ChaosPlan {{ seed: {}, survivable: {}, faults: {} }}",
            self.seed,
            self.survivable,
            self.faults.len()
        )?;
        for fault in &self.faults {
            writeln!(
                f,
                "  [{:7.3}s +{:.3}s] {:?}",
                fault.at.as_secs_f64(),
                fault.duration.as_secs_f64(),
                fault.kind
            )?;
        }
        Ok(())
    }
}

/// Draws one candidate fault from the weighted kind table.
fn draw(rng: &mut Rng, regime: &Regime) -> Fault {
    // Class table: each tag repeated by weight. Built the same way every
    // call, so the draw sequence is a pure function of the RNG stream.
    let mut classes: Vec<u8> = Vec::new();
    let mut push = |tag: u8, weight: usize| classes.extend(std::iter::repeat_n(tag, weight));
    push(0, 3); // instance crash
    push(1, 2); // instance partition
    push(2, 2); // store crash
    push(3, 2); // store partition
    push(4, 2); // mux crash
    push(5, 2); // backend crash
    if !regime.survivable {
        push(6, 1); // controller kill
    }
    push(7, 2); // WAN loss burst
    push(8, 2); // WAN latency spike
    push(9, 1); // WAN partition
    push(10, 2); // node slowdown (gray)
    push(11, 2); // link degrade (gray)
    push(12, 2); // asymmetric partition (gray)
    let class = classes
        .get(rng.gen_range(0..classes.len().max(1) as u64) as usize)
        .copied()
        .unwrap_or(7);

    let span = regime.window_end.saturating_sub(WINDOW_START).as_micros();
    let at = WINDOW_START + SimTime::from_micros(rng.gen_range(0..=span));
    let dur_span = regime.max_duration.saturating_sub(MIN_DURATION).as_micros();
    let mut duration = MIN_DURATION + SimTime::from_micros(rng.gen_range(0..=dur_span));

    let pick = |rng: &mut Rng, n: usize| rng.gen_range(0..n.max(1) as u64) as usize;
    let kind = match class {
        0 => FaultKind::InstanceCrash {
            i: pick(rng, INSTANCES),
        },
        1 => FaultKind::InstancePartition {
            i: pick(rng, INSTANCES),
        },
        2 => FaultKind::StoreCrash {
            i: pick(rng, STORES),
        },
        3 => FaultKind::StorePartition {
            i: pick(rng, STORES),
        },
        4 => FaultKind::MuxCrash {
            i: pick(rng, MUXES),
        },
        5 => FaultKind::BackendCrash {
            i: pick(rng, BACKENDS),
        },
        6 => {
            duration = SimTime::ZERO;
            FaultKind::ControllerKill
        }
        8 => FaultKind::WanLatencySpike {
            extra_ms: 20 + rng.gen_range(0..=80u64) as u32,
        },
        9 => {
            duration = duration.min(regime.max_wan_partition);
            match rng.gen_range(0..3u64) {
                0 => FaultKind::WanPartition {
                    to_dc: true,
                    to_ext: true,
                },
                1 => FaultKind::WanPartition {
                    to_dc: true,
                    to_ext: false,
                },
                _ => FaultKind::WanPartition {
                    to_dc: false,
                    to_ext: true,
                },
            }
        }
        10 => {
            // Stores are the preferred brownout victims (the paper's
            // store tier is the availability-critical dependency);
            // backends take the remaining third.
            let node = if rng.gen_range(0..3u64) < 2 {
                GrayTarget::Store(pick(rng, STORES))
            } else {
                GrayTarget::Backend(pick(rng, BACKENDS))
            };
            // Drawn past the survivable cap on purpose: rejection
            // sampling trims survivable plans to ≤10×, unconstrained
            // plans keep the harsher draws.
            FaultKind::NodeSlowdown {
                node,
                factor: 2 + rng.gen_range(0..=18u64) as u32,
            }
        }
        11 => {
            let node = match rng.gen_range(0..3u64) {
                0 => GrayTarget::Instance(pick(rng, INSTANCES)),
                1 => GrayTarget::Mux(pick(rng, MUXES)),
                _ => GrayTarget::Store(pick(rng, STORES)),
            };
            FaultKind::LinkDegrade {
                node,
                loss_pct: 5 + rng.gen_range(0..=45u64) as u32,
                jitter_ms: 1 + rng.gen_range(0..=29u64) as u32,
            }
        }
        12 => {
            let node = if rng.gen_range(0..2u64) == 0 {
                GrayTarget::Instance(pick(rng, INSTANCES))
            } else {
                GrayTarget::Store(pick(rng, STORES))
            };
            FaultKind::AsymmetricPartition {
                node,
                inbound: rng.gen_range(0..2u64) == 0,
            }
        }
        _ => FaultKind::WanLossBurst {
            loss_pct: 10 + rng.gen_range(0..=40u64) as u32,
        },
    };
    Fault { at, duration, kind }
}

/// Whether `f` can join `existing` without breaking the regime's rules.
fn admissible(existing: &[Fault], f: &Fault, regime: &Regime) -> bool {
    // At most one controller kill per plan, ever.
    if f.kind == FaultKind::ControllerKill
        && existing.iter().any(|e| e.kind == FaultKind::ControllerKill)
    {
        return false;
    }
    let overlapping: Vec<&Fault> = existing.iter().filter(|e| e.overlaps(f)).collect();
    if overlapping.len() + 1 > regime.max_concurrent {
        return false;
    }
    // Never two concurrent faults on one target (this also serialises
    // WAN impairments, which all share the WAN target).
    if overlapping
        .iter()
        .any(|e| e.kind.target() == f.kind.target())
    {
        return false;
    }
    if !regime.survivable {
        return true;
    }
    // Gray-fault intensity caps: a browned-out store must not accumulate
    // more backlog than the run can drain, and degraded links must stay
    // inside what TCP retransmission + hedged store ops absorb.
    match f.kind {
        FaultKind::NodeSlowdown { factor, .. } => {
            if factor > MAX_SLOWDOWN_FACTOR {
                return false;
            }
            let factor_secs = u64::from(factor).saturating_mul(f.duration.as_micros()) / 1_000_000;
            if factor_secs > MAX_SLOWDOWN_FACTOR_SECS {
                return false;
            }
        }
        FaultKind::LinkDegrade {
            loss_pct,
            jitter_ms,
            ..
        } if loss_pct > MAX_LINK_LOSS_PCT || jitter_ms > MAX_LINK_JITTER_MS => {
            return false;
        }
        _ => {}
    }
    // Client-visible faults are capped over the *whole plan*, not just
    // the overlap window: one object's attempts can span distant faults
    // (a 10 s timeout, then a retry into the next burst), so every such
    // fault potentially consumes a retry of the same unlucky object.
    if f.kind.client_visible() {
        let already = existing.iter().filter(|e| e.kind.client_visible()).count();
        if already + 1 > MAX_CLIENT_VISIBLE {
            return false;
        }
    }
    let count = |t: fn(Target) -> bool| {
        overlapping
            .iter()
            .map(|e| e.kind.target())
            .chain([f.kind.target()])
            .filter(|&tg| t(tg))
            .count()
    };
    let instances_down = count(|t| matches!(t, Target::Instance(_)));
    if INSTANCES < MIN_LIVE_INSTANCES + instances_down {
        return false;
    }
    let stores_down = count(|t| matches!(t, Target::Store(_)));
    if stores_down > MAX_STORES_IMPAIRED {
        return false;
    }
    let muxes_down = count(|t| matches!(t, Target::Mux(_)));
    if MUXES < MIN_LIVE_MUXES + muxes_down {
        return false;
    }
    for s in 0..SERVICES {
        let down = overlapping
            .iter()
            .map(|e| e.kind.target())
            .chain([f.kind.target()])
            .filter(|tg| matches!(tg, Target::Backend(b) if b % SERVICES == s))
            .count();
        if backends_of_service(s) < MIN_LIVE_BACKENDS_PER_SERVICE + down {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..32 {
            let a = ChaosPlan::generate(seed, true);
            let b = ChaosPlan::generate(seed, true);
            assert_eq!(a, b, "seed {seed} regenerated differently");
            let c = ChaosPlan::generate(seed, false);
            let d = ChaosPlan::generate(seed, false);
            assert_eq!(c, d);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = ChaosPlan::generate(1, true);
        let b = ChaosPlan::generate(2, true);
        assert_ne!(a.faults, b.faults);
    }

    #[test]
    fn plans_are_sorted_and_inside_the_window() {
        for seed in 0..64 {
            let plan = ChaosPlan::generate(seed, true);
            assert!(!plan.faults.is_empty(), "seed {seed} produced no faults");
            for w in plan.faults.windows(2) {
                assert!(w[0].at <= w[1].at);
            }
            for f in &plan.faults {
                assert!(f.at >= WINDOW_START && f.at <= SURVIVABLE.window_end);
            }
        }
    }

    /// Independent re-check of the availability floors at every fault
    /// boundary (the generator's own accounting is not trusted here).
    #[test]
    fn survivable_plans_respect_floors() {
        for seed in 0..64 {
            let plan = ChaosPlan::generate(seed, true);
            assert!(plan.survivable);
            for f in &plan.faults {
                assert_ne!(f.kind, FaultKind::ControllerKill);
                // The impaired set only changes at fault starts, so
                // checking occupancy at each start instant is exhaustive.
                let t = f.at;
                let live = |pred: &dyn Fn(Target) -> bool| {
                    plan.faults
                        .iter()
                        .filter(|e| e.at <= t && t <= e.end() && pred(e.kind.target()))
                        .count()
                };
                let inst = live(&|t| matches!(t, Target::Instance(_)));
                assert!(INSTANCES - inst >= MIN_LIVE_INSTANCES, "seed {seed}");
                let stores = live(&|t| matches!(t, Target::Store(_)));
                assert!(stores <= MAX_STORES_IMPAIRED, "seed {seed}");
                let muxes = live(&|t| matches!(t, Target::Mux(_)));
                assert!(MUXES - muxes >= MIN_LIVE_MUXES, "seed {seed}");
                assert!(live(&|t| t == Target::Wan) <= 1, "seed {seed}: WAN overlap");
                if let FaultKind::WanPartition { .. } = f.kind {
                    assert!(f.duration <= SURVIVABLE.max_wan_partition, "seed {seed}");
                }
            }
            // Client-visible faults never exceed the browser retry
            // budget over the whole plan.
            let visible = plan
                .faults
                .iter()
                .filter(|f| f.kind.client_visible())
                .count();
            assert!(
                visible <= MAX_CLIENT_VISIBLE,
                "seed {seed}: {visible} client-visible faults"
            );
        }
    }

    /// Survivable gray faults stay inside the intensity caps: slowdown
    /// factor, slowness budget (factor × seconds), link loss, and jitter.
    #[test]
    fn survivable_gray_faults_respect_intensity_caps() {
        let mut saw_gray = false;
        for seed in 0..256 {
            let plan = ChaosPlan::generate(seed, true);
            for f in &plan.faults {
                match f.kind {
                    FaultKind::NodeSlowdown { factor, .. } => {
                        saw_gray = true;
                        assert!(factor <= MAX_SLOWDOWN_FACTOR, "seed {seed}");
                        let factor_secs = u64::from(factor) * f.duration.as_micros() / 1_000_000;
                        assert!(
                            factor_secs <= MAX_SLOWDOWN_FACTOR_SECS,
                            "seed {seed}: slowness budget {factor_secs}"
                        );
                    }
                    FaultKind::LinkDegrade {
                        loss_pct,
                        jitter_ms,
                        ..
                    } => {
                        saw_gray = true;
                        assert!(loss_pct <= MAX_LINK_LOSS_PCT, "seed {seed}");
                        assert!(jitter_ms <= MAX_LINK_JITTER_MS, "seed {seed}");
                    }
                    FaultKind::AsymmetricPartition { .. } => saw_gray = true,
                    _ => {}
                }
            }
        }
        assert!(saw_gray, "no survivable seed in 0..256 drew a gray fault");
    }

    /// Unconstrained plans admit slowdowns past the survivable cap
    /// (the generator draws up to 20×; survivable trims to ≤10×).
    #[test]
    fn unconstrained_plans_draw_harsher_gray_faults() {
        let hit = (0..256).any(|seed| {
            ChaosPlan::generate(seed, false)
                .faults
                .iter()
                .any(|f| matches!(f.kind, FaultKind::NodeSlowdown { factor, .. } if factor > 10))
        });
        assert!(hit, "no unconstrained seed in 0..256 drew a >10x slowdown");
    }

    #[test]
    fn unconstrained_plans_eventually_kill_the_controller() {
        let hit = (0..32).any(|seed| {
            ChaosPlan::generate(seed, false)
                .faults
                .iter()
                .any(|f| f.kind == FaultKind::ControllerKill)
        });
        assert!(hit, "no unconstrained seed in 0..32 drew a controller kill");
    }

    #[test]
    fn render_names_the_seed() {
        let plan = ChaosPlan::generate(7, true);
        let text = plan.render();
        assert!(text.contains("seed: 7"));
        assert!(text.lines().count() == plan.faults.len() + 1);
    }
}
