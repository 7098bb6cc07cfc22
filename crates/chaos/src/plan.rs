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

use yoda_core::Target;
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

/// One injectable fault. A node fault names its victim by its index in
/// the testbed's role lists ([`Target`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// Kill `node`; restart it with fresh state at the end (an instance
    /// with no flows, a store empty, a mux with a cold flow table).
    Crash(Target),
    /// Cut `node`'s ingress (`cut_in`: packets to it vanish) and/or
    /// egress (`cut_out`: packets from it do); heal at the end. The node
    /// stays alive, its timers firing and its data kept. A one-way cut is
    /// a gray failure: the half-open connectivity confuses naive health
    /// checks, as one side still sees traffic flowing.
    Partition {
        /// The component to partition.
        node: Target,
        /// Cut ingress.
        cut_in: bool,
        /// Cut egress.
        cut_out: bool,
    },
    /// Gray failure: slow `node`'s CPU service time by `factor`× for the
    /// window. The node stays alive and keeps answering pings — only its
    /// work gets slow. Stores and backends carry the CPU service-time
    /// models, so they are the valid targets (store brownout is the
    /// headline case).
    Slowdown {
        /// The component to brown out.
        node: Target,
        /// Service-time multiplier (`10` = answering 10× slower).
        factor: u32,
    },
    /// Gray failure: degrade every link touching `node` — `loss_pct`%
    /// per-packet loss plus up to `jitter_ms` of added seeded delay in
    /// each direction. The node itself is healthy; its network is not.
    LinkDegrade {
        /// The component whose links flap.
        node: Target,
        /// Per-packet loss percentage (0–100) on the node's links.
        loss_pct: u32,
        /// Upper bound on added per-packet delay (milliseconds).
        jitter_ms: u32,
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
}

/// What a fault impairs, for overlap accounting: a gray fault on a store
/// counts against `MAX_STORES_IMPAIRED` exactly like a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Impaired {
    Node(Target),
    Controller,
    Wan,
}

impl FaultKind {
    fn impaired(self) -> Impaired {
        match self {
            FaultKind::Crash(node)
            | FaultKind::Partition { node, .. }
            | FaultKind::Slowdown { node, .. }
            | FaultKind::LinkDegrade { node, .. } => Impaired::Node(node),
            FaultKind::ControllerKill => Impaired::Controller,
            FaultKind::WanLossBurst { .. }
            | FaultKind::WanLatencySpike { .. }
            | FaultKind::WanPartition { .. } => Impaired::Wan,
        }
    }

    /// Whether this is a gray failure: the node stays up but works
    /// badly — slowed, on lossy links, or cut in one direction only.
    pub fn is_gray(self) -> bool {
        match self {
            FaultKind::Slowdown { .. } | FaultKind::LinkDegrade { .. } => true,
            FaultKind::Partition {
                cut_in, cut_out, ..
            } => cut_in != cut_out,
            _ => false,
        }
    }

    /// Whether this fault can consume a browser retry even with a
    /// perfectly behaving L7 LB. WAN impairments and anything that slows
    /// or breaks the backend/data path for client bytes count; Yoda's own
    /// churn (instances, muxes, stores — crashed, partitioned, slowed, or
    /// lossy) is masked by flow re-steering, TCPStore recovery, store
    /// reads fanned out to every replica, and degraded-mode admission,
    /// and costs nothing.
    /// Exception: packet loss on an instance or mux link sits on the
    /// client byte path itself, which no LB logic can mask.
    fn client_visible(self) -> bool {
        match self {
            FaultKind::LinkDegrade { node, .. } => !matches!(node, Target::Store(_)),
            FaultKind::Crash(node) | FaultKind::Slowdown { node, .. } => {
                matches!(node, Target::Backend(_))
            }
            FaultKind::Partition { .. } | FaultKind::ControllerKill => false,
            FaultKind::WanLossBurst { .. }
            | FaultKind::WanLatencySpike { .. }
            | FaultKind::WanPartition { .. } => true,
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
/// Ceiling on a [`FaultKind::Slowdown`] factor.
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
}

/// Multi-line rendering for failure output: `run chaos/<matrix>/<seed>`
/// regenerates the identical schedule from the seed.
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
    push(10, 2); // slowdown (gray)
    push(11, 2); // link degrade (gray)
    push(12, 2); // one-way partition (gray)
    let class = classes
        .get(rng.gen_range(0..classes.len().max(1) as u64) as usize)
        .copied()
        .unwrap_or(7);

    let span = regime.window_end.saturating_sub(WINDOW_START).as_micros();
    let at = WINDOW_START + SimTime::from_micros(rng.gen_range(0..=span));
    let dur_span = regime.max_duration.saturating_sub(MIN_DURATION).as_micros();
    let mut duration = MIN_DURATION + SimTime::from_micros(rng.gen_range(0..=dur_span));

    let pick = |rng: &mut Rng, n: usize| rng.gen_range(0..n.max(1) as u64) as usize;
    let cut = |node| FaultKind::Partition {
        node,
        cut_in: true,
        cut_out: true,
    };
    let kind = match class {
        0 => FaultKind::Crash(Target::Instance(pick(rng, INSTANCES))),
        1 => cut(Target::Instance(pick(rng, INSTANCES))),
        2 => FaultKind::Crash(Target::Store(pick(rng, STORES))),
        3 => cut(Target::Store(pick(rng, STORES))),
        4 => FaultKind::Crash(Target::Mux(pick(rng, MUXES))),
        5 => FaultKind::Crash(Target::Backend(pick(rng, BACKENDS))),
        6 => {
            duration = SimTime::ZERO;
            FaultKind::ControllerKill
        }
        8 => FaultKind::WanLatencySpike {
            extra_ms: 20 + rng.gen_range(0..=80u64) as u32,
        },
        9 => {
            duration = duration.min(regime.max_wan_partition);
            let (to_dc, to_ext) = match rng.gen_range(0..3u64) {
                0 => (true, true),
                1 => (true, false),
                _ => (false, true),
            };
            FaultKind::WanPartition { to_dc, to_ext }
        }
        10 => {
            // Stores are the preferred brownout victims (the paper's
            // store tier is the availability-critical dependency);
            // backends take the remaining third.
            let node = if rng.gen_range(0..3u64) < 2 {
                Target::Store(pick(rng, STORES))
            } else {
                Target::Backend(pick(rng, BACKENDS))
            };
            // Drawn past the survivable cap on purpose: rejection
            // sampling trims survivable plans to ≤10×, unconstrained
            // plans keep the harsher draws.
            FaultKind::Slowdown {
                node,
                factor: 2 + rng.gen_range(0..=18u64) as u32,
            }
        }
        11 => {
            let node = match rng.gen_range(0..3u64) {
                0 => Target::Instance(pick(rng, INSTANCES)),
                1 => Target::Mux(pick(rng, MUXES)),
                _ => Target::Store(pick(rng, STORES)),
            };
            FaultKind::LinkDegrade {
                node,
                loss_pct: 5 + rng.gen_range(0..=45u64) as u32,
                jitter_ms: 1 + rng.gen_range(0..=29u64) as u32,
            }
        }
        12 => {
            let node = if rng.gen_range(0..2u64) == 0 {
                Target::Instance(pick(rng, INSTANCES))
            } else {
                Target::Store(pick(rng, STORES))
            };
            let cut_in = rng.gen_range(0..2u64) == 0;
            FaultKind::Partition {
                node,
                cut_in,
                cut_out: !cut_in,
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
        .any(|e| e.kind.impaired() == f.kind.impaired())
    {
        return false;
    }
    if !regime.survivable {
        return true;
    }
    // Gray-fault intensity caps: a browned-out store must not accumulate
    // more backlog than the run can drain, and degraded links must stay
    // inside what TCP retransmission + fanned-out store ops absorb.
    match f.kind {
        FaultKind::Slowdown { factor, .. } => {
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
    let count = |t: &dyn Fn(Target) -> bool| {
        overlapping
            .iter()
            .map(|e| e.kind.impaired())
            .chain([f.kind.impaired()])
            .filter(|&i| matches!(i, Impaired::Node(node) if t(node)))
            .count()
    };
    let instances_down = count(&|t| matches!(t, Target::Instance(_)));
    if INSTANCES < MIN_LIVE_INSTANCES + instances_down {
        return false;
    }
    let stores_down = count(&|t| matches!(t, Target::Store(_)));
    if stores_down > MAX_STORES_IMPAIRED {
        return false;
    }
    let muxes_down = count(&|t| matches!(t, Target::Mux(_)));
    if MUXES < MIN_LIVE_MUXES + muxes_down {
        return false;
    }
    (0..SERVICES).all(|s| {
        let down = count(&|t| matches!(t, Target::Backend(b) if b % SERVICES == s));
        let backends = (0..BACKENDS).filter(|b| b % SERVICES == s).count();
        backends >= MIN_LIVE_BACKENDS_PER_SERVICE + down
    })
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
                let live = |pred: &dyn Fn(Impaired) -> bool| {
                    plan.faults
                        .iter()
                        .filter(|e| e.at <= t && t <= e.end() && pred(e.kind.impaired()))
                        .count()
                };
                let inst = live(&|i| matches!(i, Impaired::Node(Target::Instance(_))));
                assert!(INSTANCES - inst >= MIN_LIVE_INSTANCES, "seed {seed}");
                let stores = live(&|i| matches!(i, Impaired::Node(Target::Store(_))));
                assert!(stores <= MAX_STORES_IMPAIRED, "seed {seed}");
                let muxes = live(&|i| matches!(i, Impaired::Node(Target::Mux(_))));
                assert!(MUXES - muxes >= MIN_LIVE_MUXES, "seed {seed}");
                assert!(
                    live(&|i| i == Impaired::Wan) <= 1,
                    "seed {seed}: WAN overlap"
                );
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
                saw_gray |= f.kind.is_gray();
                match f.kind {
                    FaultKind::Slowdown { factor, .. } => {
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
                        assert!(loss_pct <= MAX_LINK_LOSS_PCT, "seed {seed}");
                        assert!(jitter_ms <= MAX_LINK_JITTER_MS, "seed {seed}");
                    }
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
                .any(|f| matches!(f.kind, FaultKind::Slowdown { factor, .. } if factor > 10))
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
        let text = plan.to_string();
        assert!(text.contains("seed: 7"));
        assert!(text.lines().count() == plan.faults.len() + 1);
    }
}
