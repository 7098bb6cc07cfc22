//! The controller's reactions (paper §6, Figure 8) against a model, over
//! every sequence of monitor verdicts up to a bound.
//!
//! The bed: 2 serving instances and 1 spare, backends on ports 80 and
//! 8080, 1 store and 2 muxes, two VIPs assigned to both serving
//! instances. A breadth-first search drives a [`Fleet`] with every
//! enabled fail, recover, derate and readmit verdict (only instances are
//! derated) and every operator removal of a backend, dedups states on
//! a hash of the fleet and the model (no version counters), and folds
//! each message into the model: each mux's VIP map, applied by version,
//! and each instance's set of backends it holds dead. The search runs
//! twice, once under each reading of a death verdict: the member
//! restarted empty, or it kept its state (a partition that healed).
//! After every verdict:
//!
//! * each instance not believed failed holds exactly the true down set;
//! * each live mux maps each VIP to exactly its assigned instances in
//!   rotation, and the versions each mux is sent per VIP strictly
//!   increase;
//! * no verdict activates a spare (only the autoscaler does);
//! * a store verdict sends nothing;
//! * nothing but `SetMuxes` goes to a member believed failed (the mux
//!   announcement reaches every instance, failed ones included).
//!
//! A failing sequence is shrunk (one verdict dropped at a time while it
//! still fails) and reported.

use std::collections::{BTreeMap, BTreeSet};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::thread;

use yoda::core::InstanceCtrl;
use yoda::core::{Controller, ControllerConfig, Event, Fleet, Health, Msg, Out};
use yoda::l4lb::CtrlMsg;
use yoda::netsim::{Addr, Endpoint};

/// Verdicts per sequence in tier-1; `--ignored` runs `K + 2`.
const K: usize = 10;

const INSTANCES: [Addr; 2] = [Addr::new(10, 0, 0, 1), Addr::new(10, 0, 0, 2)];
const SPARE: Addr = Addr::new(10, 0, 0, 3);
const BACKENDS: [Endpoint; 2] = [
    Endpoint::new(Addr::new(10, 1, 0, 1), 80),
    Endpoint::new(Addr::new(10, 1, 0, 2), 8080),
];
const STORE: Addr = Addr::new(10, 0, 1, 1);
const MUXES: [Addr; 2] = [Addr::new(10, 0, 2, 1), Addr::new(10, 0, 2, 2)];
const ROUTER: Addr = Addr::new(10, 0, 3, 1);
const VIPS: [Endpoint; 2] = [
    Endpoint::new(Addr::new(100, 0, 0, 1), 80),
    Endpoint::new(Addr::new(100, 0, 0, 2), 443),
];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Instance,
    Spare,
    Backend,
    Store,
    Mux,
}

/// Members in registration order.
const MEMBERS: [(Kind, Addr); 8] = [
    (Kind::Instance, INSTANCES[0]),
    (Kind::Instance, INSTANCES[1]),
    (Kind::Spare, SPARE),
    (Kind::Backend, BACKENDS[0].addr),
    (Kind::Backend, BACKENDS[1].addr),
    (Kind::Store, STORE),
    (Kind::Mux, MUXES[0]),
    (Kind::Mux, MUXES[1]),
];

/// The fleet and, beside it, what its messages did and what is true.
#[derive(Clone)]
struct World {
    /// A member declared failed keeps its maps and its dead set, rather
    /// than restarting with nothing.
    keeps_state: bool,
    fleet: Fleet,
    /// The truth the verdicts so far imply, per member.
    health: [Health; 8],
    /// Per (mux, VIP): the applied map and its version.
    maps: BTreeMap<(Addr, Addr), (u64, Vec<Addr>)>,
    /// Per (mux, VIP): the last version sent, across restarts.
    sent: BTreeMap<(Addr, Addr), u64>,
    /// Per instance: the backends it holds dead.
    down: BTreeMap<Addr, BTreeSet<Endpoint>>,
}

impl World {
    fn new(keeps_state: bool) -> World {
        // Registered through a controller, as a testbed does.
        let mut c = Controller::new(ControllerConfig::default(), Addr::new(10, 0, 4, 1));
        c.set_l4(ROUTER, MUXES.to_vec());
        INSTANCES.iter().for_each(|&a| c.register_instance(a));
        c.register_spare(SPARE);
        BACKENDS.iter().for_each(|&b| c.register_backend(b));
        c.register_store(STORE);
        c.monitor_muxes();
        let mut w = World {
            keeps_state,
            fleet: c.fleet().clone(),
            health: [Health::Up; 8],
            maps: BTreeMap::new(),
            sent: BTreeMap::new(),
            down: BTreeMap::new(),
        };
        for vip in VIPS {
            let rules = "default pool=a".to_string();
            let ev = Event::AddVip(vip, rules, INSTANCES.to_vec(), None);
            let outs = w.fleet.handle(ev);
            w.fold(&outs).expect("setup");
        }
        w.check().expect("setup");
        w
    }

    /// The verdicts the monitor can give from here — a live member can
    /// fail, an instance that is up be derated, a failed member recover,
    /// a derated instance be re-admitted — and the operator's removal of
    /// a backend not yet removed.
    fn enabled(&self) -> Vec<Event> {
        let mut evs = Vec::new();
        for (i, h) in self.health.iter().enumerate() {
            let instance = matches!(MEMBERS[i].0, Kind::Instance | Kind::Spare);
            let backend = BACKENDS.iter().find(|b| b.addr == MEMBERS[i].1);
            if let Some(&b) = backend.filter(|_| *h != Health::Removed) {
                evs.push(Event::RemoveBackend(b));
            }
            match h {
                Health::Up if instance => evs.extend([Event::Failed(i), Event::Derated(i)]),
                Health::Up => evs.push(Event::Failed(i)),
                Health::Derated => evs.extend([Event::Failed(i), Event::Readmitted(i)]),
                Health::Failed => evs.push(Event::Recovered(i)),
                Health::Removed => {}
            }
        }
        evs
    }

    fn is_enabled(&self, ev: &Event) -> bool {
        self.enabled().contains(ev)
    }

    /// Applies one verdict or removal to the fleet and the model, then
    /// checks.
    fn step(&mut self, ev: &Event) -> Result<(), String> {
        let member = |b: Endpoint| MEMBERS.iter().position(|m| m.1 == b.addr);
        let (i, health) = match *ev {
            Event::Failed(i) => (i, Health::Failed),
            Event::Derated(i) => (i, Health::Derated),
            Event::Recovered(i) | Event::Readmitted(i) => (i, Health::Up),
            Event::RemoveBackend(b) => (member(b).expect("a backend"), Health::Removed),
            _ => return Err(format!("{ev:?} is no verdict")),
        };
        self.health[i] = health;
        let (kind, addr) = MEMBERS[i];
        if health == Health::Failed && !self.keeps_state {
            self.maps.retain(|&(mux, _), _| mux != addr);
            self.down.remove(&addr);
        }
        let outs = self.fleet.handle(ev.clone());
        let sends = outs.iter().any(|o| matches!(o, Out::Send(..)));
        if kind == Kind::Store && sends {
            return Err("a store verdict sent something".into());
        }
        self.fold(&outs)?;
        self.check()
    }

    fn believed_failed(&self, addr: Addr) -> bool {
        let failed = |(&(_, a), h): (&(Kind, Addr), &Health)| a == addr && !h.alive();
        MEMBERS.iter().zip(&self.health).any(failed)
    }

    fn fold(&mut self, outs: &[Out]) -> Result<(), String> {
        for out in outs {
            let Out::Send(_, to, msg) = out else {
                continue;
            };
            let to = *to;
            let announce = matches!(
                msg,
                Msg::L4(CtrlMsg::SetMuxes { .. }) | Msg::Instance(InstanceCtrl::SetMuxes { .. })
            );
            if self.believed_failed(to) && !announce {
                return Err(format!("{msg:?} to {to}, believed failed"));
            }
            match msg {
                Msg::L4(CtrlMsg::SetVipMap {
                    vip,
                    instances,
                    version,
                }) => {
                    if instances.contains(&SPARE) {
                        return Err("a verdict mapped the spare".into());
                    }
                    let last = self.sent.insert((to, *vip), *version);
                    if last.is_some_and(|v| v >= *version) {
                        return Err(format!("{to} sent {vip} version {version} after {last:?}"));
                    }
                    let map = self.maps.entry((to, *vip)).or_default();
                    if map.0 < *version {
                        *map = (*version, instances.clone());
                    }
                }
                Msg::Instance(InstanceCtrl::InstallVip { .. }) if to == SPARE => {
                    return Err("a verdict installed rules on the spare".into());
                }
                Msg::Instance(InstanceCtrl::BackendDown { backend }) => {
                    self.down.entry(to).or_default().insert(*backend);
                }
                Msg::Instance(InstanceCtrl::BackendUp { backend }) => {
                    self.down.entry(to).or_default().remove(backend);
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn check(&self) -> Result<(), String> {
        let truth = |kind: Kind| {
            let pick = move |(&(k, a), h): (&(Kind, Addr), Health)| (k == kind).then_some((a, h));
            MEMBERS.iter().zip(self.health).filter_map(pick)
        };
        let dead: BTreeSet<Endpoint> = BACKENDS
            .iter()
            .zip(truth(Kind::Backend))
            .filter(|(_, (_, h))| !h.alive())
            .map(|(&b, _)| b)
            .collect();
        let rotation: Vec<Addr> = truth(Kind::Instance)
            .filter(|&(_, h)| h == Health::Up)
            .map(|(a, _)| a)
            .collect();
        let empty = BTreeSet::new();
        for (inst, h) in truth(Kind::Instance).chain(truth(Kind::Spare)) {
            let holds = self.down.get(&inst).unwrap_or(&empty);
            if h.alive() && *holds != dead {
                let (holds, dead) = (names(holds), names(&dead));
                return Err(format!("{inst} holds {holds:?} dead, truth {dead:?}"));
            }
        }
        for (mux, _) in truth(Kind::Mux).filter(|(_, h)| h.alive()) {
            for vip in VIPS {
                let map = self.maps.get(&(mux, vip.addr)).map(|(_, m)| m);
                if map != Some(&rotation) {
                    return Err(format!("{mux} maps {vip} to {map:?}, truth {rotation:?}"));
                }
            }
        }
        Ok(())
    }

    /// A hash of the fleet and the model, version counters left out (and
    /// the `BackendUp`s the fleet keeps for an instance believed failed:
    /// two states of one key differ in them only by backends the
    /// instance does not hold dead).
    fn key(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.fleet
            .members()
            .for_each(|(_, health, _)| health.hash(&mut h));
        self.fleet.active_instances().hash(&mut h);
        self.health.hash(&mut h);
        self.maps.iter().for_each(|(k, (_, m))| (k, m).hash(&mut h));
        let held = self.down.iter().filter(|(_, dead)| !dead.is_empty());
        held.for_each(|d| d.hash(&mut h));
        h.finish()
    }
}

fn names(eps: &BTreeSet<Endpoint>) -> Vec<String> {
    eps.iter().map(|ep| ep.to_string()).collect()
}

/// Replays `seq` from the bed, skipping verdicts not enabled where they
/// fall; the first violation, if any.
fn replay(keeps_state: bool, seq: &[Event]) -> Result<(), String> {
    let mut w = World::new(keeps_state);
    for ev in seq {
        if w.is_enabled(ev) {
            w.step(ev)?;
        }
    }
    Ok(())
}

/// Drops one verdict at a time while the sequence still `fails`.
fn shrink(mut seq: Vec<Event>, fails: impl Fn(&[Event]) -> bool) -> Vec<Event> {
    let mut i = 0;
    while i < seq.len() {
        let mut shorter = seq.clone();
        shorter.remove(i);
        if fails(&shorter) {
            seq = shorter;
        } else {
            i += 1;
        }
    }
    seq
}

/// A state of the search and the sequence that reached it.
type Reached = (World, Vec<Event>);
/// A failing sequence and why it fails.
type Failure = (Vec<Event>, String);

/// The states one event past `chunk`, in order, each new to `seen` and to
/// the chunk's earlier ones; or the first sequence that fails, and why.
fn expand(chunk: &[Reached], seen: &BTreeSet<u64>) -> Result<Vec<(u64, Reached)>, Failure> {
    let (mut mine, mut out) = (BTreeSet::new(), Vec::new());
    for (w, path) in chunk {
        for ev in w.enabled() {
            let (mut w, mut path) = (w.clone(), path.clone());
            path.push(ev.clone());
            if let Err(why) = w.step(&ev) {
                return Err((path, why));
            }
            let key = w.key();
            if !seen.contains(&key) && mine.insert(key) {
                out.push((key, (w, path)));
            }
        }
    }
    Ok(out)
}

/// Every verdict sequence up to `k` long, breadth first, each level
/// expanded in contiguous chunks on up to `available_parallelism()`
/// scoped threads and merged in order (so the states, and the first
/// failure, are the sequential search's). Returns the count of distinct
/// states, or the shrunk failing sequence and why.
fn explore(k: usize, keeps_state: bool) -> Result<usize, Failure> {
    let start = World::new(keeps_state);
    let mut seen = BTreeSet::from([start.key()]);
    let mut frontier = vec![(start, Vec::new())];
    let workers = thread::available_parallelism().map_or(1, |n| n.get());
    for _ in 0..k {
        let size = frontier.len().div_ceil(workers).max(1);
        let chunks: Vec<_> = thread::scope(|s| {
            let seen = &seen;
            let spawn = |chunk| s.spawn(move || expand(chunk, seen));
            let handles: Vec<_> = frontier.chunks(size).map(spawn).collect();
            let join = |h: thread::ScopedJoinHandle<'_, _>| h.join();
            handles.into_iter().map(join).collect()
        });
        let mut next = Vec::new();
        for chunk in chunks {
            match chunk.unwrap_or_else(|e| std::panic::resume_unwind(e)) {
                Ok(reached) => {
                    let new = reached.into_iter().filter(|(key, _)| seen.insert(*key));
                    next.extend(new.map(|(_, r)| r));
                }
                Err((path, why)) => {
                    let seq = shrink(path, |s| replay(keeps_state, s).is_err());
                    let why = replay(keeps_state, &seq).err().unwrap_or(why);
                    return Err((seq, why));
                }
            }
        }
        frontier = next;
    }
    Ok(seen.len())
}

fn run(k: usize, keeps_state: bool) {
    let failed = if keeps_state {
        "keeps its state"
    } else {
        "restarts empty"
    };
    match explore(k, keeps_state) {
        Ok(states) => {
            println!(
                "controller model: a failed member {failed}, k = {k}, {states} distinct states"
            );
        }
        Err((seq, why)) => {
            let named: Vec<String> = seq
                .iter()
                .map(|ev| {
                    if let Event::RemoveBackend(b) = ev {
                        return format!("RemoveBackend({b})");
                    }
                    let (Event::Failed(i)
                    | Event::Recovered(i)
                    | Event::Derated(i)
                    | Event::Readmitted(i)) = *ev
                    else {
                        return format!("{ev:?}");
                    };
                    let (kind, addr) = MEMBERS[i];
                    format!("{ev:?} = {kind:?} {addr}")
                })
                .collect();
            panic!("a failed member {failed}: violated after {named:#?}: {why}");
        }
    }
}

#[test]
fn every_verdict_sequence_keeps_the_fleet_consistent() {
    run(K, false);
}

#[test]
fn every_verdict_sequence_keeps_the_fleet_consistent_when_a_failed_member_keeps_its_state() {
    run(K, true);
}

#[test]
#[ignore = "deeper sweep; scripts/check.sh runs it"]
fn every_verdict_sequence_keeps_the_fleet_consistent_deeper() {
    run(K + 2, false);
    run(K + 2, true);
}

#[test]
fn the_shrinker_keeps_only_what_the_failure_needs() {
    let needs = [Event::Failed(3), Event::Recovered(0)];
    let fails = |s: &[Event]| needs.iter().all(|n| s.contains(n));
    let padded = vec![
        Event::Derated(1),
        Event::Failed(3),
        Event::Failed(5),
        Event::Recovered(5),
        Event::Recovered(0),
        Event::Failed(6),
    ];
    assert_eq!(shrink(padded, fails), needs);
}
