//! The instance's flow index (paper §4.3, Figure 5) against a `BTreeMap`
//! model.
//!
//! `FlowIndex` holds an instance's flows, keyed `(client, vip)`, and the
//! routes `(backend, vss)` that bring each flow's backend leg to it, where
//! `vss` is the VIP's address with the client's port. The world here is
//! built to collide: clients 1.0.0.1 and 1.0.0.2 share source port 5000,
//! so their legs to one backend share a route, and the two VIPs share an
//! address, so one client's legs to both share one too. Seeded random
//! sequences open flows (some with their backend mapped at once, as a
//! recovered flow is), map primary and mirror backends, unmap, shrink
//! flows to drained tombstones, retire them with or without orphaning
//! their routes, reopen retired keys and `find` every kind of pair. After
//! every op:
//!
//! * `find` answers as the model does, and every route, every slot, `len`
//!   and `keys_where` agree with the model;
//! * every route names a flow that mapped that backend on that pair and
//!   has not unmapped it since, or one that retired leaving its routes
//!   orphaned;
//! * a retire removes no route that names another flow;
//! * an orphan, once `find` reports it, is gone: its route is dropped and
//!   a second `find` of the pair does not report it again.
//!
//! A failing sequence is shrunk (one op dropped at a time while it still
//! fails) and reported with its length.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use yoda::core::{FlowIndex, FlowKey, Found, Leg, Pair};
use yoda::netsim::{Addr, Endpoint, Rng};

const CLIENTS: [Endpoint; 3] = [
    Endpoint::new(Addr::new(1, 0, 0, 1), 5000),
    Endpoint::new(Addr::new(1, 0, 0, 2), 5000),
    Endpoint::new(Addr::new(1, 0, 0, 1), 5001),
];
const VIPS: [Endpoint; 2] = [
    Endpoint::new(Addr::new(100, 0, 0, 1), 80),
    Endpoint::new(Addr::new(100, 0, 0, 1), 443),
];
const BACKENDS: [Endpoint; 2] = [
    Endpoint::new(Addr::new(10, 1, 0, 1), 80),
    Endpoint::new(Addr::new(10, 1, 0, 2), 80),
];
/// A sender no flow or route knows.
const STRANGER: Pair = (Endpoint::new(Addr::new(1, 0, 0, 3), 7), VIPS[0]);

/// Sequences in tier-1 (`--ignored` runs 50 times as many), and ops in each.
const SEQUENCES: u64 = 64;
const OPS: usize = 300;

/// A stand-in flow: which incarnation it is, and its backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fake {
    Live {
        serial: u32,
        backend: Option<Endpoint>,
    },
    Drained {
        serial: u32,
        backend: Endpoint,
    },
}

impl Leg for Fake {
    fn backend(&self) -> Option<Endpoint> {
        match *self {
            Fake::Live { backend, .. } => backend,
            Fake::Drained { backend, .. } => Some(backend),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// A new flow; with a backend, mapped to it at once (a recovered flow).
    Open(FlowKey, Option<Endpoint>),
    /// Map a backend: `true` for the flow's primary, `false` for a mirror.
    Map(FlowKey, Endpoint, bool),
    Unmap(FlowKey, Endpoint),
    /// A live flow with a backend shrinks to its tombstone.
    Drain(FlowKey),
    /// `true` orphans the routes (a death in the connection phase).
    Retire(FlowKey, bool),
    Find(Pair),
}

/// What `find` said, with a copy of the slot it handed out.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Answer {
    Client(FlowKey, Fake),
    Server(FlowKey, Fake),
    Orphan,
    Unknown,
}

/// `src > dst`.
fn show((src, dst): Pair) -> String {
    format!("{src} > {dst}")
}

impl fmt::Display for Fake {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Fake::Live { serial, backend } => write!(f, "live #{serial} on {backend:?}"),
            Fake::Drained { serial, backend } => write!(f, "tombstone #{serial} on {backend}"),
        }
    }
}

impl fmt::Display for Answer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Answer::Client(key, slot) => write!(f, "client of {} ({slot})", show(key)),
            Answer::Server(key, slot) => write!(f, "server of {} ({slot})", show(key)),
            Answer::Orphan => write!(f, "orphan"),
            Answer::Unknown => write!(f, "unknown"),
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Op::Open(key, None) => write!(f, "open {}", show(key)),
            Op::Open(key, Some(b)) => write!(f, "open {} mapped to {b}", show(key)),
            Op::Map(key, b, true) => write!(f, "map {} to {b}", show(key)),
            Op::Map(key, b, false) => write!(f, "map {} to mirror {b}", show(key)),
            Op::Unmap(key, b) => write!(f, "unmap {} from {b}", show(key)),
            Op::Drain(key) => write!(f, "drain {}", show(key)),
            Op::Retire(key, false) => write!(f, "retire {}", show(key)),
            Op::Retire(key, true) => write!(f, "retire {} orphaning its routes", show(key)),
            Op::Find(pair) => write!(f, "find {}", show(pair)),
        }
    }
}

fn answer(found: Found<'_, Fake>) -> Answer {
    match found {
        Found::Client(key, slot) => Answer::Client(key, *slot),
        Found::Server(key, slot) => Answer::Server(key, *slot),
        Found::Orphan => Answer::Orphan,
        Found::Unknown => Answer::Unknown,
    }
}

fn keys() -> Vec<FlowKey> {
    CLIENTS.iter().flat_map(|&c| VIPS.map(|v| (c, v))).collect()
}

/// The route of `key`'s leg to `backend`.
fn route((client, vip): FlowKey, backend: Endpoint) -> Pair {
    (backend, Endpoint::new(vip.addr, client.port))
}

/// Every pair a packet of this world can carry: each flow key, each
/// route, and one that is neither.
fn pairs() -> Vec<Pair> {
    let routes = keys()
        .into_iter()
        .flat_map(|k| BACKENDS.map(|b| route(k, b)));
    let all: BTreeSet<Pair> = keys().into_iter().chain(routes).collect();
    all.into_iter().chain([STRANGER]).collect()
}

/// The reference: the two tables as `BTreeMap`s, and which flow mapped
/// which backend.
#[derive(Default)]
struct Model {
    flows: BTreeMap<FlowKey, Fake>,
    routes: BTreeMap<Pair, FlowKey>,
    /// `(flow, backend)`: mapped, and not unmapped by that flow since.
    mapped: BTreeSet<(FlowKey, Endpoint)>,
    serial: u32,
}

impl Model {
    /// What `find` answers, without dropping an orphan.
    fn peek(&self, pair: Pair) -> Answer {
        match self.routes.get(&pair) {
            Some(key) => match self.flows.get(key) {
                Some(&slot) => Answer::Server(*key, slot),
                None => Answer::Orphan,
            },
            None => match self.flows.get(&pair) {
                Some(&slot) => Answer::Client(pair, slot),
                None => Answer::Unknown,
            },
        }
    }

    fn find(&mut self, pair: Pair) -> Answer {
        let answer = self.peek(pair);
        if answer == Answer::Orphan {
            self.routes.remove(&pair);
        }
        answer
    }

    fn map(&mut self, key: FlowKey, backend: Endpoint) {
        self.routes.insert(route(key, backend), key);
        self.mapped.insert((key, backend));
    }

    /// Only the flow a route names may drop it.
    fn unmap(&mut self, key: FlowKey, backend: Endpoint) {
        let pair = route(key, backend);
        if self.routes.get(&pair) == Some(&key) {
            self.routes.remove(&pair);
        }
        self.mapped.remove(&(key, backend));
    }

    /// A sensible next op: opens go to keys not held, the rest mostly to
    /// held ones.
    fn gen(&self, rng: &mut Rng) -> Op {
        let all = keys();
        let any = all[rng.gen_range(0..all.len())];
        let held: Vec<FlowKey> = self.flows.keys().copied().collect();
        let key = if held.is_empty() || rng.gen_bool(0.1) {
            any
        } else {
            held[rng.gen_range(0..held.len())]
        };
        let backend = BACKENDS[rng.gen_range(0..BACKENDS.len())];
        match rng.gen_range(0..20u32) {
            0..=3 if !self.flows.contains_key(&any) => {
                Op::Open(any, Some(backend).filter(|_| rng.gen_bool(0.3)))
            }
            4..=6 => Op::Map(key, backend, rng.gen_bool(0.7)),
            7..=8 => Op::Unmap(key, backend),
            9 => Op::Drain(key),
            10..=12 => Op::Retire(key, rng.gen_bool(0.5)),
            _ => {
                let pairs = pairs();
                Op::Find(pairs[rng.gen_range(0..pairs.len())])
            }
        }
    }
}

fn drain(slot: &mut Fake) {
    if let Fake::Live {
        serial,
        backend: Some(backend),
    } = *slot
    {
        *slot = Fake::Drained { serial, backend };
    }
}

/// Applies `op` to both and checks the index against the model.
fn step(index: &mut FlowIndex<Fake>, model: &mut Model, op: Op) -> Result<(), String> {
    let before: Vec<(Pair, Option<FlowKey>)> =
        pairs().into_iter().map(|p| (p, index.route(&p))).collect();
    match op {
        Op::Open(key, backend) => {
            model.serial += 1;
            let slot = Fake::Live {
                serial: model.serial,
                backend,
            };
            index.open(key, slot);
            model.flows.insert(key, slot);
            if let Some(b) = backend {
                index.map(key, b);
                model.map(key, b);
            }
        }
        Op::Map(key, b, primary) => {
            index.map(key, b);
            model.map(key, b);
            for slot in [index.get_mut(&key), model.flows.get_mut(&key)] {
                if let Some(Fake::Live { backend, .. }) = slot.filter(|_| primary) {
                    *backend = Some(b);
                }
            }
        }
        Op::Unmap(key, b) => {
            index.unmap(key, b);
            model.unmap(key, b);
        }
        Op::Drain(key) => {
            let slots = [index.get_mut(&key), model.flows.get_mut(&key)];
            slots.into_iter().flatten().for_each(drain);
        }
        Op::Retire(key, orphan) => {
            let (got, want) = (index.retire(key, orphan), model.flows.remove(&key));
            if got != want {
                return Err(format!("retire handed back {got:?}, model {want:?}"));
            }
            if let Some(b) = want.and_then(|s| s.backend()).filter(|_| !orphan) {
                model.unmap(key, b);
            }
            for (pair, named) in before {
                if let Some(other) = named.filter(|k| *k != key) {
                    if index.route(&pair) != Some(other) {
                        return Err(format!(
                            "the retire dropped {}, the route of {}",
                            show(pair),
                            show(other)
                        ));
                    }
                }
            }
        }
        Op::Find(pair) => {
            let (got, want) = (answer(index.find(pair)), model.find(pair));
            if got != want {
                return Err(format!("find: {got}, model: {want}"));
            }
            if got == Answer::Orphan {
                let (again, want) = (answer(index.find(pair)), model.find(pair));
                if index.route(&pair).is_some() || again == Answer::Orphan || again != want {
                    return Err(format!("the orphan is found again: {again}"));
                }
            }
        }
    }
    check(index, model)
}

/// The whole index against the model.
fn check(index: &FlowIndex<Fake>, model: &Model) -> Result<(), String> {
    let len = (index.len(), index.is_empty(), index.routes_len());
    let want = (
        model.flows.len(),
        model.flows.is_empty(),
        model.routes.len(),
    );
    if len != want {
        return Err(format!(
            "len, is_empty, routes_len = {len:?}; model {want:?}"
        ));
    }
    for key in keys() {
        let (got, want) = (index.get(&key).copied(), model.flows.get(&key).copied());
        if got != want {
            return Err(format!("slot {} is {got:?}, model {want:?}", show(key)));
        }
    }
    for pair in pairs() {
        let named = index.route(&pair);
        if named != model.routes.get(&pair).copied() {
            return Err(format!(
                "route {} names {named:?}, not as the model",
                show(pair)
            ));
        }
        let Some(key) = named else { continue };
        if route(key, pair.0) != pair || !model.mapped.contains(&(key, pair.0)) {
            return Err(format!(
                "route {} names {}, which does not map it",
                show(pair),
                show(key)
            ));
        }
    }
    for b in BACKENDS {
        let got = index.keys_where(|s| s.backend() == Some(b));
        let want = model.flows.iter().filter(|(_, s)| s.backend() == Some(b));
        if got != want.map(|(k, _)| *k).collect::<Vec<_>>() {
            return Err(format!(
                "keys_where(backend {b}) = {got:?}, not as the model"
            ));
        }
    }
    Ok(())
}

/// Runs `ops` from empty; the index of the first op that fails, and why.
fn replay(ops: &[Op]) -> Result<(), (usize, String)> {
    let (mut index, mut model) = (FlowIndex::default(), Model::default());
    for (i, &op) in ops.iter().enumerate() {
        step(&mut index, &mut model, op).map_err(|why| (i, why))?;
    }
    Ok(())
}

fn shrink(mut ops: Vec<Op>) -> Vec<Op> {
    let mut i = 0;
    while i < ops.len() {
        let mut shorter = ops.clone();
        shorter.remove(i);
        if replay(&shorter).is_err() {
            ops = shorter;
        } else {
            i += 1;
        }
    }
    ops
}

/// How often a run reached what the checks are about.
#[derive(Debug, Default)]
struct Reach {
    ops: usize,
    /// `find` reported an orphan.
    orphans: usize,
    /// `find` handed out a tombstone.
    tombstones: usize,
    /// A key was held again after its retire.
    reopened: usize,
    /// A retire whose backend's route another flow had taken over (two
    /// clients on one source port).
    shared: usize,
}

impl Reach {
    fn note(&mut self, model: &Model, retired: &mut BTreeSet<FlowKey>, op: Op) {
        self.ops += 1;
        match op {
            Op::Find(pair) => match model.peek(pair) {
                Answer::Orphan => self.orphans += 1,
                Answer::Client(_, Fake::Drained { .. })
                | Answer::Server(_, Fake::Drained { .. }) => self.tombstones += 1,
                _ => {}
            },
            Op::Open(key, _) => self.reopened += usize::from(retired.contains(&key)),
            Op::Retire(key, orphan) => {
                let Some(slot) = model.flows.get(&key) else {
                    return;
                };
                retired.insert(key);
                let taken = |b| model.routes.get(&route(key, b)).is_some_and(|k| *k != key);
                self.shared += usize::from(!orphan && slot.backend().is_some_and(taken));
            }
            _ => {}
        }
    }
}

/// Runs `sequences` seeded sequences of `OPS` ops each.
fn run(sequences: u64) -> Reach {
    let mut reach = Reach::default();
    for seed in 0..sequences {
        let mut rng = Rng::seed_from_u64(seed);
        let (mut index, mut model) = (FlowIndex::default(), Model::default());
        let (mut ops, mut retired) = (Vec::new(), BTreeSet::new());
        for _ in 0..OPS {
            let op = model.gen(&mut rng);
            reach.note(&model, &mut retired, op);
            ops.push(op);
            if step(&mut index, &mut model, op).is_err() {
                let ops = shrink(ops);
                let (at, why) = replay(&ops).err().unwrap_or((0, String::new()));
                let ops: Vec<String> = ops.iter().map(Op::to_string).collect();
                panic!(
                    "seed {seed}: fails after {} ops: {ops:#?}\nop {at}: {why}",
                    ops.len()
                );
            }
        }
    }
    println!("flow index model: {sequences} sequences, {reach:?}");
    reach
}

#[test]
fn the_flow_index_answers_as_the_model() {
    let reach = run(SEQUENCES);
    let Reach {
        orphans,
        tombstones,
        reopened,
        shared,
        ..
    } = reach;
    assert!(
        orphans > 0 && tombstones > 0 && reopened > 0 && shared > 0,
        "the ops missed a collision: {reach:?}"
    );
}

#[test]
#[ignore = "50 times the ops; scripts/check.sh runs it"]
fn the_flow_index_answers_as_the_model_longer() {
    run(SEQUENCES * 50);
}
