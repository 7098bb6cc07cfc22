//! The catalogue of pinned runs. Every run a test pins, and every case of
//! the failure sweep, is a [`Case`] named by a short path:
//!
//! * `golden` — the engine fixture: eight ring nodes that exercise every
//!   event class the engine has (packets, colliding and cancelled timers,
//!   control closures, a crash and a generation-bumping restore);
//! * `full-testbed` — browsers, TCP, muxes, Yoda instances on a prequal
//!   policy, stores and controller, counted after a 50 ms set-up;
//! * `chaos/<matrix>/<seed>` — one seeded fault plan ([`Matrix`]);
//! * `sweep/<shape>/<fault>/<k>` — one flow shape with one fault applied
//!   after k events of its fault-free run ([`Shape`], [`Fault`]).
//!
//! [`Case::run`] builds the case's bed, runs it to its end and returns
//! its [`Outcome`], whose line (`case digest events ok`) is what
//! `results/pins.txt` holds for every case of [`pinned`].

use std::fmt;
use std::str::FromStr;

use yoda_core::{Testbed, TestbedConfig};
use yoda_http::BrowserConfig;
use yoda_netsim::{Engine, SimTime};

use crate::orchestrator::{prequal_on_service_0, run_plan};
use crate::plan::ChaosPlan;

mod golden;
mod sweep;

pub use sweep::{largest_object, small_bed, Fault, Reference, Shape};

/// One pinned or sweepable run, by name (the module docs list the names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Case {
    /// The engine fixture.
    Golden,
    /// The full testbed with a prequal policy.
    FullTestbed,
    /// One seed of a chaos matrix.
    Chaos(Matrix, u64),
    /// One fault at step k of a flow shape.
    Sweep(Shape, Fault, u64),
}

/// What a case's run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The case that ran.
    pub case: Case,
    /// The engine's event digest at the end.
    pub digest: u64,
    /// Events processed: all of them, but for `full-testbed`, which
    /// counts those after its set-up.
    pub events: u64,
    /// Simulated time at the end.
    pub end: SimTime,
    /// `Err` says what failed: a chaos run's broken invariants, or a
    /// sweep case's lost fetch or bytes.
    pub verdict: Result<(), String>,
    /// A chaos run's counters and plan; empty for the other cases.
    pub report: String,
    /// Whether a live instance recovered a flow from TCPStore (sweep
    /// cases; `false` for the others).
    pub recovered: bool,
}

impl Outcome {
    /// A passing outcome at the end of `engine`'s run.
    pub(crate) fn at_end(case: Case, engine: &Engine) -> Outcome {
        Outcome {
            case,
            digest: engine.event_digest(),
            events: engine.events_processed(),
            end: engine.now(),
            verdict: Ok(()),
            report: String::new(),
            recovered: false,
        }
    }
}

impl fmt::Display for Outcome {
    /// The pinned line: `case digest events ok`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (case, digest, events) = (self.case, self.digest, self.events);
        let ok = self.verdict.is_ok();
        write!(f, "{case} {digest:#018x} {events} {ok}")
    }
}

/// A chaos matrix: a regime and the seeds it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Matrix {
    /// Survivable plans from seed 0.
    Survivable,
    /// Unconstrained plans from seed 1000.
    Unconstrained,
    /// Survivable plans that draw a gray fault, from seed 2000.
    Gray,
    /// Survivable plans from seed 500 with the mux fast path on.
    Splicing,
}

impl Matrix {
    /// Every matrix, in the order `results/pins.txt` lists them.
    pub const ALL: [Matrix; 4] = [
        Matrix::Survivable,
        Matrix::Unconstrained,
        Matrix::Gray,
        Matrix::Splicing,
    ];

    /// The name a case path uses.
    pub fn name(self) -> &'static str {
        match self {
            Matrix::Survivable => "survivable",
            Matrix::Unconstrained => "unconstrained",
            Matrix::Gray => "gray",
            Matrix::Splicing => "splicing",
        }
    }

    /// The matrix's first `n` seeds. The ranges are disjoint, so no two
    /// matrices mistake one another's plans; the gray matrix skips the
    /// seeds in 2000..4000 whose plan draws no gray fault
    /// ([`crate::FaultKind::is_gray`]), so it may return fewer.
    pub fn seeds(self, n: usize) -> Vec<u64> {
        let draws_gray = |&s: &u64| {
            let faults = ChaosPlan::generate(s, true).faults;
            faults.iter().any(|f| f.kind.is_gray())
        };
        match self {
            Matrix::Survivable => (0..).take(n).collect(),
            Matrix::Unconstrained => (1000..).take(n).collect(),
            Matrix::Gray => (2000..4000).filter(draws_gray).take(n).collect(),
            Matrix::Splicing => (500..).take(n).collect(),
        }
    }
}

/// Every pinned case, in the order of `results/pins.txt`: the golden
/// fixture, the full testbed, then each matrix's pinned seeds.
pub fn pinned() -> Vec<Case> {
    // How many of its seeds the soak runs, matrix by matrix.
    let soak = Matrix::ALL.into_iter().zip([40, 10, 40, 5]);
    let chaos = soak.flat_map(|(m, n)| m.seeds(n).into_iter().map(move |s| Case::Chaos(m, s)));
    let fixtures = [Case::Golden, Case::FullTestbed].into_iter();
    fixtures.chain(chaos).collect()
}

impl Case {
    /// Builds the case's bed, runs it to its end and reports.
    pub fn run(self) -> Outcome {
        match self {
            Case::Golden => golden::run(),
            Case::FullTestbed => full_testbed(),
            Case::Chaos(matrix, seed) => {
                let survivable = matrix != Matrix::Unconstrained;
                let plan = ChaosPlan::generate(seed, survivable);
                run_plan(self, &plan, matrix == Matrix::Splicing)
            }
            Case::Sweep(shape, fault, k) => match shape.reference() {
                Ok(r) => r.case(fault, k),
                // No case ran: the outcome of an engine that ran nothing.
                Err(e) => Outcome {
                    verdict: Err(e),
                    ..Outcome::at_end(self, &Engine::new(0))
                },
            },
        }
    }
}

/// The full testbed: three instances, two stores, eight backends and two
/// muxes serving two browsers; service 0 switches to the prequal policy
/// at 100 ms, so the probe path runs too.
fn full_testbed() -> Outcome {
    let mut tb = Testbed::build(TestbedConfig {
        seed: 0xBEEF,
        num_instances: 3,
        num_spares: 0,
        num_stores: 2,
        num_backends: 8,
        num_muxes: 2,
        num_services: 2,
        pages_per_site: 8,
        ..TestbedConfig::default()
    });
    prequal_on_service_0(&mut tb);
    for service in 0..2 {
        let processes = BrowserConfig {
            processes: 2,
            ..BrowserConfig::default()
        };
        tb.add_browser(service, processes);
    }
    tb.engine.run_for(SimTime::from_millis(50));
    let setup_events = tb.engine.events_processed();
    tb.engine.run_for(SimTime::from_secs(4));
    Outcome {
        events: tb.engine.events_processed() - setup_events,
        ..Outcome::at_end(Case::FullTestbed, &tb.engine)
    }
}

impl fmt::Display for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Case::Golden => f.write_str("golden"),
            Case::FullTestbed => f.write_str("full-testbed"),
            Case::Chaos(m, seed) => write!(f, "chaos/{}/{seed}", m.name()),
            Case::Sweep(shape, fault, k) => {
                write!(f, "sweep/{}/{}/{k}", shape.name(), fault.name())
            }
        }
    }
}

impl FromStr for Case {
    type Err = String;

    fn from_str(name: &str) -> Result<Case, String> {
        parse(name).ok_or_else(|| {
            format!(
                "no case {name:?}: golden, full-testbed, chaos/<{}>/<seed> or \
                 sweep/<{}>/<{}>/<k>",
                Matrix::ALL.map(Matrix::name).join("|"),
                Shape::ALL.map(Shape::name).join("|"),
                Fault::ALL.map(Fault::name).join("|"),
            )
        })
    }
}

/// The value among `all` whose name is `part`.
fn named<T: Copy>(all: &[T], name: fn(T) -> &'static str, part: &str) -> Option<T> {
    all.iter().copied().find(|&v| name(v) == part)
}

fn parse(name: &str) -> Option<Case> {
    let parts: Vec<&str> = name.split('/').collect();
    Some(match parts.as_slice() {
        ["golden"] => Case::Golden,
        ["full-testbed"] => Case::FullTestbed,
        ["chaos", m, seed] => {
            Case::Chaos(named(&Matrix::ALL, Matrix::name, m)?, seed.parse().ok()?)
        }
        ["sweep", s, f, k] => Case::Sweep(
            named(&Shape::ALL, Shape::name, s)?,
            named(&Fault::ALL, Fault::name, f)?,
            k.parse().ok()?,
        ),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_parses_back_to_its_case() {
        let sweeps = Shape::ALL.map(|s| Fault::ALL.map(|f| Case::Sweep(s, f, 7)));
        for case in pinned().into_iter().chain(sweeps.into_iter().flatten()) {
            assert_eq!(case.to_string().parse::<Case>(), Ok(case));
        }
        for bad in [
            "",
            "gold",
            "chaos/gray",
            "chaos/blue/1",
            "sweep/ssl-fetch/replica/x",
        ] {
            assert!(bad.parse::<Case>().is_err(), "{bad:?} parsed");
        }
    }
}
