//! Figure 17 (beyond the paper): adaptive backend selection tail latency.
//!
//! The paper's policies are static (weighted split / least-loaded over
//! the instance's own connection counts). `yoda-core` adds a
//! Prequal-style probing policy (`action=prequal`): instances probe a
//! power-of-d sample of backends for requests-in-flight and service
//! latency, keep a small reuse-bounded pool of fresh probes, and pick
//! hot-cold lexicographically (avoid the RIF-hot tail, then lowest
//! latency). This experiment compares roundrobin / leastload / prequal
//! under three scenarios:
//!
//! * **uniform** — all 6 backends nominal (prequal must not tax the
//!   balanced case: P50 within 10% of roundrobin),
//! * **one-slow** — backend 0 serves 5× slower for the whole run
//!   (prequal target: ≥2× better P99 than roundrobin),
//! * **degrade-recover** — backend 0 degrades 5× at t=6 s and recovers
//!   at t=14 s (the policy must both shed and re-admit it).
//!
//! Load is a square wave (base 2 400 req/s, bursts of 4 200 req/s, 4 s
//! period, 30% duty) against backends whose nominal capacity is
//! ~2 380 req/s each, so the slow backend is overloaded whenever it
//! receives an equal share. `rif imbalance` is max/mean requests in
//! flight across backends, sampled every 100 ms.

use std::collections::BTreeMap;

use yoda_bench::TimeSeries;
use yoda_bench::{f2, print_header, print_kv, Table};
use yoda_core::YodaConfig;
use yoda_core::{Testbed, TestbedConfig};
use yoda_http::{OriginServer, RateClient, RateClientConfig};
use yoda_netsim::Histogram;
use yoda_netsim::{NodeId, SimTime};

const NUM_BACKENDS: usize = 6;
const CLIENTS: usize = 4;
/// How long the clients send in each run.
const RUN: SimTime = SimTime::from_secs(20);
/// Service-time multiplier of the slow backend.
const SLOW_FACTOR: f64 = 5.0;
/// The offered load: a 4 s square wave, 30 % of it at the burst rate.
const LOAD: BurstyLoad = BurstyLoad {
    base_rps: 2_400.0,
    burst_rps: 4_200.0,
    period: SimTime::from_secs(4),
    duty: 0.3,
};

/// When backend 0 serves `SLOW_FACTOR`× slower: `[from, until)`, or
/// never. Every other backend, and backend 0 outside the window, serves
/// at the nominal factor 1.0.
type SlowWindow = Option<(SimTime, SimTime)>;

/// A square-wave open-loop request rate: `base_rps` normally,
/// `burst_rps` during the first `duty` fraction of every `period`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BurstyLoad {
    /// Baseline request rate.
    base_rps: f64,
    /// Burst request rate.
    burst_rps: f64,
    /// Square-wave period.
    period: SimTime,
    /// Fraction of the period spent at the burst level, in `[0, 1]`.
    duty: f64,
}

impl BurstyLoad {
    /// The request rate at `now`.
    fn rate_at(&self, now: SimTime) -> f64 {
        let period = self.period.as_micros().max(1);
        let phase = (now.as_micros() % period) as f64 / period as f64;
        if phase < self.duty.clamp(0.0, 1.0) {
            self.burst_rps
        } else {
            self.base_rps
        }
    }
}

struct RunOutcome {
    p50: f64,
    p90: f64,
    p99: f64,
    completed: u64,
    timeouts: u64,
    resets: u64,
    /// Mean of (max RIF / mean RIF) over samples with any load.
    rif_imbalance: f64,
}

fn policy_rules(name: &str, tb: &Testbed) -> String {
    let backends: Vec<String> = tb.service_backends[0]
        .iter()
        .map(|b| b.to_string())
        .collect();
    match name {
        "roundrobin" => tb.equal_split_rules(0),
        "leastload" => format!(
            "name=ll priority=1 match * action=leastload {}",
            backends.join(" ")
        ),
        "prequal" => format!(
            "name=pq priority=1 match * action=prequal {}",
            backends.join(" ")
        ),
        other => panic!("unknown policy {other}"),
    }
}

fn run_one(policy: &str, slow: SlowWindow) -> RunOutcome {
    let mut tb = Testbed::build(TestbedConfig {
        seed: 17,
        num_instances: 4,
        num_stores: 3,
        num_backends: NUM_BACKENDS,
        num_muxes: 3,
        num_services: 1,
        pages_per_site: 20,
        yoda: YodaConfig {
            // Probe fast enough that the reuse-bounded pool keeps up
            // with ~1 050 picks/s per instance at burst peaks
            // (500 ticks/s × d=3 × max_uses=2 = 3 000 uses/s).
            probe_period: SimTime::from_millis(2),
            ..YodaConfig::default()
        },
        ..TestbedConfig::default()
    });
    let vip = tb.vips[0];
    let rules = policy_rules(policy, &tb);
    // After (not racing) the builder's t=0 equal-split install: two
    // same-instant installs would reach each instance in
    // jitter-dependent order.
    tb.set_policy_at(vip, &rules, SimTime::from_millis(200));

    // ~10 KB object so per-request backend cost is the calibrated
    // 800 µs + 40 µs (≈2 380 req/s nominal capacity per 2-core backend).
    let obj = tb
        .catalog
        .site(0)
        .objects
        .iter()
        .min_by_key(|o| (o.size as i64 - 10 * 1024).abs())
        .map(|o| o.path.clone())
        .expect("objects");

    // Open-loop clients start at t=1 s (control plane warm), stop at
    // 1 s + RUN; the square wave is applied through `set_rate` at each
    // load edge.
    let start = SimTime::from_secs(1);
    let clients: Vec<NodeId> = (0..CLIENTS)
        .map(|_| {
            tb.add_rate_client(
                0,
                RateClientConfig {
                    rate_per_sec: LOAD.rate_at(SimTime::ZERO) / CLIENTS as f64,
                    object_path: Some(obj.clone()),
                    duration: Some(start + RUN),
                    ..RateClientConfig::default()
                },
            )
        })
        .collect();
    // The rate changes at the start of each period and at its duty edge.
    let period = LOAD.period.as_micros();
    let duty_end = (period as f64 * LOAD.duty) as u64;
    for period_start in (0..RUN.as_micros()).step_by(period as usize) {
        for edge in [period_start, period_start + duty_end].map(SimTime::from_micros) {
            let rate = LOAD.rate_at(edge) / CLIENTS as f64;
            let ids = clients.clone();
            tb.engine.schedule(start + edge, move |eng| {
                for &id in &ids {
                    eng.node_mut::<RateClient>(id).set_rate(rate);
                }
            });
        }
    }

    // Scripted backend capacity: apply the speed factors at t=0 and at
    // both ends of the slow window.
    let backend_ids = tb.backends.clone();
    let mut edges = vec![SimTime::ZERO];
    edges.extend(slow.iter().flat_map(|&(from, until)| [from, until]));
    edges.dedup();
    for edge in edges {
        let ids = backend_ids.clone();
        tb.engine.schedule(edge, move |eng| {
            let now = eng.now();
            let slowed = slow.is_some_and(|(from, until)| from <= now && now < until);
            for (i, &id) in ids.iter().enumerate() {
                let factor = if i == 0 && slowed { SLOW_FACTOR } else { 1.0 };
                eng.node_mut::<OriginServer>(id).set_speed_factor(factor);
            }
        });
    }

    // Sample requests-in-flight per backend every 100 ms.
    let series = TimeSeries::new();
    let ids = backend_ids.clone();
    series.install(
        &mut tb.engine,
        start,
        SimTime::from_millis(100),
        start + RUN,
        move |eng| {
            let rifs: Vec<f64> = ids
                .iter()
                .map(|&id| eng.node_ref::<OriginServer>(id).in_flight() as f64)
                .collect();
            let max = rifs.iter().cloned().fold(0.0f64, f64::max);
            let mean = rifs.iter().sum::<f64>() / rifs.len() as f64;
            vec![max, mean]
        },
    );

    tb.engine.run_for(start + RUN + SimTime::from_secs(4));

    let mut latencies = Histogram::new();
    let mut completed = 0;
    let mut timeouts = 0;
    let mut resets = 0;
    for &id in &clients {
        let c = tb.engine.node_ref::<RateClient>(id);
        latencies.merge(&c.latencies);
        completed += c.completed;
        timeouts += c.timeouts;
        resets += c.resets;
    }
    let mut ratios = Vec::new();
    for (_, vals) in series.rows() {
        if vals[1] > 0.0 {
            ratios.push(vals[0] / vals[1]);
        }
    }
    let rif_imbalance = if ratios.is_empty() {
        0.0
    } else {
        ratios.iter().sum::<f64>() / ratios.len() as f64
    };
    RunOutcome {
        p50: latencies.percentile(50.0).unwrap_or(0.0),
        p90: latencies.percentile(90.0).unwrap_or(0.0),
        p99: latencies.percentile(99.0).unwrap_or(0.0),
        completed,
        timeouts,
        resets,
        rif_imbalance,
    }
}

fn main() {
    print_header(
        "Figure 17 (beyond the paper)",
        "Adaptive backend selection: tail latency under heterogeneous backends",
    );
    print_kv(
        "load",
        format!(
            "{}..{} req/s square wave (4 s period, 30% duty), {NUM_BACKENDS} backends",
            LOAD.base_rps, LOAD.burst_rps
        ),
    );

    let scenarios: [(&str, SlowWindow); 3] = [
        ("uniform", None),
        // An hour: slow past the end of the run.
        ("one-slow", Some((SimTime::ZERO, SimTime::from_secs(3_600)))),
        (
            "degrade-recover",
            Some((SimTime::from_secs(6), SimTime::from_secs(14))),
        ),
    ];
    let policies = ["roundrobin", "leastload", "prequal"];

    let mut outcomes: BTreeMap<(String, String), RunOutcome> = BTreeMap::new();
    for (sname, slow) in scenarios {
        println!();
        println!("scenario: {sname}");
        let mut table = Table::new(&[
            "policy",
            "p50 (ms)",
            "p90 (ms)",
            "p99 (ms)",
            "completed",
            "timeouts",
            "resets",
            "rif imbalance",
        ]);
        for policy in policies {
            let out = run_one(policy, slow);
            table.row(&[
                policy.to_string(),
                f2(out.p50),
                f2(out.p90),
                f2(out.p99),
                out.completed.to_string(),
                out.timeouts.to_string(),
                out.resets.to_string(),
                f2(out.rif_imbalance),
            ]);
            outcomes.insert((sname.to_string(), policy.to_string()), out);
        }
        table.print();
    }

    // Headline comparisons for EXPERIMENTS.md.
    println!();
    let rr_uni = &outcomes[&("uniform".to_string(), "roundrobin".to_string())];
    let pq_uni = &outcomes[&("uniform".to_string(), "prequal".to_string())];
    let rr_slow = &outcomes[&("one-slow".to_string(), "roundrobin".to_string())];
    let pq_slow = &outcomes[&("one-slow".to_string(), "prequal".to_string())];
    print_kv(
        "uniform p50 prequal/roundrobin",
        f2(pq_uni.p50 / rr_uni.p50.max(f64::MIN_POSITIVE)),
    );
    print_kv(
        "one-slow p99 roundrobin/prequal",
        f2(rr_slow.p99 / pq_slow.p99.max(f64::MIN_POSITIVE)),
    );
    print_kv(
        "targets",
        "uniform p50 ratio within 1.10; one-slow p99 speedup >= 2.0",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursty_square_wave() {
        let l = BurstyLoad {
            base_rps: 100.0,
            burst_rps: 400.0,
            period: SimTime::from_secs(4),
            duty: 0.25,
        };
        assert_eq!(l.rate_at(SimTime::ZERO), 400.0);
        assert_eq!(l.rate_at(SimTime::from_millis(999)), 400.0);
        assert_eq!(l.rate_at(SimTime::from_secs(1)), 100.0);
        assert_eq!(l.rate_at(SimTime::from_secs(3)), 100.0);
        assert_eq!(l.rate_at(SimTime::from_secs(4)), 400.0, "wave repeats");
    }
}
