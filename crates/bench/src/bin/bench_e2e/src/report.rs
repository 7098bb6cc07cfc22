//! What a set of passes folds into, how it is printed and written, and
//! how two written sets compare under the benchmark's bounds.

use crate::contract::{Contract, MetricDef};
use crate::json::Json;
use crate::stats::{median, supported_tail};

/// One metric over the passes of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// What the workload reports for the metric: the median over passes,
    /// except that `wall_req_per_s` is filtered across passes.
    pub value: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            value: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

pub struct WorkloadReport {
    pub workload: String,
    pub digest: u64,
    /// Untraced passes the end-to-end medians are over.
    pub passes: usize,
    /// Requests started in the window, summed over the untraced passes.
    pub attempted: u64,
    pub failed: u64,
    /// Latency samples behind `sim_p50_ms`/`sim_p99_ms` in one pass.
    pub latency_samples: u64,
    /// In `BENCHMARK.json` order.
    pub end_to_end: Vec<(String, Summary)>,
    /// In `BENCHMARK.json` order; empty without a traced pass.
    pub per_layer: Vec<(String, f64)>,
    pub failures: Vec<String>,
}

/// Six significant digits: enough to see a 0.01 % change, few enough to read.
fn fmt_num(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 100_000.0 {
        format!("{v:.0}")
    } else {
        let digits = (5 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
        format!("{v:.digits$}")
    }
}

pub fn print_workload(contract: &Contract, r: &WorkloadReport) {
    println!(
        "\n== {}  digest {:016x}  {} pass(es), {} requests attempted, {} failed, {} latency samples per pass",
        r.workload, r.digest, r.passes, r.attempted, r.failed, r.latency_samples
    );
    println!(
        "  {:<22} {:>14} {:>14} {:>14}  {:<6} {:<7} bound",
        "end-to-end metric", "value", "min", "max", "unit", "better"
    );
    for (name, s) in &r.end_to_end {
        let def = contract.end_to_end.iter().find(|d| &d.name == name);
        println!(
            "  {:<22} {:>14} {:>14} {:>14}  {:<6} {:<7} {}",
            name,
            fmt_num(s.value),
            fmt_num(s.min),
            fmt_num(s.max),
            contract.unit(name),
            def.map_or("", |d| if d.higher_is_better {
                "higher"
            } else {
                "lower"
            }),
            def.and_then(|d| d.bound)
                .map_or(String::new(), |b| format!("{:.1} %", b * 100.0)),
        );
    }
    if let Some((_, ok)) = r.end_to_end.iter().find(|(n, _)| n == "sim_ok_ratio") {
        println!("  {:<22} {:>14}", "fail_ratio", fmt_num(1.0 - ok.value));
    }
    if supported_tail(r.latency_samples as usize).is_none_or(|p| p < 99.0) {
        println!(
            "  note: sim_p99_ms has fewer than ten of its {} samples beyond it; the highest supported percentile is {}",
            r.latency_samples,
            supported_tail(r.latency_samples as usize).map_or("none".to_string(), |p| format!("p{p}")),
        );
    }
    for f in &r.failures {
        println!("  CHECK FAILED: {f}");
    }
}

/// The per-layer metrics of every workload side by side.
pub fn print_layer_table(contract: &Contract, reports: &[WorkloadReport]) {
    println!("\n== per layer (counts: untraced passes; host times and shares: the traced pass)");
    print!("  {:<36} {:<6}", "metric", "unit");
    for r in reports {
        print!(" {:>15}", r.workload);
    }
    println!();
    for def in &contract.per_layer {
        print!("  {:<36} {:<6}", def.name, def.unit);
        for r in reports {
            let v = r
                .per_layer
                .iter()
                .find(|(n, _)| n == &def.name)
                .map(|(_, v)| *v);
            print!(" {:>15}", v.map_or("-".to_string(), fmt_num));
        }
        println!();
    }
}

pub fn to_json(seed: u64, nproc: usize, smoke: bool, reports: &[WorkloadReport]) -> Json {
    let workloads = reports.iter().map(|r| {
        let e2e = r.end_to_end.iter().map(|(name, s)| {
            let s = Json::obj([
                ("value", Json::Num(s.value)),
                ("min", Json::Num(s.min)),
                ("max", Json::Num(s.max)),
            ]);
            (name.clone(), s)
        });
        let layers = r
            .per_layer
            .iter()
            .map(|(name, v)| (name.clone(), Json::Num(*v)));
        let body = Json::obj([
            ("digest", Json::Str(format!("{:016x}", r.digest))),
            ("passes", Json::Num(r.passes as f64)),
            ("attempted", Json::Num(r.attempted as f64)),
            ("failed", Json::Num(r.failed as f64)),
            ("end_to_end", Json::obj(e2e)),
            ("per_layer", Json::obj(layers)),
            (
                "failures",
                Json::Arr(r.failures.iter().cloned().map(Json::Str).collect()),
            ),
        ]);
        (r.workload.clone(), body)
    });
    Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("nproc", Json::Num(nproc as f64)),
        ("smoke", Json::Bool(smoke)),
        ("workloads", Json::obj(workloads)),
    ])
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The baseline's own passes spread wider than the bound, so a
    /// difference of that size cannot be told from noise.
    Unresolved,
}

/// Applies one metric's bound to a baseline and a candidate value.
pub fn verdict(def: &MetricDef, base: Summary, candidate: f64) -> Verdict {
    let bound = def.bound.unwrap_or(0.0);
    let scale = base.value.abs().max(f64::MIN_POSITIVE);
    let worse_by = if def.higher_is_better {
        base.value - candidate
    } else {
        candidate - base.value
    };
    if (base.max - base.min) / scale > bound {
        Verdict::Unresolved
    } else if worse_by / scale > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn summary_of(v: &Json) -> Option<Summary> {
    Some(Summary {
        value: v.get("value")?.num()?,
        min: v.get("min")?.num()?,
        max: v.get("max")?.num()?,
    })
}

/// Prints one row per (workload, end-to-end metric) of two `--json`
/// files, `a` the baseline. Returns whether nothing regressed.
pub fn compare(contract: &Contract, a: &Json, b: &Json) -> bool {
    let mut regressed = 0;
    let empty = Json::Null;
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    for (workload, wa) in a.get("workloads").unwrap_or(&empty).entries() {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(workload)) else {
            println!("{workload:<16} missing from B");
            continue;
        };
        let same = wa.get("digest") == wb.get("digest");
        println!(
            "{workload:<16} {:<22} {:>14} {:>14} {:>9}  {}",
            "event_digest",
            wa.get("digest").and_then(Json::str).unwrap_or("-"),
            wb.get("digest").and_then(Json::str).unwrap_or("-"),
            "",
            if same { "identical" } else { "differs" }
        );
        for def in &contract.end_to_end {
            let get = |w: &Json| w.get("end_to_end")?.get(&def.name).and_then(summary_of);
            let (Some(sa), Some(sb)) = (get(wa), get(wb)) else {
                println!("{workload:<16} {:<22} missing", def.name);
                continue;
            };
            let v = verdict(def, sa, sb.value);
            if v == Verdict::Regressed {
                regressed += 1;
            }
            println!(
                "{workload:<16} {:<22} {:>14} {:>14} {:>+8.2}%  {}",
                def.name,
                fmt_num(sa.value),
                fmt_num(sb.value),
                (sb.value - sa.value) / sa.value.abs().max(f64::MIN_POSITIVE) * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    println!("{regressed} regressed");
    regressed == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(higher_is_better: bool, bound: f64) -> MetricDef {
        MetricDef {
            name: "m".to_string(),
            unit: "u".to_string(),
            higher_is_better,
            bound: Some(bound),
        }
    }

    fn tight(value: f64) -> Summary {
        Summary {
            value,
            min: value * 0.99,
            max: value * 1.01,
        }
    }

    #[test]
    fn bound_applies_in_the_worse_direction_only() {
        let lower = def(false, 0.10);
        assert_eq!(verdict(&lower, tight(100.0), 109.0), Verdict::Ok);
        assert_eq!(verdict(&lower, tight(100.0), 111.0), Verdict::Regressed);
        assert_eq!(verdict(&lower, tight(100.0), 10.0), Verdict::Ok);
        let higher = def(true, 0.10);
        assert_eq!(verdict(&higher, tight(100.0), 91.0), Verdict::Ok);
        assert_eq!(verdict(&higher, tight(100.0), 89.0), Verdict::Regressed);
        assert_eq!(verdict(&higher, tight(100.0), 1_000.0), Verdict::Ok);
    }

    #[test]
    fn wide_baseline_spread_is_unresolved_not_ok_or_regressed() {
        let noisy = Summary {
            value: 100.0,
            min: 90.0,
            max: 115.0,
        };
        let d = def(false, 0.10);
        assert_eq!(verdict(&d, noisy, 100.0), Verdict::Unresolved);
        assert_eq!(verdict(&d, noisy, 150.0), Verdict::Unresolved);
        // Exact simulated metrics have no spread and resolve at any bound.
        let exact = Summary {
            value: 100.0,
            min: 100.0,
            max: 100.0,
        };
        assert_eq!(
            verdict(&def(false, 0.001), exact, 100.2),
            Verdict::Regressed
        );
        assert_eq!(verdict(&def(false, 0.001), exact, 100.0), Verdict::Ok);
    }

    #[test]
    fn summary_and_number_format() {
        let s = Summary::of(&[3.0, 9.0, 5.0]);
        assert_eq!((s.value, s.min, s.max), (5.0, 3.0, 9.0));
        assert_eq!(fmt_num(1234.5678), "1234.57");
        assert_eq!(fmt_num(0.000123456), "0.000123456");
        assert_eq!(fmt_num(2_345_678.9), "2345679");
        assert_eq!(fmt_num(0.0), "0");
    }

    #[test]
    fn written_reports_compare_with_themselves() {
        let contract = Contract::embedded().expect("BENCHMARK.json parses");
        let report = WorkloadReport {
            workload: "browse_closed".to_string(),
            digest: 0xfeed,
            passes: 3,
            attempted: 10,
            failed: 0,
            latency_samples: 10,
            end_to_end: contract
                .end_to_end
                .iter()
                .map(|d| (d.name.clone(), tight(50.0)))
                .collect(),
            per_layer: vec![("netsim.events_per_req".to_string(), 500.0)],
            failures: Vec::new(),
        };
        let doc = to_json(42, 2, false, &[report]);
        let back = Json::parse(&doc.to_string()).expect("own output parses");
        assert_eq!(back, doc);
        assert!(compare(&contract, &doc, &back));
    }
}
