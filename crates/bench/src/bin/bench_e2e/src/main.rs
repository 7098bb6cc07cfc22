//! `bench_e2e`: the repository's benchmark. See README.md beside
//! Cargo.toml for what it measures and how to read it.
//!
//! ```text
//! bench_e2e [--seed S] [--workload NAME] [--repeats N] [--smoke]
//!           [--json PATH] [--spans-out PATH]          every metric, for people
//! bench_e2e --workload NAME --seed S --seconds T --trace 0|1
//!                                                     one run, for the driver
//! bench_e2e --compare A.json B.json                   apply the bounds
//! ```
//!
//! Every measured pass runs in a child process of its own (this same
//! executable with `--child`), strictly one after another, so memory
//! high-water marks and allocator state never leak between passes.

mod bed;
mod contract;
mod json;
mod report;
mod stats;
mod timed;
mod workload;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use contract::Contract;
use json::Json;
use report::{Summary, WorkloadReport};
use workload::{Pass, Spec, Workload};

const USAGE: &str = "usage:
  bench_e2e [--seed S] [--workload NAME] [--repeats N] [--smoke] [--json PATH] [--spans-out PATH]
  bench_e2e --workload NAME --seed S --seconds T --trace 0|1
  bench_e2e --compare A.json B.json";

#[derive(Debug, Default)]
struct Args {
    seed: Option<u64>,
    workload: Option<Workload>,
    repeats: Option<usize>,
    smoke: bool,
    json: Option<String>,
    spans_out: Option<String>,
    seconds: Option<u64>,
    trace: bool,
    compare: Option<(String, String)>,
    child: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        fn number<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: bad number {v:?}"))
        }
        match flag.as_str() {
            "--seed" => args.seed = Some(number(flag, value()?)?),
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--repeats" => args.repeats = Some(number(flag, value()?)?),
            "--smoke" => args.smoke = true,
            "--json" => args.json = Some(value()?),
            "--spans-out" => args.spans_out = Some(value()?),
            "--seconds" => args.seconds = Some(number(flag, value()?)?),
            "--trace" => args.trace = number::<u8>(flag, value()?)? != 0,
            "--compare" => args.compare = Some((value()?, value()?)),
            "--child" => args.child = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.repeats == Some(0) {
        return Err("--repeats must be at least 1".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if let Some(kind) = &args.child {
        child(&args, kind, process_start)
    } else if let Some((a, b)) = &args.compare {
        compare_files(a, b)
    } else if let Some(seconds) = args.seconds {
        driver_run(&args, seconds)
    } else {
        full_run(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------
// Child: one measured pass, result as one JSON line on stdout.
// ---------------------------------------------------------------------

fn child(args: &Args, kind: &str, process_start: Instant) -> Result<bool, String> {
    let spec = Spec {
        workload: args.workload.ok_or("--child needs --workload")?,
        seed: args.seed.ok_or("--child needs --seed")?,
        smoke: args.smoke,
    };
    let pass = match kind {
        "plain" => workload::run_pass(spec, false, None, process_start),
        "traced" => workload::run_pass(spec, true, args.spans_out.as_deref(), process_start),
        "shard" => workload::run_shard_slice(spec),
        other => return Err(format!("unknown child kind {other:?}")),
    };
    let line = Json::obj([
        ("digest", Json::Str(format!("{:016x}", pass.digest))),
        (
            "values",
            Json::obj(pass.values.into_iter().map(|(k, v)| (k, Json::Num(v)))),
        ),
        (
            "slices",
            Json::Arr(pass.slices.into_iter().map(Json::Num).collect()),
        ),
        (
            "failures",
            Json::Arr(pass.failures.into_iter().map(Json::Str).collect()),
        ),
    ]);
    println!("{line}");
    Ok(true)
}

fn spawn_pass(spec: Spec, kind: &str, spans_out: Option<&str>) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", kind, "--workload", spec.workload.name()])
        .args(["--seed", &spec.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if spec.smoke {
        cmd.arg("--smoke");
    }
    if let Some(path) = spans_out {
        cmd.args(["--spans-out", path]);
    }
    // `output` waits for the child to end.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start a {kind} pass: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{kind} pass of {} ended with {}",
            spec.workload.name(),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let v = Json::parse(line)?;
    let digest = v
        .get("digest")
        .and_then(Json::str)
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or("pass result has no digest")?;
    Ok(Pass {
        digest,
        values: v
            .get("values")
            .map(Json::entries)
            .unwrap_or(&[])
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.num()?)))
            .collect(),
        slices: v
            .get("slices")
            .map(Json::arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(Json::num)
            .collect(),
        failures: v
            .get("failures")
            .map(Json::arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|f| f.str().map(str::to_string))
            .collect(),
    })
}

// ---------------------------------------------------------------------
// Parent: run passes of one workload and fold them into a report.
// ---------------------------------------------------------------------

/// How many untraced passes to run.
#[derive(Debug, Clone, Copy)]
enum Passes {
    Count(usize),
    /// Until the measured windows add up to this many wall seconds.
    WallSeconds(u64),
}

/// Set-up time is a median over passes and the window's wall time is
/// filtered across them ([`quiet_wall_s`]), so even the shortest budget
/// gets this many: with five, runs of one commit agree to ~4 %; with
/// three, to ~9 %.
const MIN_PASSES: usize = 5;
/// Keeps a run inside the driver's per-run limit on a slow host.
const MAX_PASSES: usize = 12;

/// The window's wall time with the host's interference filtered out: for
/// each of the window's slices the fastest pass, summed.
///
/// The dev host is a VM whose hypervisor steals 10–25 % of the CPU in
/// bursts of 0.1–1 s. That only ever slows a slice down, and a seed
/// fixes the work of every slice, so the fastest of several passes over
/// a slice is its least disturbed measurement. Whole-pass medians of one
/// commit differ by ~19 % between runs, whole-pass minima by ~9–23 %.
fn quiet_wall_s(passes: &[&Pass]) -> f64 {
    let slices = passes.iter().map(|p| p.slices.len()).min().unwrap_or(0);
    (0..slices)
        .map(|i| {
            passes
                .iter()
                .map(|p| p.slices[i])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

fn value(pass: &Pass, name: &str) -> Option<f64> {
    pass.values.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
}

fn measure(
    contract: &Contract,
    spec: Spec,
    passes: Passes,
    traced: bool,
    spans_out: Option<&str>,
) -> Result<WorkloadReport, String> {
    let name = spec.workload.name();
    let mut plain: Vec<Pass> = Vec::new();
    let mut measured_s = 0.0;
    loop {
        let done = match passes {
            Passes::Count(n) => plain.len() >= n,
            Passes::WallSeconds(s) => {
                plain.len() >= MAX_PASSES || (plain.len() >= MIN_PASSES && measured_s >= s as f64)
            }
        };
        if done {
            break;
        }
        let pass = spawn_pass(spec, "plain", None)?;
        measured_s += value(&pass, "window_wall_s").unwrap_or(0.0);
        eprintln!(
            "  {name}: pass {} window {:.2} s, set-up {:.2} s",
            plain.len() + 1,
            value(&pass, "window_wall_s").unwrap_or(0.0),
            value(&pass, "setup_s").unwrap_or(0.0)
        );
        plain.push(pass);
    }

    let mut failures: Vec<String> = Vec::new();
    let first = &plain[0];
    for (i, p) in plain.iter().enumerate() {
        failures.extend(p.failures.iter().map(|f| format!("pass {}: {f}", i + 1)));
        if p.digest != first.digest {
            failures.push(format!(
                "pass {} digest {:016x} != pass 1 digest {:016x}",
                i + 1,
                p.digest,
                first.digest
            ));
        }
        // Simulated time depends on the seed alone.
        for (k, v) in p.values.iter().filter(|(k, _)| k.starts_with("sim_")) {
            if value(first, k) != Some(*v) {
                failures.push(format!("pass {}: {k} = {v} differs from pass 1", i + 1));
            }
        }
    }

    let across = |name: &str| -> Option<Summary> {
        let vals: Vec<f64> = plain.iter().filter_map(|p| value(p, name)).collect();
        (!vals.is_empty()).then(|| Summary::of(&vals))
    };
    // Requests and events of the window are the same in every pass.
    let requests = value(first, "requests").unwrap_or(0.0);
    let events = value(first, "events").unwrap_or(0.0);
    let all: Vec<&Pass> = plain.iter().collect();
    let quiet = quiet_wall_s(&all);
    let mut end_to_end = Vec::new();
    for def in &contract.end_to_end {
        let summary = if def.name == "wall_req_per_s" {
            // The filtered rate; its min and max are what it becomes
            // when any one pass is left out.
            let leave_one_out = (0..all.len()).filter(|_| all.len() > 1).map(|skip| {
                let rest: Vec<&Pass> = (0..all.len())
                    .filter(|&i| i != skip)
                    .map(|i| all[i])
                    .collect();
                requests / quiet_wall_s(&rest)
            });
            let rate = requests / quiet;
            Some(Summary {
                value: rate,
                ..Summary::of(&leave_one_out.chain([rate]).collect::<Vec<_>>())
            })
        } else {
            across(&def.name)
        };
        match summary {
            Some(s) => end_to_end.push((def.name.clone(), s)),
            None => failures.push(format!("no pass produced {}", def.name)),
        }
    }

    let mut per_layer = Vec::new();
    if traced {
        let t = spawn_pass(spec, "traced", spans_out)?;
        let s = spawn_pass(spec, "shard", None)?;
        failures.extend(t.failures.iter().map(|f| format!("traced pass: {f}")));
        failures.extend(s.failures.iter().map(|f| format!("shard slice: {f}")));
        if t.digest != first.digest {
            failures.push(format!(
                "traced digest {:016x} != untraced digest {:016x}: Timed<N> is not transparent or \
                 Bed::traced has drifted from Testbed::build",
                t.digest, first.digest
            ));
        }
        let overhead = value(&t, "window_wall_s")
            .zip(across("window_wall_s"))
            .map(|(traced, plain)| traced / plain.value);
        for def in &contract.per_layer {
            // Counts and untraced wall times come from the untraced
            // passes; only what needs spans comes from the traced one.
            let v = match def.name.as_str() {
                "trace.overhead_ratio" => overhead,
                "netsim.ns_per_event" => Some(quiet * 1e9 / events),
                "netsim.events_per_s" => Some(events / quiet),
                n => across(n)
                    .map(|s| s.value)
                    .or_else(|| value(&t, n))
                    .or_else(|| value(&s, n)),
            };
            match v {
                Some(v) => per_layer.push((def.name.clone(), v)),
                None => failures.push(format!("no pass produced {}", def.name)),
            }
        }
    }

    let sum = |name: &str| plain.iter().filter_map(|p| value(p, name)).sum::<f64>() as u64;
    Ok(WorkloadReport {
        workload: name.to_string(),
        digest: first.digest,
        passes: plain.len(),
        attempted: sum("attempted"),
        failed: sum("failed"),
        latency_samples: value(first, "latency_samples").unwrap_or(0.0) as u64,
        end_to_end,
        per_layer,
        failures,
    })
}

// ---------------------------------------------------------------------
// The three front ends.
// ---------------------------------------------------------------------

/// One run as the driver asks for it: the last line of stdout is the
/// result object. Exits 0 whenever that line was printed; a failed check
/// shows as `"correct": false`.
fn driver_run(args: &Args, seconds: u64) -> Result<bool, String> {
    let contract = Contract::embedded()?;
    let spec = Spec {
        workload: args.workload.ok_or("--seconds needs --workload")?,
        seed: args.seed.ok_or("--seconds needs --seed")?,
        smoke: args.smoke,
    };
    let report = if args.trace {
        measure(
            &contract,
            spec,
            Passes::Count(1),
            true,
            args.spans_out.as_deref(),
        )?
    } else {
        measure(&contract, spec, Passes::WallSeconds(seconds), false, None)?
    };
    for f in &report.failures {
        eprintln!("bench_e2e: CHECK FAILED: {}: {f}", report.workload);
    }
    let metrics: Vec<(String, Json)> = if args.trace {
        report
            .per_layer
            .iter()
            .map(|(name, v)| (name.clone(), metric_json(*v, contract.unit(name))))
            .collect()
    } else {
        report
            .end_to_end
            .iter()
            .map(|(name, s)| (name.clone(), metric_json(s.value, contract.unit(name))))
            .collect()
    };
    let line = Json::obj([
        ("correct", Json::Bool(report.failures.is_empty())),
        ("attempted", Json::Num(report.attempted.max(1) as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{line}");
    Ok(true)
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.to_string())),
    ])
}

/// Every workload (or the one named), untraced passes then a traced one;
/// prints every metric and fails on any output check.
fn full_run(args: &Args) -> Result<bool, String> {
    let contract = Contract::embedded()?;
    let seed = args.seed.unwrap_or(42);
    let repeats = args
        .repeats
        .unwrap_or(if args.smoke { 1 } else { MIN_PASSES });
    let workloads: Vec<Workload> = match args.workload {
        Some(w) => vec![w],
        None => contract
            .workloads
            .iter()
            .map(|n| {
                Workload::from_name(n)
                    .ok_or_else(|| format!("BENCHMARK.json names unknown workload {n:?}"))
            })
            .collect::<Result<_, _>>()?,
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "bench_e2e: seed {seed}, {repeats} untraced pass(es) + 1 traced per workload, host has {nproc} \
         core(s); all traffic is simulated{}",
        if args.smoke { " (SMOKE: windows / 10)" } else { "" }
    );
    let mut reports = Vec::new();
    for w in workloads {
        let spec = Spec {
            workload: w,
            seed,
            smoke: args.smoke,
        };
        let spans = args.spans_out.as_ref().map(|p| format!("{p}.{}", w.name()));
        let report = measure(
            &contract,
            spec,
            Passes::Count(repeats),
            true,
            spans.as_deref(),
        )?;
        report::print_workload(&contract, &report);
        reports.push(report);
    }
    report::print_layer_table(&contract, &reports);
    if let Some(path) = &args.json {
        let doc = report::to_json(seed, nproc, args.smoke, &reports);
        std::fs::write(path, format!("{doc}\n"))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    let failed: usize = reports.iter().map(|r| r.failures.len()).sum();
    if failed > 0 {
        println!("\n{failed} output check(s) FAILED");
    } else {
        println!("\nall output checks passed");
    }
    Ok(failed == 0)
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let contract = Contract::embedded()?;
    let read = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    Ok(report::compare(&contract, &read(a)?, &read(b)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(slices: &[f64]) -> Pass {
        Pass {
            digest: 0,
            values: Vec::new(),
            slices: slices.to_vec(),
            failures: Vec::new(),
        }
    }

    #[test]
    fn quiet_wall_takes_each_slice_from_its_fastest_pass() {
        let (a, b, c) = (
            pass(&[1.0, 5.0, 1.0]),
            pass(&[4.0, 1.0, 1.5]),
            pass(&[2.0, 2.0, 2.0]),
        );
        assert_eq!(quiet_wall_s(&[&a, &b, &c]), 3.0);
        assert_eq!(quiet_wall_s(&[&a]), 7.0);
        // Fewer passes can only raise the estimate.
        assert!(quiet_wall_s(&[&b, &c]) >= quiet_wall_s(&[&a, &b, &c]));
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload api_open --seed 7 --seconds 10 --trace 1"))
            .expect("driver form");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some(Workload::ApiOpen), Some(7), Some(10), true)
        );
        let a = parse_args(&argv("--compare a.json b.json")).expect("compare form");
        assert_eq!(
            a.compare,
            Some(("a.json".to_string(), "b.json".to_string()))
        );
        for bad in [
            "--workload nope",
            "--seed x",
            "--repeats 0",
            "--seed",
            "--frobnicate",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted {bad:?}");
        }
    }
}
