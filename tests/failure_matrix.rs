//! Failure sweeps: the paper's invariant (§4.3, §6) that with one live
//! instance and a TCPStore quorum **no flow is ever broken**, checked by
//! failing a component at every step of a flow's life. The shapes, the
//! faults and each case's run are `yoda_chaos::cases`'s (`run
//! sweep/<shape>/<fault>/<k>` replays one case); this file sums the cases
//! into the rows of `results/failure_sweep.txt`.
//! A backend's death, by contrast, must end its flows quickly
//! ([`backend_failure_terminates_its_flows_quickly`]).

use yoda::chaos::cases::{largest_object, small_bed, Fault, Shape};
use yoda::core::{Target, Testbed};
use yoda::http::{BrowserClient, BrowserConfig};
use yoda::netsim::SimTime;

/// `yoda-tcp`'s minimum retransmission timeout: a case whose fetches
/// finished this much later than the reference needed one to fire.
const MIN_RTO: SimTime = SimTime::from_millis(300);

/// Applies every fault at each of `points(n)` steps of `shape`, n being
/// its reference run's length in events; returns n and one summary line
/// per fault: its cases, those that finished at least [`MIN_RTO`] late
/// and by how much, and those in which an instance recovered a flow from
/// TCPStore — which a fault that kills the serving instance must cause.
fn sweep(shape: Shape, points: impl Fn(u64) -> Vec<u64>) -> (u64, Vec<String>) {
    let r = shape.reference().unwrap_or_else(|e| panic!("{e}"));
    let ks = points(r.events);
    let outcomes = r.sweep(&ks);
    let rows = Fault::ALL.iter().zip(outcomes.chunks(ks.len()));
    let rows = rows.map(|(&fault, outs)| {
        let row = format!("{} | {}", shape.title(), fault.title());
        for o in outs {
            o.verdict.as_ref().unwrap_or_else(|e| panic!("{e}"));
        }
        let recovered = outs.iter().filter(|o| o.recovered).count();
        let ok = !fault.kills_instance() || recovered > 0;
        assert!(ok, "{row}: no case recovered a flow");
        let slips = outs.iter().map(|o| o.end.saturating_sub(r.done));
        let mut slips: Vec<SimTime> = slips.filter(|&s| s >= MIN_RTO).collect();
        slips.sort();
        let by = match (slips.first(), slips.last()) {
            (Some(lo), Some(hi)) => {
                format!(" by {:.1}-{:.1} s", lo.as_secs_f64(), hi.as_secs_f64())
            }
            _ => String::new(),
        };
        let (n, late) = (outs.len(), slips.len());
        format!("{row} | {n} cases | {late} slipped{by} | {recovered} recovered")
    });
    (r.events, rows.collect())
}

/// Sweeps `shape` at 24 evenly spaced steps and prints its rows.
fn sweep_24(shape: Shape) {
    let (n, rows) = sweep(shape, |n| (0..24).map(|i| i * n / 24).collect());
    println!("{}: {n} events", shape.title());
    rows.iter().for_each(|row| println!("{row}"));
}

#[test]
fn the_spliced_bulk_fetch_survives_each_fault_at_24_steps() {
    sweep_24(Shape::SplicedFetch);
}

#[test]
fn the_wan_page_browse_survives_each_fault_at_24_steps() {
    sweep_24(Shape::WanBrowse);
}

#[test]
fn the_ssl_fetch_survives_each_fault_at_24_steps() {
    sweep_24(Shape::SslFetch);
}

/// Every step of every shape, under every fault; the rows are
/// `results/failure_sweep.txt` (`scripts/check.sh` compares them).
#[test]
#[ignore = "the exhaustive sweep: run with --ignored (scripts/check.sh does)"]
fn every_shape_survives_each_fault_at_every_step() {
    let mut cases = 0;
    for shape in Shape::ALL {
        let (n, rows) = sweep(shape, |n| (0..n).collect());
        println!("sweep: {}: {n} events", shape.title());
        rows.iter().for_each(|row| println!("sweep: {row}"));
        cases += n * Fault::ALL.len() as u64;
    }
    println!("sweep: {cases} cases");
}

#[test]
fn backend_failure_terminates_its_flows_quickly() {
    // §5.2: when a backend dies, its connections are terminated (the
    // clients see a reset, not a 30 s hang) and new requests avoid it.
    let mut tb = Testbed::build(small_bed(10, 2, 2, false));
    tb.engine.run_for(SimTime::from_secs(1));
    // Long downloads so flows are mid-flight at the failure.
    let fetch = BrowserConfig {
        processes: 8,
        http_timeout: SimTime::from_secs(30),
        retries: 1,
        ..largest_object(&tb, 2)
    };
    let browser = tb.add_browser(0, fetch);
    tb.fail_at(Target::Backend(0), SimTime::from_millis(2500));
    tb.engine.run_for(SimTime::from_secs(120));
    let b = tb.engine.node_mut::<BrowserClient>(browser);
    // Flows through the dead backend were reset and retried; nothing hung
    // to the HTTP timeout and everything eventually completed.
    assert_eq!(b.timeouts, 0, "no flow may hang to the HTTP timeout");
    assert_eq!(b.broken_flows, 0);
    assert_eq!(b.pages_completed, 16);
    assert!(b.resets > 0, "mid-flight flows got reset notifications");
    assert!(b.request_latencies.max().unwrap_or(0.0) < 25_000.0);
}
