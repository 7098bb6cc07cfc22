//! Figure 15: max-to-average traffic ratio per VIP → cost reduction.
//!
//! "By using YODA, these online services can save L7 LB cost by 1.07x to
//! 50.3x (average = 3.7x across all VIPs)." The ratio of each VIP's peak
//! 10-minute traffic to its daily average is the factor by which a
//! dedicated (peak-provisioned) HAProxy deployment over-provisions
//! relative to Yoda-as-a-service (which bills average usage).

use yoda_assign::Trace;
use yoda_bench::{f2, print_header, print_kv, Table};

fn main() {
    print_header(
        "Figure 15",
        "Max-to-average traffic ratio for all VIPs (24h production-style trace)",
    );
    let trace = Trace::generate();
    print_kv("VIPs", trace.vips.len());
    print_kv("bins (10-min)", trace.bins());
    print_kv("total L7 rules", trace.total_rules());

    let ratios = trace.max_avg_ratios();
    let mut table = Table::new(&["vip rank", "mean traffic (req/s)", "max/avg ratio"]);
    // Print every 10th VIP (the figure's x-axis is all VIPs, sorted by
    // decreasing traffic).
    for (i, v) in trace.vips.iter().enumerate() {
        if i % 10 == 0 || i == trace.vips.len() - 1 {
            table.row(&[i.to_string(), f2(v.mean_traffic()), f2(ratios[i])]);
        }
    }
    table.print();

    let min = ratios.iter().copied().fold(f64::INFINITY, f64::min);
    let max = ratios.iter().copied().fold(0.0f64, f64::max);
    print_kv("min max/avg ratio (measured)", f2(min));
    print_kv("max max/avg ratio (measured)", f2(max));
    print_kv(
        "mean max/avg ratio = cost reduction (measured)",
        f2(trace.mean_max_avg_ratio()),
    );
    print_kv("paper", "1.07x - 50.3x, average 3.7x");
}
