#!/usr/bin/env bash
# Figure byte-identity: regenerates all nine deterministic figures from
# the release binaries and byte-compares each to its committed copy in
# results/. Exits non-zero, with a diff, on the first figure that
# differs. Needs `cargo build --release --workspace` first.
#
#   scripts/figures.sh
#
# A change that claims to move no simulated behaviour must keep every
# figure identical, and a figure nobody re-ran must not sit stale in
# results/. fig6 and fig16 measure host wall-clock and never reproduce
# byte-for-byte, so they are not compared. ~2 min, about half of it
# fig17.
set -euo pipefail
cd "$(dirname "$0")/.."

fig_tmp="$(mktemp)"
trap 'rm -f "$fig_tmp"' EXIT
for fig in table1_website_impact fig9_latency_breakdown fig10_tcpstore_latency \
           "fig12_failure_recovery --timeline" fig13_scalability fig14_policy_update \
           fig15_cost_reduction fig17_adaptive_tail ablation; do
    read -r bin args <<< "$fig"
    # shellcheck disable=SC2086  # $args is zero or one flag, split on purpose
    ./target/release/"$bin" $args > "$fig_tmp"
    if ! cmp -s "$fig_tmp" "results/$bin.txt"; then
        echo "figure drift: $fig output differs from committed results/" >&2
        diff "results/$bin.txt" "$fig_tmp" | head -20 >&2 || true
        exit 1
    fi
    echo "$bin: byte-identical to committed results/"
done
