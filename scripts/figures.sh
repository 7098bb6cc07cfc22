#!/usr/bin/env bash
# Figure and digest byte-identity: regenerates all nine deterministic
# figures from the release binaries and byte-compares each to its
# committed copy in results/, then checks the four seed-42 bench_e2e
# event digests against the ones pinned below (DESIGN.md "Digests").
# Exits non-zero, with a diff or both digests, on the first that differs.
# Needs `cargo build --release --workspace` first (bench_e2e, a package
# outside the workspace, is built here).
#
#   scripts/figures.sh
#
# A change that claims to move no simulated behaviour must keep every
# figure and digest identical, and a figure nobody re-ran must not sit
# stale in results/. fig6 and fig16 measure host wall-clock and never
# reproduce byte-for-byte, so they are not compared. ~2 min, about half
# of it fig17; the digests take ~10 s more.
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

# A deliberate digest move updates these pins and DESIGN.md "Digests" in
# the same change.
for pinned in browse_closed:c91e8019f54d54ea api_open:347480207a2d96b1 \
              bulk_splice:dc7d7fa4183f81f8 failover_closed:e4e950e843764a82; do
    workload="${pinned%%:*}"
    want="${pinned##*:}"
    got="$(cargo run --release --offline --quiet \
               --manifest-path crates/bench/src/bin/bench_e2e/Cargo.toml -- \
               --workload "$workload" --seed 42 --repeats 1 --trace 0 \
           | awk -v w="$workload" '$1 == "==" && $2 == w && $3 == "digest" { print $4 }')"
    if [[ "$got" != "$want" ]]; then
        echo "digest drift: bench_e2e $workload --seed 42 gave '${got}', pinned $want" >&2
        exit 1
    fi
    echo "bench_e2e $workload: seed-42 digest $want as pinned"
done
