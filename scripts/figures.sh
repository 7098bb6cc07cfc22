#!/usr/bin/env bash
# The figure binaries and their committed outputs in results/.
#
#   scripts/figures.sh            # compare (needs `cargo build --release --workspace`)
#   scripts/figures.sh --update   # build, then regenerate every results/<bin>.txt
#
# Compare mode regenerates all ten deterministic figures from the release
# binaries and byte-compares each to its committed copy (fig16 up to its
# solve times), then checks the four seed-42 bench_e2e event digests
# against the ones pinned below (DESIGN.md "Digests"). It exits non-zero,
# with a diff or both digests, on the first that differs. bench_e2e, a
# package outside the workspace, is built here.
#
# A change that claims to move no simulated behaviour must keep every
# figure and digest identical, and a figure nobody re-ran must not sit
# stale in results/. fig6 measures host wall-clock and never reproduces
# byte-for-byte, so it is not compared; fig16 is compared up to its
# wall-clock solve-time table. ~2 min, about half of it fig17; the
# digests take ~10 s more. --update also rewrites fig6 and the whole of
# fig16 (~15 min).
set -euo pipefail
cd "$(dirname "$0")/.."

# Every figure binary; each results/<bin>.txt is its output with no arguments.
figures=(table1_website_impact fig6_rule_latency fig9_latency_breakdown
         fig10_tcpstore_latency fig12_failure_recovery fig13_scalability
         fig14_policy_update fig15_cost_reduction fig16_updates fig17_adaptive_tail ablation
         brownout_store)

if [[ "${1:-}" == "--update" ]]; then
    cargo build --release --workspace
    for bin in "${figures[@]}"; do
        echo "==> $bin"
        ./target/release/"$bin" > "results/$bin.txt"
    done
    echo "==> results/ regenerated"
    exit 0
fi

# Everything fig16 prints before its solve-time table is simulated.
before_solve_times() { sed '/^assignment solve time/,$d' "$1"; }

fig_tmp="$(mktemp)"
trap 'rm -f "$fig_tmp"' EXIT
for bin in "${figures[@]}"; do
    [[ "$bin" == fig6_rule_latency ]] && continue
    ./target/release/"$bin" > "$fig_tmp"
    if [[ "$bin" == fig16_updates ]]; then
        if ! cmp -s <(before_solve_times "$fig_tmp") <(before_solve_times results/fig16_updates.txt); then
            echo "figure drift: fig16_updates output differs from committed results/" >&2
            diff <(before_solve_times results/fig16_updates.txt) <(before_solve_times "$fig_tmp") | head -20 >&2 || true
            exit 1
        fi
        echo "fig16_updates: identical to committed results/ up to the solve times"
    elif ! cmp -s "$fig_tmp" "results/$bin.txt"; then
        echo "figure drift: $bin output differs from committed results/" >&2
        diff "results/$bin.txt" "$fig_tmp" | head -20 >&2 || true
        exit 1
    else
        echo "$bin: byte-identical to committed results/"
    fi
done

# A deliberate digest move updates these pins and DESIGN.md "Digests" in
# the same change.
for pinned in browse_closed:c91e8019f54d54ea api_open:347480207a2d96b1 \
              bulk_splice:dc7d7fa4183f81f8 failover_closed:89c06ff5ee5809ec; do
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
