#!/usr/bin/env bash
# The full local gate: build, test, tidy. Exits non-zero on the first
# failure. Run before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace
# The repo's benchmark is a package outside the workspace (BENCHMARK.json
# runs it from source), so nothing above notices when a change to the
# product crates breaks its build — or its output checks: --smoke runs all
# four workloads on short windows and exits non-zero unless the event
# digests agree across passes and between the traced and untraced pass,
# the backends served at least the bytes the clients completed, and the
# open-loop clients issued exactly rate x window.
echo "==> bench_e2e --smoke"
cargo run --release --offline --quiet --manifest-path crates/bench/src/bin/bench_e2e/Cargo.toml -- --smoke
# Same reason for its own unit tests: `cargo test --workspace` below does
# not reach a package outside the workspace.
echo "==> bench_e2e unit tests"
cargo test --release --offline --quiet --manifest-path crates/bench/src/bin/bench_e2e/Cargo.toml

echo "==> cargo test"
cargo test -q --workspace

echo "==> cargo clippy"
# All fourteen crates under crates/, every target, warnings denied (the
# root package's tests/ and examples/ are not gated yet).
cargo clippy --offline --workspace --exclude yoda --all-targets -- -D warnings

echo "==> yoda-tidy"
# One gate: the committed baseline (results/tidy_baseline.json) holds 0
# violations in every category, and yoda-tidy itself exits non-zero on
# any violation or allowlist error, naming file:line and the taint path.
cargo run -q -p yoda-tidy
# Per-function effect signatures: byte comparison against the committed
# dump, so a silently grown signature is visible in review.
effects_json="$(mktemp)"
cargo run -q -p yoda-tidy -- --effects > "$effects_json"
if [[ -f results/tidy_effects.json ]]; then
    if cmp -s "$effects_json" results/tidy_effects.json; then
        echo "tidy: effect signatures identical to results/tidy_effects.json"
    else
        echo "tidy: effect signatures drifted from results/tidy_effects.json — review and regenerate:"
        diff results/tidy_effects.json "$effects_json" | head -20 || true
        echo "      cargo run -q -p yoda-tidy -- --effects > results/tidy_effects.json"
        rm -f "$effects_json"
        exit 1
    fi
else
    echo "tidy: no committed results/tidy_effects.json — skipping signature delta"
fi
rm -f "$effects_json"

echo "==> chaos repro hook (pinned seed)"
# The full seeded matrix (20 survivable + 5 unconstrained plans) already
# ran under `cargo test`; this replays one pinned seed through the
# CHAOS_SEED one-command repro hook so the hook itself can't rot.
chaos_out="$(CHAOS_SEED=7 cargo test --release -q --test chaos_matrix one_seed -- --nocapture)"
grep -m1 "ChaosPlan { seed: 7" <<< "$chaos_out" \
    || { echo "chaos repro hook produced no plan output" >&2; exit 1; }

echo "==> spliced flow, killed at every step"
# Tier-1 runs the sweep at ~24 points of the flow's life; this runs every
# step × {serving instance, client-leg mux, server-leg mux} (~16 K cases,
# ~20 s) and prints, per victim, which steps needed an RTO.
cargo test --release -q --test failure_matrix -- --ignored --nocapture \
    | grep -E "kills needed an RTO|cases over"

echo "==> bench_engine (smoke)"
# Events/sec delta vs the committed BENCH_engine.json. Report-only:
# wall-clock throughput is machine-dependent, so a delta here must never
# gate. (Digest agreement is asserted inside the bench itself, across
# its repeats.)
bench_json="$(mktemp)"
trap 'rm -f "$bench_json"' EXIT
./target/release/bench_engine --smoke > "$bench_json"
if [[ -f BENCH_engine.json ]]; then
    for name in pingpong_mesh timer_churn trace_ring dc_jitter_mesh; do
        committed=$(grep "\"name\": \"$name\"" BENCH_engine.json \
            | grep -o '"events_per_sec": [0-9]*' | grep -o '[0-9]*' || true)
        now=$(grep "\"name\": \"$name\"" "$bench_json" \
            | grep -o '"events_per_sec": [0-9]*' | grep -o '[0-9]*' || true)
        if [[ -n "$committed" && -n "$now" && "$committed" -gt 0 ]]; then
            awk -v n="$name" -v c="$committed" -v x="$now" 'BEGIN {
                printf "bench: %-14s %12d events/s (committed %12d, %+.1f%%)\n",
                       n, x, c, 100.0 * (x - c) / c }'
        fi
    done
else
    echo "bench: no committed BENCH_engine.json — skipping delta"
fi

echo "==> store brownout availability delta"
# Gray-failure headline: all stores slowed 10x, none killed. The bench
# prints healthy-vs-brownout new-connection success; the delta must stay
# under 1 point (the brownout test under `cargo test` asserts the >= 99%
# floor — this readout puts the number in the gate log).
brownout_out="$(./target/release/brownout_store)"
grep -E "success|availability delta|degraded-mode entries" <<< "$brownout_out"
delta_pct=$(grep "availability delta" <<< "$brownout_out" | grep -o '[0-9.]*%' | tr -d '%')
awk -v d="$delta_pct" 'BEGIN {
    if (d > 1.0) { print "brownout: availability delta " d "% exceeds 1 point" ; exit 1 }
}' || exit 1

echo "==> figure byte-identity (all nine deterministic figures)"
# Engine changes must be pure perf wins unless they say otherwise: every
# simulation-driven figure must reproduce its committed bytes exactly
# (CI runs the same script).
scripts/figures.sh

echo "==> all checks passed"
