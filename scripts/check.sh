#!/usr/bin/env bash
# The full gate: build, test, lint, the long runs and the figures. Exits
# non-zero on the first failure. Run before pushing; CI's check job runs
# this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
# Every workspace package and the root package. bench_e2e is outside the
# workspace, so its frozen sources are not checked.
cargo fmt --all --check

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
# Tier-1: the root manifest's default-members make this every workspace
# package's unit tests, doctests and integration tests.
cargo test -q

echo "==> cargo doc"
# The workspace lints deny warnings, rustdoc's broken and redundant
# intra-doc links included, so a deleted item cannot leave a dangling
# doc link behind.
cargo doc --offline --no-deps --workspace

echo "==> cargo clippy"
# Every package and target, warnings denied. The root clippy.toml's
# disallowed types and methods are the determinism rules, and the root
# Cargo.toml's [workspace.lints] the panic and print rules (DESIGN.md
# "Determinism invariants", "Lints"), so this is the determinism and the
# panic gate too; a stale #[expect] fails it as well.
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> chaos soak"
# Tier-1 runs 20 survivable, 5 unconstrained and 20 gray plans; the soak
# runs 40, 10 and 40 (tests/chaos_matrix.rs). A failing seed prints its
# plan, which regenerates from the seed alone.
cargo test --release -q --test chaos_matrix -- --ignored

echo "==> chaos repro hook (pinned seeds)"
# The seeded matrices already ran; this replays one pinned seed of each
# regime through the CHAOS_SEED one-command repro hook
# (CHAOS_UNCONSTRAINED selects the unconstrained regime) so neither
# branch of the hook can rot.
chaos_out="$(CHAOS_SEED=7 cargo test --release -q --test chaos_matrix one_seed -- --nocapture)"
grep -m1 "ChaosPlan { seed: 7, survivable: true" <<< "$chaos_out" \
    || { echo "chaos repro hook produced no survivable plan output" >&2; exit 1; }
chaos_out="$(CHAOS_SEED=1000 CHAOS_UNCONSTRAINED=1 \
    cargo test --release -q --test chaos_matrix one_seed -- --nocapture)"
grep -m1 "ChaosPlan { seed: 1000, survivable: false" <<< "$chaos_out" \
    || { echo "chaos repro hook produced no unconstrained plan output" >&2; exit 1; }

echo "==> every flow shape, failed at every step"
# Tier-1 runs the failure sweep at 24 steps of each shape's life; this
# runs every step of the three shapes under each of the six faults
# (89,346 cases, ~90 s on 2 cores) and compares its summary — per
# (shape, fault): cases, cases that finished at least one minimum RTO
# late and by how much, cases that recovered a flow from TCPStore — with
# the committed results/failure_sweep.txt, byte for byte.
sweep_out="$(mktemp)"
cargo test --release -q --test failure_matrix -- --ignored --nocapture \
    | sed -n 's/^.*sweep: //p' > "$sweep_out"
if ! cmp -s "$sweep_out" results/failure_sweep.txt; then
    echo "failure sweep drift: summary differs from results/failure_sweep.txt" >&2
    diff results/failure_sweep.txt "$sweep_out" >&2 || true
    rm -f "$sweep_out"
    exit 1
fi
rm -f "$sweep_out"
echo "failure sweep: byte-identical to results/failure_sweep.txt"

echo "==> controller model, two verdicts deeper"
# Tier-1 checks every sequence of up to K monitor verdicts against the
# model (tests/controller_model.rs); this runs K + 2 and prints the
# count of distinct states it reached.
cargo test --release -q --test controller_model -- --ignored --nocapture \
    | grep "controller model:"

echo "==> flow index model, longer"
# Tier-1 drives the instance's FlowIndex through 64 seeded sequences of
# 300 ops against a BTreeMap model (tests/flow_index_model.rs); this runs
# 50 times as many sequences and prints the op count it reached.
cargo test --release -q --test flow_index_model -- --ignored --nocapture \
    | grep "flow index model:"

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
# simulation-driven figure must reproduce its committed bytes exactly.
scripts/figures.sh

echo "==> all checks passed"
