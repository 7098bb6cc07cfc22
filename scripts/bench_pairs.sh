#!/usr/bin/env bash
# Alternating parent/change pairs of bench_e2e in driver form — the
# protocol every perf PR's claim is judged by (EXPERIMENTS.md "Ledger"):
#
#   scripts/bench_pairs.sh A_DIR B_DIR WORKLOAD PAIRS SEED0
#
# A_DIR and B_DIR are cargo target directories that already hold
# release/bench_e2e (A = parent, B = change); nothing is built here:
#
#   CARGO_TARGET_DIR=A_DIR cargo build --release --offline \
#       --manifest-path crates/bench/src/bin/bench_e2e/Cargo.toml
#
# Pair i runs both sides on seed SEED0+i with
# `--workload W --seed S --seconds 15 --trace 0`; odd pairs run A first,
# even pairs B first. Prints each pair's wall_req_per_s, then, for every
# end-to-end metric of BENCHMARK.json, per-side medians and quartiles,
# B's wins and two verdicts:
#
# * a claim verdict — "gain shown" when B is better in at least 9 of
#   every 10 pairs (ties count for neither) and its median differs from
#   A's by more than A's q3 - q1, else "not shown": the rule a claimed
#   gain must pass;
# * a no-regression verdict against the metric's `bound` in
#   BENCHMARK.json (read, never written) — "worse" when B's median is
#   worse than A's by more than bound x A's median, else "unresolved"
#   when A's q3 - q1 is wider than bound x A's median (unless every B run
#   beats every A run), else "no worse": the rule every change must pass.
#
# Then two run verdicts:
# whether every run passed the benchmark's own output checks (required:
# the script exits non-zero otherwise),
# and whether every sim_* value and the failed-request count were equal
# in every pair (reported: they must be for a change that claims to move
# no event, and will not be for one that moves sim_* on purpose).
set -euo pipefail

if [[ $# -ne 5 ]]; then
    sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
    exit 2
fi
bench_json="$(dirname "$0")/../BENCHMARK.json"
# `name bound` per end-to-end metric (the only entries with a bound).
bounds="$(awk -F': ' '/"name"/ { gsub(/[",]/, "", $2); name = $2 }
    /"bound"/ { gsub(/,/, "", $2); print name, $2 }' "$bench_json")"
a_bin="$1/release/bench_e2e"
b_bin="$2/release/bench_e2e"
workload="$3"
pairs="$4"
seed0="$5"
for bin in "$a_bin" "$b_bin"; do
    [[ -x "$bin" ]] || { echo "bench_pairs: no executable $bin" >&2; exit 2; }
done

# The value of metric $2 in report line $1.
metric() { grep -o "\"$2\": {\"value\": [0-9.e+-]*" <<< "$1" | grep -o '[0-9.e+-]*$'; }
run() { "$1" --workload "$workload" --seed "$2" --seconds 15 --trace 0 2>/dev/null | tail -1; }

rows="$(mktemp)"
verdicts="$(mktemp)"
trap 'rm -f "$rows" "$verdicts"' EXIT
correct=yes
sim_equal=yes
printf '%-6s %-6s %14s %14s %8s\n' pair seed A_wall_req/s B_wall_req/s B/A
for ((i = 0; i < pairs; i++)); do
    seed=$((seed0 + i))
    if ((i % 2 == 0)); then
        a="$(run "$a_bin" "$seed")"; b="$(run "$b_bin" "$seed")"
    else
        b="$(run "$b_bin" "$seed")"; a="$(run "$a_bin" "$seed")"
    fi
    for m in sim_p50_ms sim_p99_ms sim_req_per_s sim_ok_ratio; do
        [[ "$(metric "$a" $m)" == "$(metric "$b" $m)" ]] || sim_equal=no
    done
    for side in "$a" "$b"; do
        grep -q '"correct": true' <<< "$side" || { correct=no; echo "  seed $seed: a run did not report \"correct\": true" >&2; }
    done
    fa="$(grep -o '"failed": [0-9]*' <<< "$a")"; fb="$(grep -o '"failed": [0-9]*' <<< "$b")"
    [[ "$fa" == "$fb" ]] || sim_equal=no
    echo "$(metric "$a" wall_req_per_s) $(metric "$b" wall_req_per_s)" \
         "$(metric "$a" setup_s) $(metric "$b" setup_s)" \
         "$(metric "$a" peak_rss_mb) $(metric "$b" peak_rss_mb) ${fa##* } ${fb##* }" \
         "$(metric "$a" sim_req_per_s) $(metric "$b" sim_req_per_s)" \
         "$(metric "$a" sim_p50_ms) $(metric "$b" sim_p50_ms)" \
         "$(metric "$a" sim_p99_ms) $(metric "$b" sim_p99_ms)" \
         "$(metric "$a" sim_ok_ratio) $(metric "$b" sim_ok_ratio)" >> "$rows"
    tail -1 "$rows" | awk -v p=$((i + 1)) -v s="$seed" \
        '{ printf "%-6d %-6d %14.1f %14.1f %8.3f\n", p, s, $1, $2, $2 / $1 }'
done

# Quartiles by linear interpolation between order statistics.
summary() { # column-of-A column-of-B name higher-is-better
    local bound
    bound="$(awk -v m="$3" '$1 == m { print $2 }' <<< "$bounds")"
    [[ -n "$bound" ]] || { echo "bench_pairs: no bound for $3 in $bench_json" >&2; exit 2; }
    awk -v ca="$1" -v cb="$2" -v name="$3" -v hib="$4" -v bound="$bound" -v out="$verdicts" '
        function q(v, n, p,   h, lo) { h = (n - 1) * p + 1; lo = int(h); return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
        function sorted(src, dst, n,   i, j, t) { for (i = 1; i <= n; i++) dst[i] = src[i]
            for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t } }
        { n++; a[n] = $ca; b[n] = $cb
          if (hib ? $cb > $ca : $cb < $ca) wins++; else if ($cb == $ca) ties++ }
        END { sorted(a, sa, n); sorted(b, sb, n)
              gap = q(sb, n, .5) - q(sa, n, .5); if (gap < 0) gap = -gap
              shown = 10 * wins >= 9 * n && gap > q(sa, n, .75) - q(sa, n, .25)
              printf "%-15s A median %10.3f  [q1 %10.3f  q3 %10.3f]\n", name, q(sa, n, .5), q(sa, n, .25), q(sa, n, .75)
              printf "%-15s B median %10.3f  [q1 %10.3f  q3 %10.3f]  B/A %.3f  B better in %d of %d (ties %d)  %s\n", "",
                     q(sb, n, .5), q(sb, n, .25), q(sb, n, .75), q(sb, n, .5) / q(sa, n, .5), wins, n, ties,
                     shown ? "gain shown" : "not shown"
              worse_by = hib ? q(sa, n, .5) - q(sb, n, .5) : q(sb, n, .5) - q(sa, n, .5)
              limit = bound * q(sa, n, .5); if (limit < 0) limit = -limit
              all_beat = hib ? sb[1] > sa[n] : sb[n] < sa[1]
              verdict = worse_by > limit ? "worse" \
                  : q(sa, n, .75) - q(sa, n, .25) > limit && !all_beat ? "unresolved" : "no worse"
              printf "%-15s no-regression (bound %g): %s\n", "", bound, verdict
              print name ": " verdict >> out }' "$rows"
}
echo "--- $workload, $pairs pairs, seeds $seed0..$((seed0 + pairs - 1))"
summary 1 2 wall_req_per_s 1
summary 3 4 setup_s 0
summary 5 6 peak_rss_mb 0
summary 9 10 sim_req_per_s 1
summary 11 12 sim_p50_ms 0
summary 13 14 sim_p99_ms 0
summary 15 16 sim_ok_ratio 1
awk '{ fa += $7; fb += $8 } END { printf "failed requests: A %d, B %d\n", fa, fb }' "$rows"
echo "all runs correct: $correct"
echo "sim_* and failed counts equal in every pair: $sim_equal"
if grep -q ': worse$' "$verdicts"; then overall=worse
elif grep -q ': unresolved$' "$verdicts"; then overall=unresolved
else overall="no worse"; fi
echo "no-regression verdict: $overall ($(grep -cv ': no worse$' "$verdicts" || true) of $(wc -l < "$verdicts") metrics not \"no worse\")"
[[ "$correct" == yes ]]
