#!/usr/bin/env bash
# Where two builds differ on the failure sweep, case by case:
#
#   scripts/sweep_diff.sh A_DIR B_DIR
#
# A_DIR and B_DIR are cargo target directories that already hold
# release/run (A = parent, B = change); nothing is built here:
#
#   CARGO_TARGET_DIR=A_DIR cargo build --release --offline -p yoda-bench --bin run
#
# Runs `run --sweep` from each (every step of every flow shape under every
# fault, ~1 min a side on 2 cores) and prints one line per sweep row
# (shape, fault): its cases, the cases whose end time moved, and the
# median, p90 and max of |Δ end| over the moved cases, in ms. Cases that
# only one side ran (a reference run that changed length) are counted
# apart. A change that moves simulated events attaches this table
# (DESIGN.md "Digests").
set -euo pipefail

if [[ $# -ne 2 ]]; then
    sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
    exit 2
fi

a="$(mktemp)" b="$(mktemp)"
trap 'rm -f "$a" "$b"' EXIT
"$1/release/run" --sweep > "$a"
"$2/release/run" --sweep > "$b"

# Each case of B as `row-index row |Δ end| µs` (-1 when A lacks it), then
# each case only A ran as `row-index row -2`.
awk '
    function row(c,   p) { split(c, p, "/"); return p[2] "/" p[3] }
    NR == FNR { end[$1] = $2; next }
    {
        r = row($1)
        if (!(r in index_of)) index_of[r] = rows++
        if ($1 in end) {
            d = ($2 - end[$1]) * 1e6
            if (d < 0) d = -d
            printf "%d %s %.0f\n", index_of[r], r, d
            delete end[$1]
        } else {
            printf "%d %s -1\n", index_of[r], r
        }
    }
    END {
        for (c in end) {
            r = row(c)
            printf "%d %s -2\n", (r in index_of) ? index_of[r] : rows, r
        }
    }
' "$a" "$b" | sort -k1,1n -k3,3n | awk '
    function at(q,   i) { i = int(q * moved + 0.999999); if (i < 1) i = 1; return d[i] / 1000 }
    function flush() {
        if (r == "") return
        if (moved == 0) { med = p90 = max = 0 } else { med = at(0.5); p90 = at(0.9); max = d[moved] / 1000 }
        printf "%-32s %6d cases %6d moved  |d| median %9.3f  p90 %9.3f  max %9.3f ms", r, n, moved, med, p90, max
        if (only_a + only_b) printf "  (%d only in A, %d only in B)", only_a, only_b
        printf "\n"
    }
    $2 != r { flush(); r = $2; n = moved = only_a = only_b = 0 }
    $3 == -2 { only_a++; next }
    $3 == -1 { only_b++; next }
    { n++; if ($3 > 0) d[++moved] = $3 }
    END { flush() }
'
