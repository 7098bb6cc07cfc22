#!/usr/bin/env bash
# Live heap by block size at the end of a bench_e2e measurement window
# (DESIGN.md "What holds the memory"):
#
#   scripts/heap_census.sh WORKLOAD [SEED]
#
# Builds the LD_PRELOAD shim scripts/heap_census.c with `cc` and the
# release bench_e2e, runs `bench_e2e --child plain --workload WORKLOAD
# --seed SEED` (seed 42 by default) with the shim preloaded, and prints
# the blocks live at the child's second read of /proc/self/status, which
# is the end of its window: one row per usable block size, largest
# holding first, then the total. A block's usable size is what
# malloc_usable_size reports (the request rounded up to the allocator's
# chunk, less its 8-byte header). Name structures by size and count: a
# FlowTable of b buckets of T bytes is one block of b*T + b + 16, a slab
# page 256 entries. HEAP_CENSUS_AT=1 takes the census at window start
# instead, ROWS the number of rows (default 25).
#
# Building bench_e2e in place rewrites its committed Cargo.lock; restore
# it with `git checkout crates/bench/src/bin/bench_e2e/Cargo.lock`.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 1 || $# -gt 2 ]]; then
    sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
    exit 2
fi
workload="$1"
seed="${2:-42}"
out="target/heap_census"
mkdir -p "$out"
cc -O2 -shared -fPIC -o "$out/heap_census.so" scripts/heap_census.c
bin="$(cargo build --release --offline --quiet --message-format=json \
           --manifest-path crates/bench/src/bin/bench_e2e/Cargo.toml \
       | grep -o '"executable":"[^"]*bench_e2e"' | cut -d'"' -f4)"
dump="$out/$workload-$seed.txt"
rm -f "$dump"
HEAP_CENSUS_OUT="$dump" LD_PRELOAD="$PWD/$out/heap_census.so" \
    "$bin" --child plain --workload "$workload" --seed "$seed" > /dev/null
[[ -s "$dump" ]] || { echo "heap_census: the child wrote no census" >&2; exit 1; }

echo "live heap of bench_e2e --child plain --workload $workload --seed $seed," \
     "read ${HEAP_CENSUS_AT:-2} of /proc/self/status"
awk '{ printf "%d %d %d\n", $1 * $2, $1, $2 }' "$dump" | sort -nr | awk -v rows="${ROWS:-25}" '
    BEGIN { printf "%10s %8s %12s\n", "MiB", "blocks", "usable size" }
    { total += $1; blocks += $3
      if (NR <= rows) printf "%10.3f %8d %12d\n", $1 / 1048576, $3, $2
      else rest += $1 }
    END { printf "%10.3f %8s %12s\n", rest / 1048576, "", "(the rest)"
          printf "%10.3f %8d %12s\n", total / 1048576, blocks, "total" }'
