#!/usr/bin/env bash
# Single-thread cold-route perf smoke.
#
# Reads the RA1000 `threads = 1` row out of a freshly generated
# BENCH_pipeline.json and fails when its route stage exceeds a wall-time
# ceiling. The default ceiling (0.5 s) is about 7x the routinely measured
# time (0.05-0.07 s on a 2-core host): headroom for a slow shared runner,
# tight enough to catch an accidentally quadratic path, a lost oracle, a
# search that stopped pruning.
#
# Usage: ci/check_pipeline_perf.sh <BENCH_pipeline.json> [ceiling-seconds]
set -euo pipefail

artifact="${1:?usage: check_pipeline_perf.sh <BENCH_pipeline.json> [ceiling-seconds]}"
ceiling="${2:-0.5}"

route=$(awk '
  /"assay": "RA1000"/ { in_row = 1 }
  in_row && /"threads":/ { threads = $2 + 0 }
  in_row && /"route_seconds":/ {
    if (threads == 1) { print $2 + 0; exit }
    in_row = 0
  }
' "$artifact" | tr -d ',')

if [ -z "$route" ]; then
  echo "$artifact: no RA1000 threads=1 row found" >&2
  exit 1
fi

echo "RA1000 cold route (1 thread): ${route}s (ceiling ${ceiling}s)"
awk -v r="$route" -v c="$ceiling" 'BEGIN { exit !(r <= c) }' || {
  echo "single-thread RA1000 route regressed past the ${ceiling}s ceiling" >&2
  exit 1
}
