#!/usr/bin/env bash
# End-to-end serving benchmark: builds the bench program from this checkout
# and runs it.
#
#   bench/run.sh --workload read-routed --seed 3 --seconds 20 --trace 0
#       one run of one workload; the last stdout line is the JSON result
#   bench/run.sh
#       the whole suite: 10 untraced runs (seeds 1..10) plus one traced run
#       per workload, each measuring run_seconds from BENCHMARK.json, written
#       to bench/results/<run>/ (or $OUT) with a summary and the latency
#       budget; exits non-zero on any failed or wrong answer
#   bench/run.sh -compare A/summary.json B/summary.json
#       per metric x workload medians, quartiles and verdicts against the
#       bounds in BENCHMARK.json
#
# Everything the build and the runs write stays inside the checkout, under
# .bench_build/ (Go build cache, binary, scratch directories).
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
export GOMAXPROCS="${GOMAXPROCS:-$(nproc)}"

bin="$build/skybench-e2e"
(cd "$root/bench" && go build -o "$bin" .)

commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
if [ "$commit" != unknown ] && [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
    commit="$commit-dirty"
fi
export SKYBENCH_COMMIT="$commit"

if [ $# -gt 0 ]; then
    exec "$bin" "$@"
fi

# Ten runs per workload: the fewest the comparison rule accepts.
runs=10
workloads=(read-routed batch-kinds write-durable replica-catchup)
secs=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
out=${OUT:-bench/results/$(date -u +%Y%m%d-%H%M%S)-$commit}
mkdir -p "$out"

# Workloads take turns, so a drift in host speed during the suite spreads
# over all of them instead of landing on one.
status=0
for seed in $(seq 1 "$runs"); do
    for wl in "${workloads[@]}"; do
        "$bin" --workload "$wl" --seed "$seed" --seconds "$secs" --trace 0 --out "$out" || status=1
    done
done
for wl in "${workloads[@]}"; do
    "$bin" --workload "$wl" --seed 1 --seconds "$secs" --trace 1 --out "$out" || status=1
done
"$bin" -summarize "$out" || status=1
exit $status
