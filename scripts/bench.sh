#!/bin/sh
# Runs the serving-hot-loop benchmark families with -benchmem, five times
# each (-count 5), and writes BENCH_serve.json: a header naming the host
# (commit, Go version, GOOS/GOARCH, CPU model, nproc, GOMAXPROCS, date,
# benchtime and count), then one row per benchmark with the median ns/op
# and its min and max over the five runs, the median B/op, the median and
# max allocs/op, and for E20 the median bytes/epoch. Exits non-zero on any
# regression gate; the ratio gates read the medians:
#
#   - zero-allocation contract: any run of BenchmarkQuery* (internal/core,
#     internal/store), BenchmarkEncode* (internal/server), or
#     BenchmarkLocate* (internal/grid) reporting a nonzero allocs/op — that
#     contract is what the read path's latency depends on;
#   - maintenance contract: BenchmarkUpdateIncremental not at least 3x
#     faster than BenchmarkUpdateFullRebuild (internal/core) — incremental
#     maintenance regressing toward rebuild-shaped costs (the measured
#     headroom is ~8x; see EXPERIMENTS.md E18 for the serving-layer
#     write-throughput figure);
#   - write-path allocation contract: BenchmarkUpdateChained (each op
#     derived from the previous set, compacting every 20 ops, as the
#     server's coalesce leader drives it) not allocating fewer B/op than
#     BenchmarkUpdateIncremental (every op pair re-derived from one base, so
#     each insert forks the base's claimed tables) — the interned result
#     tables no longer growing their arenas in place;
#   - point-location contract: BenchmarkLocateRank not strictly faster than
#     BenchmarkLocateBinary (internal/grid) — the O(1) rank table regressing
#     to binary-search cost (the measured headroom is ~9x);
#   - durability contract: WAL-on write throughput (group commit: one fsync
#     per coalesced batch) more than 2x slower than WAL-off at writers=1 in
#     BenchmarkE18_WriteThroughput — the group-commit window failing to
#     amortize the fsync;
#   - replication contract: delta snapshot catch-up in
#     BenchmarkE20_ReplicationBytes not moving at least 5x fewer bytes per
#     epoch than the full stream on the trailing-edge churn workload (the
#     measured headroom is ~145x; see EXPERIMENTS.md E20);
#   - router hop contract: a loopback quadrant read through a default-Config
#     router (BenchmarkReadRouted, internal/router) costing more than 80
#     allocs/op over the same read sent straight to the builder
#     (BenchmarkReadDirect) — the hop's per-read allocations creeping back
#     (the measured hop is 73 allocs/op; see docs/PERFORMANCE.md, "The
#     routed read"). These two allocate by design (HTTP on both ends), so
#     they run on their own line, outside the zero-allocation contract.
#
# BenchmarkBuildScanning (internal/quaddiag: Algorithm 3 at n=400 and 1024,
# on one worker and on GOMAXPROCS) rides on the first line as a build-time
# ledger row under no gate.
#
#   ./scripts/bench.sh              # full run, writes BENCH_serve.json
#   BENCHTIME=10x ./scripts/bench.sh  # quick smoke (CI uses this)
set -eu
cd "$(dirname "$0")/.."

out=${1:-BENCH_serve.json}
benchtime=${BENCHTIME:-1s}
count=5
tmp=$(mktemp)
trap 'rm -f "$tmp" "$tmp.body"' EXIT

commit=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
if [ "$commit" != unknown ] && [ -n "$(git status --porcelain 2>/dev/null)" ]; then
    commit="$commit-dirty"
fi
cpu=$(sed -n 's/^model name[[:space:]]*: *//p' /proc/cpuinfo 2>/dev/null | head -n 1)
nproc=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)
header=$(printf '{"commit": "%s", "go": "%s", "goos": "%s", "goarch": "%s", "cpu": "%s", "nproc": %s, "gomaxprocs": %s, "date": "%s", "benchtime": "%s", "count": %s}' \
    "$commit" "$(go env GOVERSION)" "$(go env GOOS)" "$(go env GOARCH)" "${cpu:-unknown}" \
    "$nproc" "${GOMAXPROCS:-$nproc}" "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$benchtime" "$count")
echo "== host $header"

echo "== bench (benchtime=$benchtime, count=$count)"
go test -run '^$' -bench 'BenchmarkQuery|BenchmarkEncode|BenchmarkUpdate|BenchmarkLocate|BenchmarkBuildScanning' -benchmem \
    -benchtime "$benchtime" -count "$count" ./internal/core/ ./internal/store/ ./internal/server/ ./internal/grid/ ./internal/quaddiag/ | tee "$tmp"

# E18 runs 120 iterations whatever BENCHTIME says, as E20 runs its own
# count: op i writes at ((13i mod 800)+0.25, (29i mod 800)+0.25), so a run
# of another length writes other cells, and its B/op would move with the
# iteration count rather than with the code.
echo "== bench E18 write throughput (WAL gate, 120x)"
go test -run '^$' -bench 'BenchmarkE18_WriteThroughput/(incremental|wal)/writers=1$' -benchmem \
    -benchtime 120x -count "$count" . | tee -a "$tmp"

echo "== bench routed read (router hop gate)"
go test -run '^$' -bench 'BenchmarkRead(Routed|Direct)$' -benchmem \
    -benchtime "$benchtime" -count "$count" ./internal/router/ | tee -a "$tmp"

echo "== bench E20 replication bytes (delta gate)"
go test -run '^$' -bench 'BenchmarkE20_ReplicationBytes' -benchmem \
    -benchtime "${E20_BENCHTIME:-10x}" -count "$count" . | tee -a "$tmp"

awk '
# median of the k values v[1..k], sorted in place (k is small).
function median(v, k,    i, j, x) {
    for (i = 2; i <= k; i++) {
        x = v[i]
        for (j = i - 1; j >= 1 && v[j] + 0 > x + 0; j--) v[j+1] = v[j]
        v[j+1] = x
    }
    return k % 2 ? v[(k+1)/2] : (v[k/2] + v[k/2+1]) / 2
}
/^Benchmark/ && /allocs\/op/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    if (!(name in runs)) order[++names] = name
    r = ++runs[name]
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")       ns[name, r] = $(i-1)
        if ($i == "B/op")        bytes[name, r] = $(i-1)
        if ($i == "allocs/op")   allocs[name, r] = $(i-1)
        if ($i == "bytes/epoch") bpe[name, r] = $(i-1)
    }
}
END {
    for (n = 1; n <= names; n++) {
        name = order[n]
        k = runs[name]
        delete v; for (r = 1; r <= k; r++) v[r] = ns[name, r]
        nsMed = median(v, k); nsMin = v[1]; nsMax = v[k]
        delete v; for (r = 1; r <= k; r++) v[r] = bytes[name, r]
        bMed = median(v, k)
        delete v; for (r = 1; r <= k; r++) v[r] = allocs[name, r]
        aMed = median(v, k); aMax = v[k]
        bpeMed = ""
        if ((name, 1) in bpe) {
            delete v; for (r = 1; r <= k; r++) v[r] = bpe[name, r]
            bpeMed = median(v, k)
        }
        if (n > 1) printf ",\n"
        printf "  {\"name\": \"%s\", \"runs\": %d, \"ns_per_op\": %s, \"ns_per_op_min\": %s, \"ns_per_op_max\": %s, \"b_per_op\": %s, \"allocs_per_op\": %s, \"allocs_per_op_max\": %s", \
            name, k, nsMed, nsMin, nsMax, bMed, aMed, aMax
        if (bpeMed != "") printf ", \"bytes_per_epoch\": %s", bpeMed
        printf "}"
        if (name ~ /^(BenchmarkQuery|BenchmarkEncode|BenchmarkLocate)/ && aMax + 0 > 0) {
            bad = bad name " (" aMax " allocs/op in some run) "
        }
        if (name == "BenchmarkUpdateIncremental")  { inc = nsMed; incB = bMed }
        if (name == "BenchmarkUpdateChained")     chainB = bMed
        if (name == "BenchmarkUpdateFullRebuild") full = nsMed
        if (name == "BenchmarkLocateRank")   rank = nsMed
        if (name == "BenchmarkLocateBinary") bin = nsMed
        if (name == "BenchmarkE18_WriteThroughput/incremental/writers=1") walOff = nsMed
        if (name == "BenchmarkE18_WriteThroughput/wal/writers=1")         walOn = nsMed
        if (name == "BenchmarkE20_ReplicationBytes/full")  fullBpe = bpeMed
        if (name == "BenchmarkE20_ReplicationBytes/delta") deltaBpe = bpeMed
        if (name == "BenchmarkReadRouted") routedA = aMed
        if (name == "BenchmarkReadDirect") directA = aMed
    }
    printf "\n"
    if (bad != "") { print "REGRESSION: " bad > "/dev/stderr"; exit 1 }
    if (inc + 0 > 0 && full + 0 > 0 && inc * 3 > full) {
        printf "REGRESSION: incremental update %s ns/op vs %s ns/op rebuild (medians; want >=3x faster)\n", \
            inc, full > "/dev/stderr"
        exit 1
    }
    if (incB + 0 > 0 && chainB + 0 > 0 && chainB + 0 >= incB + 0) {
        printf "REGRESSION: chained update %s B/op vs %s B/op re-derived from one base (medians; claimed tables must grow in place)\n", \
            chainB, incB > "/dev/stderr"
        exit 1
    }
    if (rank + 0 > 0 && bin + 0 > 0 && rank + 0 >= bin + 0) {
        printf "REGRESSION: rank-table locate %s ns/op vs %s ns/op binary search (medians; rank must win)\n", \
            rank, bin > "/dev/stderr"
        exit 1
    }
    if (walOn + 0 > 0 && walOff + 0 > 0 && walOn + 0 > 2 * walOff) {
        printf "REGRESSION: WAL-on write %s ns/op vs %s ns/op WAL-off (medians; group commit must stay within 2x)\n", \
            walOn, walOff > "/dev/stderr"
        exit 1
    }
    if (fullBpe + 0 > 0 && deltaBpe + 0 > 0 && deltaBpe * 5 > fullBpe + 0) {
        printf "REGRESSION: delta catch-up ships %s bytes/epoch vs %s full (medians; want >=5x fewer)\n", \
            deltaBpe, fullBpe > "/dev/stderr"
        exit 1
    }
    if (routedA + 0 > 0 && directA + 0 > 0 && routedA - directA > 80) {
        printf "REGRESSION: the router hop costs %d allocs/op (routed %s, direct %s; medians; want <= 80)\n", \
            routedA - directA, routedA, directA > "/dev/stderr"
        exit 1
    }
}' "$tmp" > "$tmp.body"

{
    echo "{"
    echo "\"header\": $header,"
    echo "\"benchmarks\": ["
    cat "$tmp.body"
    echo "]"
    echo "}"
} > "$out"
echo "wrote $out"
