#!/bin/sh
# Runs the serving-hot-loop benchmark families with -benchmem and writes the
# results to BENCH_serve.json ({name, ns_per_op, b_per_op, allocs_per_op}
# per benchmark). Exits non-zero on either regression gate:
#
#   - zero-allocation contract: any BenchmarkQuery* (internal/core),
#     BenchmarkEncode* (internal/server), or BenchmarkLocate* (internal/grid)
#     reporting a nonzero allocs/op — that contract is what the read path's
#     latency depends on;
#   - maintenance contract: BenchmarkUpdateIncremental not at least 3x
#     faster than BenchmarkUpdateFullRebuild (internal/core) — incremental
#     maintenance regressing toward rebuild-shaped costs (the measured
#     headroom is ~15x; see EXPERIMENTS.md E18 for the serving-layer
#     write-throughput figure);
#   - write-path allocation contract: BenchmarkUpdateChained (each op
#     derived from the previous set, compacting every 20 ops, as the
#     server's coalesce leader drives it) not allocating fewer B/op than
#     BenchmarkUpdateIncremental (every op pair re-derived from one base, so
#     each insert forks the base's claimed tables) — the interned result
#     tables no longer growing their arenas in place (measured ~10.2 vs
#     ~15.0 MB/op);
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
#     measured headroom is ~145x; see EXPERIMENTS.md E20).
#
#   ./scripts/bench.sh              # full run, writes BENCH_serve.json
#   BENCHTIME=10x ./scripts/bench.sh  # quick smoke (CI uses this)
set -eu
cd "$(dirname "$0")/.."

out=${1:-BENCH_serve.json}
benchtime=${BENCHTIME:-1s}
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

echo "== bench (benchtime=$benchtime)"
go test -run '^$' -bench 'BenchmarkQuery|BenchmarkEncode|BenchmarkUpdate|BenchmarkLocate' -benchmem \
    -benchtime "$benchtime" ./internal/core/ ./internal/server/ ./internal/grid/ | tee "$tmp"

echo "== bench E18 write throughput (WAL gate)"
go test -run '^$' -bench 'BenchmarkE18_WriteThroughput/(incremental|wal)/writers=1$' -benchmem \
    -benchtime "$benchtime" . | tee -a "$tmp"

echo "== bench E20 replication bytes (delta gate)"
go test -run '^$' -bench 'BenchmarkE20_ReplicationBytes' -benchmem \
    -benchtime "${E20_BENCHTIME:-10x}" . | tee -a "$tmp"

awk '
/^Benchmark/ && /allocs\/op/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    bpe = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")       ns = $(i-1)
        if ($i == "B/op")        bytes = $(i-1)
        if ($i == "allocs/op")   allocs = $(i-1)
        if ($i == "bytes/epoch") bpe = $(i-1)
    }
    if (n++) printf ",\n"
    printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"b_per_op\": %s, \"allocs_per_op\": %s", \
        name, ns, bytes, allocs
    if (bpe != "") printf ", \"bytes_per_epoch\": %s", bpe
    printf "}"
    if (name ~ /^(BenchmarkQuery|BenchmarkEncode|BenchmarkLocate)/ && allocs + 0 > 0) {
        bad = bad name " (" allocs " allocs/op) "
    }
    if (name == "BenchmarkUpdateIncremental")  { inc = ns; incB = bytes }
    if (name == "BenchmarkUpdateChained")     chainB = bytes
    if (name == "BenchmarkUpdateFullRebuild") full = ns
    if (name == "BenchmarkLocateRank")   rank = ns
    if (name == "BenchmarkLocateBinary") bin = ns
    if (name == "BenchmarkE18_WriteThroughput/incremental/writers=1") walOff = ns
    if (name == "BenchmarkE18_WriteThroughput/wal/writers=1")         walOn = ns
    if (name == "BenchmarkE20_ReplicationBytes/full")  fullBpe = bpe
    if (name == "BenchmarkE20_ReplicationBytes/delta") deltaBpe = bpe
}
END {
    printf "\n"
    if (bad != "") { print "REGRESSION: " bad > "/dev/stderr"; exit 1 }
    if (inc + 0 > 0 && full + 0 > 0 && inc * 3 > full) {
        printf "REGRESSION: incremental update %s ns/op vs %s ns/op rebuild (want >=3x faster)\n", \
            inc, full > "/dev/stderr"
        exit 1
    }
    if (incB + 0 > 0 && chainB + 0 > 0 && chainB + 0 >= incB + 0) {
        printf "REGRESSION: chained update %s B/op vs %s B/op re-derived from one base (claimed tables must grow in place)\n", \
            chainB, incB > "/dev/stderr"
        exit 1
    }
    if (rank + 0 > 0 && bin + 0 > 0 && rank + 0 >= bin + 0) {
        printf "REGRESSION: rank-table locate %s ns/op vs %s ns/op binary search (rank must win)\n", \
            rank, bin > "/dev/stderr"
        exit 1
    }
    if (walOn + 0 > 0 && walOff + 0 > 0 && walOn + 0 > 2 * walOff) {
        printf "REGRESSION: WAL-on write %s ns/op vs %s ns/op WAL-off (group commit must stay within 2x)\n", \
            walOn, walOff > "/dev/stderr"
        exit 1
    }
    if (fullBpe + 0 > 0 && deltaBpe + 0 > 0 && deltaBpe * 5 > fullBpe + 0) {
        printf "REGRESSION: delta catch-up ships %s bytes/epoch vs %s full (want >=5x fewer)\n", \
            deltaBpe, fullBpe > "/dev/stderr"
        exit 1
    }
}' "$tmp" > "$tmp.body" || { rm -f "$tmp.body"; exit 1; }

{
    echo "["
    cat "$tmp.body"
    echo "]"
} > "$out"
rm -f "$tmp.body"
echo "wrote $out"
