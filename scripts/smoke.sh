#!/bin/sh
# Smoke-runs every example and CLI path end to end. Used in addition to
# `go test ./...`; exits non-zero on the first failure.
set -eu
cd "$(dirname "$0")/.."

echo "== examples"
go run ./examples/quickstart >/dev/null
go run ./examples/hotelfinder >/dev/null
go run ./examples/nba >/dev/null
go run ./examples/private-queries >/dev/null
go run ./examples/moving-query >/dev/null
go run ./examples/disk-store >/dev/null
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
(cd "$tmp" && go run -C "$OLDPWD" ./examples/voronoi-vs-skyline >/dev/null)

echo "== skydiag"
go run ./cmd/skydiag gen -n 60 -dist anti -domain 64 -o "$tmp/pts.csv"
go run ./cmd/skydiag build -in "$tmp/pts.csv" -kind quadrant >/dev/null
go run ./cmd/skydiag build -in "$tmp/pts.csv" -kind global >/dev/null
go run ./cmd/skydiag build -in "$tmp/pts.csv" -kind dynamic >/dev/null
go run ./cmd/skydiag query -in "$tmp/pts.csv" -q 10.5,20.5 >/dev/null
go run ./cmd/skydiag svg -kind sweeping -o "$tmp/s.svg"
go run ./cmd/skydiag save -o "$tmp/d.sky" >/dev/null
go run ./cmd/skydiag serve-file -in "$tmp/d.sky" -q 10,80 >/dev/null
go run ./cmd/skydiag influence -id 11 >/dev/null
go run ./cmd/skydiag trajectory -waypoints "2,70;30,95" >/dev/null

echo "== skybench"
go run ./cmd/skybench -quick -exp E6 >/dev/null
go run ./cmd/skybench -quick -exp E1 -plotdir "$tmp/figs" >/dev/null
test -s "$tmp/figs/E1.svg"
go run ./cmd/skybench -quick -exp E6 -metricsout "$tmp/build.prom" >/dev/null 2>&1
grep -q 'skydiag_build_seconds_bucket' "$tmp/build.prom"

echo "== skyserve"
go build -o "$tmp/skyserve" ./cmd/skyserve
"$tmp/skyserve" -addr 127.0.0.1:18080 -pprof -workers 2 >/dev/null &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
for i in $(seq 1 50); do
    curl -fsS http://127.0.0.1:18080/healthz >/dev/null 2>&1 && break
    sleep 0.1
done
curl -fsS 'http://127.0.0.1:18080/v1/skyline?kind=global&x=10&y=80' | grep -q '"ids"'
curl -fsS -d '{"kind":"quadrant","queries":[[10,80],[20,30]]}' \
    http://127.0.0.1:18080/v1/skyline/batch | grep -q '"count":2'
curl -fsS http://127.0.0.1:18080/metrics | grep -q 'skyserve_http_requests_total'
curl -fsS http://127.0.0.1:18080/v1/stats | grep -q '"uptime_seconds"'
curl -fsS http://127.0.0.1:18080/debug/pprof/cmdline >/dev/null
# unknown kind must be a JSON 400, not an empty 200
code=$(curl -s -o /dev/null -w '%{http_code}' 'http://127.0.0.1:18080/v1/skyline?kind=nope&x=1&y=1')
test "$code" = "400"

echo "== skyload (insert/delete under read load)"
go run ./cmd/skyload -addr http://127.0.0.1:18080 -c 4 -duration 2s -writes 0.25 \
    | tee "$tmp/load.txt" | grep -q 'throughput'
# the write mix must actually have exercised the update path...
grep -Eq 'writes: [1-9]' "$tmp/load.txt"
grep -q 'errors: 0' "$tmp/load.txt"
# ...and left its telemetry behind
curl -fsS http://127.0.0.1:18080/metrics | grep -q 'skyserve_rebuild_seconds'
curl -fsS http://127.0.0.1:18080/metrics | grep -q 'skyserve_update_queue_depth'
curl -fsS http://127.0.0.1:18080/v1/stats | grep -q '"update_queue_depth"'
# skyload deletes its synthetic points on exit: the dataset is back to 11
curl -fsS http://127.0.0.1:18080/v1/stats | grep -q '"points":11'
kill -TERM "$serve_pid"
wait "$serve_pid" 2>/dev/null || true

echo "== overload (tiny limits + injected latency: shed 429s, liveness green)"
"$tmp/skyserve" -addr 127.0.0.1:18081 -max-inflight 1 -max-queue 1 \
    -faults 'server.query=latency:30ms' >/dev/null 2>&1 &
over_pid=$!
trap 'kill "$serve_pid" "$over_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
for i in $(seq 1 50); do
    curl -fsS http://127.0.0.1:18081/healthz >/dev/null 2>&1 && break
    sleep 0.1
done
go run ./cmd/skyload -addr http://127.0.0.1:18081 -c 8 -duration 2s \
    | tee "$tmp/flood.txt" | grep -q 'throughput'
# the flood must have been shed (not errored)...
grep -Eq 'shed: [1-9]' "$tmp/flood.txt"
grep -q 'errors: 0' "$tmp/flood.txt"
# ...while liveness and the shed telemetry stayed reachable
curl -fsS http://127.0.0.1:18081/v1/health >/dev/null
curl -fsS http://127.0.0.1:18081/metrics | grep -q 'skyserve_shed_total'
code=$(curl -s -o /dev/null -w '%{http_code}' http://127.0.0.1:18081/v1/health)
test "$code" = "200"
kill -TERM "$over_pid"
wait "$over_pid" 2>/dev/null || true

echo "== serve-from (mmap'd snapshot file vs in-memory build)"
# Both serve the default hotel dataset: one builds in memory, the other maps
# the $tmp/d.sky file written by `skydiag save` above — no build step.
"$tmp/skyserve" -addr 127.0.0.1:18082 >/dev/null 2>&1 &
mem_pid=$!
"$tmp/skyserve" -addr 127.0.0.1:18083 -serve-from "$tmp/d.sky" >/dev/null 2>&1 &
file_pid=$!
trap 'kill "$serve_pid" "$over_pid" "$mem_pid" "$file_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
for i in $(seq 1 50); do
    curl -fsS http://127.0.0.1:18082/healthz >/dev/null 2>&1 &&
    curl -fsS http://127.0.0.1:18083/healthz >/dev/null 2>&1 && break
    sleep 0.1
done
# the mapped file must answer every probe exactly like the in-memory server
for q in 'x=10&y=80' 'x=0&y=0' 'x=55.5&y=41.25' 'x=100&y=100' 'x=-5&y=200'; do
    curl -fsS "http://127.0.0.1:18082/v1/skyline?kind=quadrant&$q" > "$tmp/mem.json"
    curl -fsS "http://127.0.0.1:18083/v1/skyline?kind=quadrant&$q" > "$tmp/file.json"
    cmp -s "$tmp/mem.json" "$tmp/file.json" || {
        echo "serve-from mismatch on $q" >&2
        diff "$tmp/mem.json" "$tmp/file.json" >&2 || true
        exit 1
    }
done
# the file holds one kind; others and all writes answer 501, not wrong data
code=$(curl -s -o /dev/null -w '%{http_code}' 'http://127.0.0.1:18083/v1/skyline?kind=global&x=10&y=80')
test "$code" = "501"
code=$(curl -s -o /dev/null -w '%{http_code}' -d '{"id":99,"coords":[13,85]}' http://127.0.0.1:18083/v1/points)
test "$code" = "501"
kill -TERM "$mem_pid" "$file_pid"
wait "$mem_pid" "$file_pid" 2>/dev/null || true

echo "== scale-out (builder + 2 replicas + router + a replica of a replica, replica killed mid-load)"
go build -o "$tmp/skyrouter" ./cmd/skyrouter
# A 240-point dataset (not the 11-hotel default): big enough that a
# grid-stable write ships as a page delta instead of a file smaller than the
# delta framing overhead.
go run ./cmd/skydiag gen -n 240 -dist inde -domain 4096 -o "$tmp/scale.csv"
"$tmp/skyserve" -addr 127.0.0.1:18084 -in "$tmp/scale.csv" >/dev/null 2>&1 &
builder_pid=$!
"$tmp/skyserve" -addr 127.0.0.1:18085 -primary http://127.0.0.1:18084 \
    -snapshot-dir "$tmp/rep1" -refresh 200ms >/dev/null 2>&1 &
rep1_pid=$!
"$tmp/skyserve" -addr 127.0.0.1:18086 -primary http://127.0.0.1:18084 \
    -snapshot-dir "$tmp/rep2" -refresh 200ms >/dev/null 2>&1 &
rep2_pid=$!
# rep3's primary is rep2, not the builder: rep2 relays every epoch to it
"$tmp/skyserve" -addr 127.0.0.1:18089 -primary http://127.0.0.1:18086 \
    -snapshot-dir "$tmp/rep3" -refresh 200ms >/dev/null 2>&1 &
rep3_pid=$!
"$tmp/skyrouter" -addr 127.0.0.1:18087 \
    -replicas http://127.0.0.1:18085,http://127.0.0.1:18086 \
    -primary http://127.0.0.1:18084 -health-interval 200ms >/dev/null 2>&1 &
router_pid=$!
trap 'kill "$serve_pid" "$over_pid" "$mem_pid" "$file_pid" "$builder_pid" "$rep1_pid" "$rep2_pid" "$rep3_pid" "$router_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
for i in $(seq 1 100); do
    curl -fsS http://127.0.0.1:18085/healthz >/dev/null 2>&1 &&
    curl -fsS http://127.0.0.1:18086/healthz >/dev/null 2>&1 &&
    curl -fsS http://127.0.0.1:18089/v1/ready >/dev/null 2>&1 &&
    curl -fsS http://127.0.0.1:18087/v1/health >/dev/null 2>&1 &&
    curl -fsS 'http://127.0.0.1:18087/v1/skyline?kind=quadrant&x=10&y=80' >/dev/null 2>&1 && break
    sleep 0.1
done
# a routed answer must be byte-identical to the single in-memory builder's
probe_diff() {
    for q in 'x=10&y=80' 'x=0&y=0' 'x=55.5&y=41.25' 'x=100&y=100' 'x=-5&y=200'; do
        curl -fsS "http://127.0.0.1:18084/v1/skyline?kind=quadrant&$q" > "$tmp/direct.json"
        curl -fsS "http://127.0.0.1:18087/v1/skyline?kind=quadrant&$q" > "$tmp/routed.json"
        cmp -s "$tmp/direct.json" "$tmp/routed.json" || {
            echo "router mismatch on $q ($1)" >&2
            diff "$tmp/direct.json" "$tmp/routed.json" >&2 || true
            exit 1
        }
    done
}
probe_diff "both replicas up"
# rep3 must report the builder's epoch on /v1/ready and answer every probe
# byte-identically to the builder: chain_wait gives it up to 5s to catch up,
# and fails the smoke if it does not
chain_same() {
    for path in v1/ready 'v1/skyline?kind=quadrant&x=10&y=80' 'v1/skyline?kind=quadrant&x=0&y=0' \
        'v1/skyline?kind=quadrant&x=55.5&y=41.25' 'v1/skyline?kind=quadrant&x=100&y=100' \
        'v1/skyline?kind=quadrant&x=-5&y=200'; do
        curl -fsS "http://127.0.0.1:18084/$path" > "$tmp/direct.json" &&
        curl -fsS "http://127.0.0.1:18089/$path" > "$tmp/chained.json" &&
        cmp -s "$tmp/direct.json" "$tmp/chained.json" || return 1
    done
}
chain_wait() {
    for i in $(seq 1 50); do
        chain_same && return 0
        sleep 0.1
    done
    echo "replica of a replica differs from the builder ($1)" >&2
    diff "$tmp/direct.json" "$tmp/chained.json" >&2 || true
    exit 1
}
chain_wait "both replicas up"
# the router attributes the serving replica
curl -fsSi 'http://127.0.0.1:18087/v1/skyline?kind=quadrant&x=10&y=80' \
    | grep -qi 'X-Sky-Backend:'
# writes forward to the builder and the new epoch propagates to the replicas
code=$(curl -s -o /dev/null -w '%{http_code}' -d '{"id":9999,"coords":[13.5,85.5]}' http://127.0.0.1:18087/v1/points)
test "$code" = "201"
sleep 1
probe_diff "after routed write propagated"
chain_wait "after routed write propagated"
# a trailing-edge write (just past the dataset's max x at an existing y)
# keeps the grid shape stable, so replicas one epoch behind catch up via a
# page delta instead of refetching the whole file: the builder must report
# delta hits and delta bytes on the wire, and routed answers must still match
edge=$(awk -F, '$2 + 0 > mx { mx = $2 + 0; my = $3 } END { printf "[%d,%s]", mx + 1, my }' "$tmp/scale.csv")
code=$(curl -s -o /dev/null -w '%{http_code}' -d "{\"id\":10000,\"coords\":$edge}" http://127.0.0.1:18087/v1/points)
test "$code" = "201"
sleep 1
probe_diff "after delta-friendly write propagated"
hits=$(curl -fsS http://127.0.0.1:18084/metrics | awk '$1 == "skyserve_snapshot_delta_hits_total" {print $2}')
test "${hits:-0}" -gt 0 || { echo "builder reports no snapshot delta hits" >&2; exit 1; }
curl -fsS http://127.0.0.1:18084/metrics | grep -q 'skyserve_snapshot_bytes_total{mode="delta"}'
# the chained replica catches up too, and by a delta from rep2: rep2 records
# an epoch when it first streams it, so the epoch rep3 holds is in its ring
chain_wait "after delta-friendly write propagated"
hits=$(curl -fsS http://127.0.0.1:18086/metrics | awk '$1 == "skyserve_snapshot_delta_hits_total" {print $2}')
test "${hits:-0}" -gt 0 || { echo "relay rep2 reports no snapshot delta hits" >&2; exit 1; }
# kill one replica mid-load: every routed read must still succeed and match
kill -TERM "$rep1_pid"
wait "$rep1_pid" 2>/dev/null || true
for i in $(seq 1 20); do
    code=$(curl -s -o /dev/null -w '%{http_code}' 'http://127.0.0.1:18087/v1/skyline?kind=quadrant&x=10&y=80')
    test "$code" = "200" || { echo "routed read $i failed ($code) after replica kill" >&2; exit 1; }
done
probe_diff "one replica down"
# the pool report still answers and the router never went dark
curl -fsS http://127.0.0.1:18087/v1/health | grep -q '"replicas"'
curl -fsS http://127.0.0.1:18087/metrics | grep -q 'skyrouter_requests_total'
kill -TERM "$builder_pid" "$rep2_pid" "$rep3_pid" "$router_pid"
wait "$builder_pid" "$rep2_pid" "$rep3_pid" "$router_pid" 2>/dev/null || true

echo "== durability (WAL: ack, kill -9, restart, acked write survives)"
"$tmp/skyserve" -addr 127.0.0.1:18088 -wal-dir "$tmp/wal" >/dev/null 2>&1 &
wal_pid=$!
trap 'kill "$serve_pid" "$over_pid" "$mem_pid" "$file_pid" "$builder_pid" "$rep1_pid" "$rep2_pid" "$rep3_pid" "$router_pid" "$wal_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
for i in $(seq 1 50); do
    code=$(curl -s -o /dev/null -w '%{http_code}' http://127.0.0.1:18088/v1/ready)
    test "$code" = "200" && break
    sleep 0.1
done
# until then the gate answered 503 on /v1/ready but 200 on /healthz — now both
test "$code" = "200"
code=$(curl -s -o /dev/null -w '%{http_code}' -d '{"id":424242,"coords":[13,85]}' http://127.0.0.1:18088/v1/points)
test "$code" = "201"
curl -fsS http://127.0.0.1:18088/v1/stats | grep -q '"points":12'
# SIGKILL: no drain, no flush — the fsynced log is all that survives
kill -KILL "$wal_pid"
wait "$wal_pid" 2>/dev/null || true
"$tmp/skyserve" -addr 127.0.0.1:18088 -wal-dir "$tmp/wal" >/dev/null 2>&1 &
wal_pid=$!
for i in $(seq 1 50); do
    curl -fsS http://127.0.0.1:18088/v1/ready >/dev/null 2>&1 && break
    sleep 0.1
done
# the acknowledged insert must have been replayed into the recovered dataset:
# the count is back to 12 and deleting the id answers 200, not 404-unknown
curl -fsS http://127.0.0.1:18088/v1/stats | grep -q '"points":12'
code=$(curl -s -o /dev/null -w '%{http_code}' -X DELETE http://127.0.0.1:18088/v1/points/424242)
test "$code" = "200"
kill -TERM "$wal_pid"
wait "$wal_pid" 2>/dev/null || true

echo "smoke OK"
