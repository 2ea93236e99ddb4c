package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/server"
)

// metricDef is one reported metric. BENCHMARK.json lists the same names
// and units, with the direction that is better (a test keeps them in step).
// bound is the share by which compare mode lets a serving metric worsen;
// BENCHMARK.json holds the bounds of the end-to-end metrics.
type metricDef struct {
	name, unit string
	bound      float64
}

// endToEnd are the metrics BENCHMARK.json gates. Untraced runs report them
// for every workload. heap_ready_mb is the heap the built topology holds
// before any load: under load the live heap depends on what a collection
// catches in flight and on which lazily built indexes the latest snapshot
// has, so it does not repeat from run to run (see README.md).
// alloc_kb_per_op is the heap the whole process allocates per operation of
// the workload's own type (workload.op).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "heap_ready_mb", unit: "MiB"},
	{name: "alloc_kb_per_op", unit: "kB"},
}

// serving are the user-facing numbers of the serving system, each on the
// workloads that issue its request type and 0 elsewhere, so none can be an
// end-to-end metric of BENCHMARK.json, which every workload must report
// non-zero. Every run reports them (traced runs among the per-layer
// metrics), and compare mode judges the untraced runs' values against these
// bounds, reporting a pair as unresolved when its spread is wider.
// repl_bytes_per_write repeats exactly from run to run, hence its 1%.
var serving = []metricDef{
	{name: "read_p50_us", unit: "us", bound: 0.10},
	{name: "read_p99_us", unit: "us", bound: 0.10},
	{name: "batch_qps", unit: "1/s", bound: 0.10},
	{name: "batch_p50_ms", unit: "ms", bound: 0.10},
	{name: "write_p50_ms", unit: "ms", bound: 0.10},
	{name: "write_p90_ms", unit: "ms", bound: 0.10},
	{name: "visible_p50_ms", unit: "ms", bound: 0.10},
	{name: "visible_p90_ms", unit: "ms", bound: 0.10},
	{name: "peak_rss_mb", unit: "MiB", bound: 0.10},
	{name: "repl_bytes_per_write", unit: "B", bound: 0.01},
}

// perLayer are the traced run's metrics: the serving metrics, the error
// ratio, then one group per layer. A layer a workload does not exercise
// reads 0.
var perLayer = append(append([]metricDef(nil), serving...), []metricDef{
	{name: "error_ratio", unit: "ratio"},
	{name: "client.self_us_p50", unit: "us"},
	{name: "router.self_us_p50", unit: "us"},
	{name: "router.self_us_p99", unit: "us"},
	{name: "router.hop_us_p50", unit: "us"},
	{name: "router.failovers", unit: "count"},
	{name: "router.no_replica", unit: "count"},
	{name: "server.query_us_p50", unit: "us"},
	{name: "server.query_us_p99", unit: "us"},
	{name: "server.batch_us_p50", unit: "us"},
	{name: "server.write_ms_p50", unit: "ms"},
	{name: "server.write_ms_p90", unit: "ms"},
	{name: "server.write_other_ms_p50", unit: "ms"},
	{name: "server.coalesce_batch_mean", unit: "ops"},
	{name: "server.checkpoints", unit: "count"},
	{name: "server.compactions", unit: "count"},
	{name: "server.snapshot_ms_p50", unit: "ms"},
	{name: "server.delta_hits", unit: "count"},
	{name: "server.delta_fallbacks", unit: "count"},
	{name: "server.snapshot_bytes", unit: "B"},
	{name: "server.shed", unit: "count"},
	{name: "replica.refresh_ms_p50", unit: "ms"},
	{name: "replica.refresh_ms_p90", unit: "ms"},
	{name: "replica.local_ms_p50", unit: "ms"},
	{name: "core.build_s", unit: "s"},
	{name: "core.apply_ms_p50", unit: "ms"},
	{name: "core.apply_ms_p90", unit: "ms"},
	{name: "core.query_ns_p50.quadrant", unit: "ns"},
	{name: "core.query_ns_p50.global", unit: "ns"},
	{name: "core.query_ns_p50.dynamic", unit: "ns"},
	{name: "core.arena_garbage_ratio", unit: "ratio"},
	{name: "grid.locate_ns_p50", unit: "ns"},
	{name: "store.serialize_ms_p50", unit: "ms"},
	{name: "store.manifest_ms_p50", unit: "ms"},
	{name: "store.delta_ms_p50", unit: "ms"},
	{name: "store.apply_delta_ms_p50", unit: "ms"},
	{name: "store.open_mmap_ms_p50", unit: "ms"},
	{name: "store.delta_bytes_p50", unit: "B"},
	{name: "store.query_ns_p50", unit: "ns"},
	{name: "store.file_bytes", unit: "B"},
	{name: "wal.commit_us_p50", unit: "us"},
	{name: "wal.commit_us_p90", unit: "us"},
	{name: "wal.checkpoint_ms_p50", unit: "ms"},
	{name: "go.gc_pause_ms_total", unit: "ms"},
	{name: "go.gc_cycles", unit: "count"},
	{name: "go.alloc_mb_per_s", unit: "MB/s"},
	{name: "gen.lag_p99_ms", unit: "ms"},
	{name: "gen.lag_max_ms", unit: "ms"},
	{name: "trace.overhead_pct", unit: "%"},
}...)

// snapshot is the counters read at one edge of the measured window.
type snapshot struct {
	nodes  map[string]float64 // summed over every server node's registry
	router map[string]float64
	mem    runtime.MemStats
	at     time.Time
}

func (t *topology) snapshot() snapshot {
	s := snapshot{nodes: map[string]float64{}, router: map[string]float64{}, at: time.Now()}
	for _, h := range []*server.Handler{t.builder, t.replicaH} {
		if h != nil {
			promSum(h.Metrics(), s.nodes)
		}
	}
	if t.router != nil {
		promSum(t.router.Metrics(), s.router)
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// promSum adds every sample of reg's exposition into out, keyed by metric
// name with the labels dropped (so a family's series are summed).
func promSum(reg *metrics.Registry, out map[string]float64) {
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		return
	}
	sc := bufio.NewScanner(&b)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			out[name] += v
		}
	}
}

// resetPeakRSS restarts the kernel's resident-set high-water mark from the
// current resident set, so peakRSSMiB covers the measured window only and
// not the set-up's transient build garbage. Where the reset is unsupported
// the mark covers the whole process lifetime.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintf(os.Stderr, "peak RSS covers set-up too: %v\n", err)
	}
}

// liveHeapMiB reads the heap the garbage collector marked live in its
// latest cycle, in MiB.
func liveHeapMiB() float64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 { return statusMiB("VmHWM:") }

// statusMiB reads one kB field of /proc/self/status in MiB, 0 if absent.
func statusMiB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
