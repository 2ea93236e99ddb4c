package main

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/router"
	"repro/internal/server"
)

func TestPercentileNearestRank(t *testing.T) {
	var v []float64
	for i := 1; i <= 100; i++ {
		v = append(v, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{1, 1}, {50, 50}, {90, 90}, {99, 99}, {99.5, 100}, {100, 100}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %g, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %g, want 0", got)
	}
}

func TestTailSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true},  // rank 990, 10 beyond
		{999, 99, false},  // rank 990, 9 beyond
		{100, 90, true},   // rank 90, 10 beyond
		{99, 90, false},   // rank 90, 9 beyond
		{160, 90, true},   // replica-catchup's 20 s at 8/s
		{20, 50, true},    // rank 10, 10 beyond
		{30000, 99, true}, // a read stream
	} {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, p%g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(values, n=4).
	for _, c := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		q1, m, q3 := quartiles(c.in)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.in, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

// A stalled request delays the requests due during the stall; each of those
// is timed from its due time, so the stall shows in all of them, and none of
// them is charged to the generator. A request the generator slept for is
// timed from when it woke, and how late it woke is its lag.
func TestOpenLoopStallCountsFromDue(t *testing.T) {
	const interval = 10 * time.Millisecond
	const stall = 45 * time.Millisecond
	sched := newSchedule(time.Now().Add(5*time.Millisecond), 0, 20*interval)
	from := make([]time.Time, 20)
	s := openLoop(sched, float64(time.Second/interval), false, func(i int, t time.Time) bool {
		from[i] = t
		if i == 3 {
			time.Sleep(stall)
		}
		return true
	})
	if s.attempted != 20 || len(s.lat) != 20 {
		t.Fatalf("attempted %d, recorded %d; want 20 each", s.attempted, len(s.lat))
	}
	ms := func(v float64) float64 { return v * 1e3 }
	// Request 3 took the stall; 4, 5, 6 and 7 were due 10, 20, 30 and 40 ms
	// after it started but could only be sent once it ended.
	if got := ms(s.lat[3]); got < ms(stall.Seconds()) {
		t.Errorf("stalled request latency %.1f ms, want >= %v", got, stall)
	}
	for i, floor := range map[int]float64{4: 35, 5: 25, 6: 15, 7: 5} {
		if got := ms(s.lat[i]); got < floor {
			t.Errorf("request %d latency %.1f ms, want >= %g ms (it waited on the stall)", i, got, floor)
		}
		if s.lag[i] != 0 {
			t.Errorf("request %d charged %.3f ms to the generator; it was late because of the stall", i, ms(s.lag[i]))
		}
		if due := sched.start.Add(time.Duration(i) * interval); !from[i].Equal(due) {
			t.Errorf("request %d timed from %v after its due time, want from the due time", i, from[i].Sub(due))
		}
	}
	for _, i := range []int{1, 2, 12} {
		due := sched.start.Add(time.Duration(i) * interval)
		if woke := from[i].Sub(due); woke < 0 || ms(woke.Seconds()) != ms(s.lag[i]) {
			t.Errorf("request %d timed from %v after its due time with lag %.3f ms, want from its wake-up", i, woke, ms(s.lag[i]))
		}
	}
	// Long after the stall the schedule has caught up; the slack covers a
	// slow wake-up on a busy host, far below the 35 ms request 4 waited.
	if got := ms(s.lat[12]); got > 25 {
		t.Errorf("request 12, long after the stall, took %.1f ms", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps 2
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Start: 15, End: 35},  // a grandchild is 2's, not 1's
	}
	self := selfTimes(spans)
	// Children cover [10,60] and [90,100] of the parent: 60 of 100.
	for id, want := range map[uint64]int64{1: 40, 2: 10, 3: 30, 4: 30, 5: 20} {
		if self[id] != want {
			t.Errorf("self(%d) = %d, want %d", id, self[id], want)
		}
	}
}

func TestSpanQueryParameter(t *testing.T) {
	raw := setSpanQuery("kind=quadrant&x=1&bspan=5&y=2", 9)
	if raw != "kind=quadrant&x=1&y=2&bspan=9" {
		t.Errorf("setSpanQuery = %q", raw)
	}
	if got := spanFromQuery(raw); got != 9 {
		t.Errorf("spanFromQuery(%q) = %d, want 9", raw, got)
	}
	if got := spanFromQuery("xbspan=3&kind=global"); got != 0 {
		t.Errorf("spanFromQuery matched another parameter's suffix: %d", got)
	}
	if got := spanFromQuery("xbspan=3&bspan=5"); got != 5 {
		t.Errorf("spanFromQuery(xbspan=3&bspan=5) = %d, want 5", got)
	}
	if got := setSpanQuery("", 4); got != "bspan=4" {
		t.Errorf("setSpanQuery on an empty query = %q", got)
	}
}

func TestVerify(t *testing.T) {
	base := []geom.Point{geom.Pt2(0, 0, 8), geom.Pt2(1, 8, 0), geom.Pt2(2, 16, 16)}
	hist := []core.Op{core.InsertOp(geom.Pt2(7, 4, 4)), core.DeleteOp(7)}
	ok := []check{
		{kind: "quadrant", x: -1, y: -1, epoch: 1, ids: []int32{1, 0}},
		{kind: "quadrant", x: -1, y: -1, epoch: 2, ids: []int32{7, 0, 1}},
		{kind: "quadrant", x: -1, y: -1, epoch: 3, ids: []int32{0, 1}},
		{kind: "global", x: 9, y: 9, epoch: 1, ids: []int32{0, 1, 2}},
		{kind: "dynamic", x: 9, y: 9, epoch: 1, ids: []int32{0, 1, 2}},
	}
	if wrong, first := verify(base, hist, ok); wrong != 0 {
		t.Fatalf("verify flagged %d right answers: %s", wrong, first)
	}
	bad := []check{
		{kind: "quadrant", x: -1, y: -1, epoch: 2, ids: []int32{0, 1}}, // stale answer at epoch 2
		{kind: "quadrant", x: -1, y: -1, epoch: 4, ids: []int32{0, 1}}, // epoch never written
	}
	if wrong, _ := verify(base, hist, bad); wrong != 2 {
		t.Fatalf("verify found %d of 2 wrong answers", wrong)
	}
}

func TestVerdict(t *testing.T) {
	d := func(vals ...float64) *dist {
		x := &dist{}
		for _, v := range vals {
			x.add(v)
		}
		return x
	}
	steady := d(100, 101, 99, 100, 100)
	for _, c := range []struct {
		name   string
		a, b   *dist
		better string
		want   string
	}{
		{"same", steady, d(102, 103, 101, 102, 102), "lower", "same"},
		{"worse", steady, d(120, 121, 119, 120, 120), "lower", "worse"},
		{"better", steady, d(80, 81, 79, 80, 80), "lower", "better"},
		{"higher is better", steady, d(80, 81, 79, 80, 80), "higher", "worse"},
		{"noisy", steady, d(60, 140, 100, 70, 130), "lower", "unresolved"},
		{"noisy but every run better", d(100, 150, 200, 120, 180), d(50, 60, 90, 70, 80), "lower", "better"},
	} {
		if got := verdict(c.a, c.b, 0.1, c.better); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// BENCHMARK.json must name exactly the metrics and workloads the program
// reports, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	var bench struct {
		benchmarkFile
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := readJSON("../BENCHMARK.json", &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bench.EndToEnd), len(endToEnd))
	}
	for i, m := range bench.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("end_to_end[%d] = %s %s, program has %s %s", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
	if len(bench.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bench.PerLayer), len(perLayer))
	}
	for i, m := range bench.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per_layer[%d] = %s %s, program has %s %s", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workloads[%d] = %s, program has %s", i, w.Name, workloads[i].name)
		}
	}
}

// A one-second run of every workload at n=64, untraced and traced: every
// answer verifies, nothing fails, every end-to-end metric is reported and
// non-zero, and so is every serving metric of the workload's request types.
func TestSmokeAllWorkloads(t *testing.T) {
	own := map[string][]string{
		"read-routed":     {"read_p50_us", "read_p99_us"},
		"batch-kinds":     {"batch_qps", "batch_p50_ms"},
		"write-durable":   {"write_p50_ms", "write_p90_ms", "read_p50_us", "read_p99_us"},
		"replica-catchup": {"visible_p50_ms", "visible_p90_ms", "write_p50_ms", "write_p90_ms", "repl_bytes_per_write", "read_p50_us", "read_p99_us"},
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			t.Run(w.name+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				res, tr, err := runOnce(runConfig{
					workload: w.name, seed: 7, seconds: 1, trace: trace,
					scratch: t.TempDir(), n: 64, warmup: 200 * time.Millisecond, setups: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Verified == 0 {
					t.Fatalf("correct=%v failed=%d wrong=%d verified=%d warnings=%v",
						res.Correct, res.Failed, res.Wrong, res.Verified, res.Warnings)
				}
				defs := gated()
				if trace {
					defs = perLayer
					if tr == nil || len(res.Budget) == 0 {
						t.Fatal("traced run recorded no spans or budget")
					}
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					// Differences of medians (write_other, trace overhead) may
					// be negative; every gated metric is a time, size or rate.
					if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || (!trace && m.Value < 0) {
						t.Errorf("metric %s = %+v", d.name, m)
					}
				}
				if !trace {
					for _, d := range endToEnd {
						if res.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.name, res.Metrics[d.name].Value)
						}
					}
				}
				for _, name := range own[w.name] {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s = %v, want > 0 on %s", name, res.Metrics[name].Value, w.name)
					}
				}
				if _, err := json.Marshal(res); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// Compare mode judges serving metrics against their own bounds, skips those
// a workload does not have, and fails when one is worse.
func TestCompareJudgesServingMetrics(t *testing.T) {
	side := func(replBytes, setup float64) string {
		d := func(vals ...float64) *dist {
			x := &dist{}
			for _, v := range vals {
				x.add(v)
			}
			return x
		}
		sum := summary{Workloads: map[string]*workloadSummary{
			"replica-catchup": {Metrics: map[string]*dist{
				"setup_s":              d(setup, setup, setup),
				"peak_rss_mb":          d(100, 100, 100),
				"repl_bytes_per_write": d(replBytes, replBytes, replBytes),
				"batch_qps":            d(0, 0, 0),
			}},
		}}
		path := filepath.Join(t.TempDir(), "summary.json")
		if err := writeJSON(path, sum); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := side(20000, 1)
	var out strings.Builder
	if err := compareSummaries(&out, a, side(20100, 1.02), "../BENCHMARK.json"); err != nil {
		t.Fatalf("0.5%% more replication bytes failed the 1%% bound: %v\n%s", err, &out)
	}
	if strings.Contains(out.String(), "batch_qps") {
		t.Errorf("compare judged a metric neither side has:\n%s", &out)
	}
	out.Reset()
	if err := compareSummaries(&out, a, side(20400, 1), "../BENCHMARK.json"); err == nil {
		t.Fatalf("2%% more replication bytes passed the 1%% bound:\n%s", &out)
	}
}

// Span ids ride in an extra query parameter: the router must forward it
// untouched and every node must answer exactly as it does without it.
func TestSpanParameterIsTransparent(t *testing.T) {
	pts, err := points(32, 1)
	if err != nil {
		t.Fatal(err)
	}
	h, err := server.New(pts, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var forwarded []string
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		forwarded = append(forwarded, r.URL.RawQuery)
		mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	defer backend.Close()
	rt, err := router.New(router.Config{Replicas: []string{backend.URL}, Primary: backend.URL})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt)
	defer front.Close()

	do := func(method, url, body string) (int, string) {
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(data)
	}
	for _, c := range []struct{ method, path, body string }{
		{"GET", "/v1/skyline?kind=quadrant&x=17&y=33", ""},
		{"GET", "/v1/skyline?kind=dynamic&x=17&y=33", ""},
		{"POST", "/v1/skyline/batch", `{"kind":"global","queries":[[17,33],[-7,9]]}`},
	} {
		for _, base := range []string{front.URL, backend.URL} {
			sep := "?"
			if strings.Contains(c.path, "?") {
				sep = "&"
			}
			code, plain := do(c.method, base+c.path, c.body)
			codeT, traced := do(c.method, base+c.path+sep+"bspan=42", c.body)
			if code != http.StatusOK || codeT != code || traced != plain {
				t.Errorf("%s %s%s: %d %q without the span parameter, %d %q with it",
					c.method, base, c.path, code, plain, codeT, traced)
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if n := len(forwarded); n == 0 || spanFromQuery(forwarded[n-1]) != 42 {
		t.Errorf("router forwarded %q, want the span parameter kept", forwarded)
	}
}
