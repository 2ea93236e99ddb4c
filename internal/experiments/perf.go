package experiments

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dyndiag"
	"repro/internal/quaddiag"
	"repro/internal/server"
	"repro/internal/store"
)

// E16 and E17 measure the interned-CSR read path introduced for the serving
// hot loop: E16 the memory footprint and query latency of the interned
// representation against the naive per-cell [][]int32 one, E17 the
// allocation cost of serving a query end to end.

// reprRows reports which representations E16 should measure, honouring
// Config.Repr ("" means both).
func (c Config) reprRows() []string {
	switch c.Repr {
	case "naive":
		return []string{"naive"}
	case "interned":
		return []string{"interned"}
	}
	return []string{"naive", "interned"}
}

// naiveCells deep-copies a diagram's per-cell results into the seed
// representation: one heap slice per cell, no sharing.
func naiveCells(cells [][]int32) [][]int32 {
	out := make([][]int32, len(cells))
	for k, c := range cells {
		out[k] = append([]int32(nil), c...)
	}
	return out
}

// naiveBytes charges the naive representation what MemoryFootprint charges
// it: one slice header plus 4 bytes per id for every cell.
func naiveBytes(cells [][]int32) int {
	total := 0
	for _, c := range cells {
		total += 24 + 4*len(c)
	}
	return total
}

// latencyPercentiles times batches of queries and returns per-query p50/p99
// over the sampled batches. Individual queries are ~100ns, far below timer
// resolution, so each sample is a batch of batchSize queries. The probe walk
// sweeps [0, xmax] x [0, ymax] so queries land all over the grid.
func latencyPercentiles(samples, batchSize int, xmax, ymax float64, query func(x, y float64) []int32) (p50, p99 time.Duration) {
	durs := make([]time.Duration, samples)
	for s := range durs {
		x, y := 0.0, ymax
		start := time.Now()
		for i := 0; i < batchSize; i++ {
			query(x, y)
			x += 0.037 * xmax
			if x > xmax {
				x -= xmax
			}
			y -= 0.041 * ymax
			if y < 0 {
				y += ymax
			}
		}
		durs[s] = time.Since(start) / time.Duration(batchSize)
	}
	sort.Slice(durs, func(a, b int) bool { return durs[a] < durs[b] })
	return durs[samples/2], durs[samples*99/100]
}

// assertSameResults compares the two representations on a probe sweep and
// panics on the first divergence — E16's numbers are only meaningful if the
// representations answer identically.
func assertSameResults(kind string, xmax, ymax float64, a, b func(x, y float64) []int32) {
	x, y := 0.0, ymax
	for i := 0; i < 4000; i++ {
		ra, rb := a(x, y), b(x, y)
		if len(ra) != len(rb) {
			panic(fmt.Sprintf("E16: %s representations disagree at (%g,%g): %v vs %v", kind, x, y, ra, rb))
		}
		for k := range ra {
			if ra[k] != rb[k] {
				panic(fmt.Sprintf("E16: %s representations disagree at (%g,%g): %v vs %v", kind, x, y, ra, rb))
			}
		}
		x += 0.0173 * xmax
		if x > 1.1*xmax {
			x -= 1.2 * xmax
		}
		y -= 0.0191 * ymax
		if y < -0.1*ymax {
			y += 1.2 * ymax
		}
	}
}

// E16 measures the interned CSR result table against the seed [][]int32
// representation: bytes held by per-cell results, and query p50/p99 through
// each. The quadrant workload is the limited-domain regime (heavy result
// duplication across cells — interning's best case is the paper's common
// case); the dynamic diagram shows the same effect on subcell grids.
func E16(c Config) Table {
	qn, qs := 600, 2048
	dynN := 64
	samples, batch := 300, 200
	if c.Quick {
		qn, qs = 150, 256
		dynN = 16
		samples, batch = 60, 50
	}
	t := Table{
		ID:    "E16",
		Title: fmt.Sprintf("interned CSR result table vs naive [][]int32 (quadrant n=%d/s=%d, dynamic n=%d)", qn, qs, dynN),
		Expected: "interned holds one copy of each distinct result: several-fold smaller, " +
			"equal or better query latency (one indirection, denser cache lines)",
		Header: []string{"kind", "repr", "result_bytes", "vs_naive", "q_p50_us", "q_p99_us", "identical"},
	}

	us := func(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d.Nanoseconds())/1000) }

	// Quadrant, limited domain.
	qpts := GenDomain(dataset.Independent, qn, qs, c.seed())
	qd, err := quaddiag.BuildScanning(qpts, 1)
	if err != nil {
		panic(err)
	}
	_, qcellsShared := qd.Export()
	qcells := naiveCells(qcellsShared)
	qrows := qd.Grid.Rows()
	naiveQuad := func(x, y float64) []int32 {
		i, j := qd.Grid.LocateXY(x, y)
		return qcells[i*qrows+j]
	}
	internedBytes, flatBytes := qd.MemoryFootprint()
	qxmax, qymax := float64(qs), float64(qs)
	assertSameResults("quadrant", qxmax, qymax, naiveQuad, qd.QueryXY)
	for _, repr := range c.reprRows() {
		if repr == "naive" {
			p50, p99 := latencyPercentiles(samples, batch, qxmax, qymax, naiveQuad)
			t.Rows = append(t.Rows, []string{"quadrant", "naive",
				fmt.Sprint(naiveBytes(qcells)), "1.0x", us(p50), us(p99), "yes"})
		} else {
			p50, p99 := latencyPercentiles(samples, batch, qxmax, qymax, qd.QueryXY)
			t.Rows = append(t.Rows, []string{"quadrant", "interned",
				fmt.Sprint(internedBytes), fmt.Sprintf("%.1fx smaller", float64(flatBytes)/float64(internedBytes)),
				us(p50), us(p99), "yes"})
		}
	}

	// Dynamic, continuous coordinates.
	dpts := GenContinuous(dataset.Independent, dynN, c.seed())
	dd, err := dyndiag.BuildScanning(dpts, 1)
	if err != nil {
		panic(err)
	}
	_, dcellsShared := dd.Export()
	dcells := naiveCells(dcellsShared)
	drows := dd.Sub.Rows()
	naiveDyn := func(x, y float64) []int32 {
		i, j := dd.Sub.LocateXY(x, y)
		return dcells[i*drows+j]
	}
	dInterned, dFlat := dd.MemoryFootprint()
	assertSameResults("dynamic", 1, 1, naiveDyn, dd.QueryXY)
	for _, repr := range c.reprRows() {
		if repr == "naive" {
			p50, p99 := latencyPercentiles(samples, batch, 1, 1, naiveDyn)
			t.Rows = append(t.Rows, []string{"dynamic", "naive",
				fmt.Sprint(naiveBytes(dcells)), "1.0x", us(p50), us(p99), "yes"})
		} else {
			p50, p99 := latencyPercentiles(samples, batch, 1, 1, dd.QueryXY)
			t.Rows = append(t.Rows, []string{"dynamic", "interned",
				fmt.Sprint(dInterned), fmt.Sprintf("%.1fx smaller", float64(dFlat)/float64(dInterned)),
				us(p50), us(p99), "yes"})
		}
	}
	return t
}

// discardWriter is an http.ResponseWriter that throws the body away, so E17
// measures the serve path rather than response buffering.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(int)             {}

// E17 measures end-to-end serve cost per request: heap allocations and
// latency through Handler.ServeHTTP for a single query and for batches. The
// remaining single-query allocations are routing and instrumentation (the
// mux's pattern context, the status-capturing writer, metric label lookups);
// the query itself — point location, label indirection, pooled encode — is
// allocation-free, pinned at 0 allocs/op by the package benchmarks.
func E17(c Config) Table {
	n := 200
	if c.Quick {
		n = 60
	}
	t := Table{
		ID:    "E17",
		Title: fmt.Sprintf("serve-path allocations per request (n=%d, INDE)", n),
		Expected: "single-query allocs/req is a small routing+instrumentation constant; " +
			"batch allocs amortize to a few per query (JSON decode of the request)",
		Header: []string{"endpoint", "queries_per_req", "allocs_per_req", "allocs_per_query", "us_per_req"},
	}
	pts := GenQuadrant(dataset.Independent, n, c.seed())
	h, err := server.New(pts, server.Config{MaxInFlight: -1})
	if err != nil {
		panic(err)
	}

	w := &discardWriter{h: make(http.Header)}
	single := httptest.NewRequest("GET", "/v1/skyline?kind=quadrant&x=0.42&y=0.58", nil)
	singleAllocs := testing.AllocsPerRun(400, func() {
		h.ServeHTTP(w, single)
	})
	singleLat := c.time(func() {
		for i := 0; i < 100; i++ {
			h.ServeHTTP(w, single)
		}
	}) / 100
	t.Rows = append(t.Rows, []string{"/v1/skyline", "1",
		fmt.Sprintf("%.0f", singleAllocs), fmt.Sprintf("%.0f", singleAllocs),
		fmt.Sprintf("%.2f", float64(singleLat.Nanoseconds())/1000)})

	for _, batchSize := range []int{16, 256} {
		var body bytes.Buffer
		body.WriteString(`{"kind":"quadrant","queries":[`)
		for i := 0; i < batchSize; i++ {
			if i > 0 {
				body.WriteByte(',')
			}
			fmt.Fprintf(&body, "[%.3f,%.3f]", float64(i%17)/17.0, float64(i%23)/23.0)
		}
		body.WriteString(`]}`)
		payload := body.Bytes()
		br := bytes.NewReader(payload)
		req := httptest.NewRequest("POST", "/v1/skyline/batch", io.NopCloser(br))
		batchAllocs := testing.AllocsPerRun(100, func() {
			br.Reset(payload)
			h.ServeHTTP(w, req)
		})
		batchLat := c.time(func() {
			for i := 0; i < 20; i++ {
				br.Reset(payload)
				h.ServeHTTP(w, req)
			}
		}) / 20
		t.Rows = append(t.Rows, []string{"/v1/skyline/batch", fmt.Sprint(batchSize),
			fmt.Sprintf("%.0f", batchAllocs), fmt.Sprintf("%.1f", batchAllocs/float64(batchSize)),
			fmt.Sprintf("%.2f", float64(batchLat.Nanoseconds())/1000)})
	}
	return t
}

// E19 measures the serve-from-file path against an in-memory build: replica
// bootstrap cost (build vs open) and per-query latency through the in-memory
// diagram and the memory-mapped store (rank-table locate, label load and the
// answer's ids decoded from the mapping). Both paths are first asserted to
// answer identically over a probe sweep, and both are timed as a server
// answers: AppendQueryXY into one reused buffer.
func E19(c Config) Table {
	n, s := 600, 2048
	samples, batch := 300, 200
	if c.Quick {
		n, s = 150, 256
		samples, batch = 60, 50
	}
	t := Table{
		ID:    "E19",
		Title: fmt.Sprintf("serving from a mapped diagram file vs in-memory build (quadrant n=%d/s=%d)", n, s),
		Expected: "opening the file costs microseconds where the build costs milliseconds; " +
			"mapped queries stay within a small factor of in-memory (one page load vs one slice load)",
		Header: []string{"serving_path", "bootstrap_ms", "q_p50_us", "q_p99_us", "identical"},
	}
	us := func(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d.Nanoseconds())/1000) }
	pts := GenDomain(dataset.Independent, n, s, c.seed())

	var d *core.QuadrantDiagram
	buildTime := c.time(func() {
		var err error
		d, err = core.BuildQuadrant(pts, core.Options{})
		if err != nil {
			panic(err)
		}
	})
	dir, err := os.MkdirTemp("", "skyline-e19-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "diagram.sky")
	if err := store.CreateFile(path, d.Cells()); err != nil {
		panic(err)
	}

	var mapped *store.Store
	mmapTime := c.time(func() {
		if mapped != nil {
			mapped.Close()
		}
		mapped, err = store.OpenMmap(path)
		if err != nil {
			panic(err)
		}
	})
	defer mapped.Close()

	xmax, ymax := float64(s), float64(s)
	assertSameResults("mmap", xmax, ymax, d.QueryXY, mapped.QueryXY)

	row := func(name string, boot time.Duration, appendQuery func(dst []int32, x, y float64) []int32) {
		buf := make([]int32, 0, n)
		p50, p99 := latencyPercentiles(samples, batch, xmax, ymax, func(x, y float64) []int32 {
			buf = appendQuery(buf[:0], x, y)
			return buf
		})
		t.Rows = append(t.Rows, []string{name,
			fmt.Sprintf("%.3f", float64(boot.Microseconds())/1000), us(p50), us(p99), "yes"})
	}
	row("in-memory build", buildTime, d.AppendQueryXY)
	mappedName := "mmap file"
	if !mapped.Mapped() {
		mappedName = "mmap file (read into memory)"
	}
	row(mappedName, mmapTime, mapped.AppendQueryXY)
	return t
}
