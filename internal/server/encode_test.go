package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/store"
)

// The wire schema of the two query endpoints: the structs the handlers
// once marshalled with encoding/json, which the append encoders must render
// byte for byte, and which the tests decode responses into.
type pointJSON struct {
	ID     int       `json:"id"`
	Coords []float64 `json:"coords"`
}

type skylineResponse struct {
	Kind   string      `json:"kind"`
	Query  []float64   `json:"query"`
	IDs    []int32     `json:"ids"`
	Points []pointJSON `json:"points"`
}

type batchResult struct {
	Query []float64 `json:"query"`
	IDs   []int32   `json:"ids"`
}

type batchResponse struct {
	Kind    string        `json:"kind"`
	Count   int           `json:"count"`
	Results []batchResult `json:"results"`
}

// trickyFloats are the values where encoding/json's float rendering has
// special cases: format switchover at 1e-6 and 1e21, exponent zero-stripping,
// negative zero, and shortest-round-trip precision.
var trickyFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 10.5, -2.25,
	1e-6, 9.999999e-7, 5e-7, 1e21, 9.99e20, 1.5e21,
	1e-9, -3e-9, 2.2250738585072014e-308, 1.7976931348623157e308,
	0.1, 1.0 / 3.0, 100, 80,
}

func TestEncodeMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	floats := append([]float64(nil), trickyFloats...)
	for i := 0; i < 200; i++ {
		floats = append(floats, (rng.Float64()-0.5)*math.Pow(10, float64(rng.Intn(50)-25)))
	}

	// appendJSONFloat against json.Marshal for every value.
	for _, f := range floats {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, f); !bytes.Equal(got, want) {
			t.Fatalf("float %v: got %q, want %q", f, got, want)
		}
	}

	// Whole single-query responses against the json.Encoder rendering of the
	// response structs the handlers used to marshal.
	pts := []geom.Point{
		geom.Pt2(3, 14, 91), geom.Pt2(8, 2.5, 0.125), geom.Pt2(10, 1e-9, 5e20),
		geom.Pt2(12, math.Copysign(0, -1), 1e21), geom.Pt2(1<<30, 1.0/3.0, -7e-7),
	}
	for _, f := range floats {
		pts = append(pts, geom.Pt2(pts[len(pts)-1].ID+1+rng.Intn(3), f, -f))
	}
	cases := []struct {
		ids  []int32
		x, y float64
	}{
		{[]int32{3, 8, 10}, 10, 80},
		{[]int32{8}, 1e-7, -0.5},
		{nil, 1e21, math.Copysign(0, -1)},
		{[]int32{10, 12, 1 << 30}, 0.5, 0.5},
		{[]int32{3}, 1, 1},
		{allIDs(pts), -3, 2e-9},
	}
	for _, tc := range cases {
		resp := skylineResponse{Kind: "quadrant", Query: []float64{tc.x, tc.y},
			IDs: make([]int32, 0, len(tc.ids)), Points: make([]pointJSON, 0, len(tc.ids))}
		for _, id := range tc.ids {
			resp.IDs = append(resp.IDs, id)
			for _, p := range pts {
				if int32(p.ID) == id {
					resp.Points = append(resp.Points, pointJSON{ID: p.ID, Coords: p.Coords})
				}
			}
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		got := appendSkylineResponse(nil, "quadrant", tc.x, tc.y, tc.ids, pts)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("single response:\n got %q\nwant %q", got, want.Bytes())
		}
	}

	// Batch responses, including an empty result.
	queries := [][]float64{{10, 80}, {1e-8, 3e21}, {-2.25, 0.1}}
	answers := map[int][]int32{0: {3, 8}, 1: {}, 2: {10}}
	resp := batchResponse{Kind: "global", Count: len(queries), Results: make([]batchResult, len(queries))}
	for i, q := range queries {
		resp.Results[i] = batchResult{Query: q, IDs: answers[i]}
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(resp); err != nil {
		t.Fatal(err)
	}
	calls := 0
	got := appendBatchResponse(nil, "global", queries, func(x, y float64) []int32 {
		ids := answers[calls]
		calls++
		return ids
	})
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("batch response:\n got %q\nwant %q", got, want.Bytes())
	}
}

// allIDs returns the ids of pts, in their order.
func allIDs(pts []geom.Point) []int32 {
	ids := make([]int32, len(pts))
	for i, p := range pts {
		ids[i] = int32(p.ID)
	}
	return ids
}

// TestEncoderZeroAllocs pins the pooled encoding paths at zero heap
// allocations once a buffer of sufficient capacity is in the pool.
func TestEncoderZeroAllocs(t *testing.T) {
	pts := []geom.Point{geom.Pt2(3, 14, 91), geom.Pt2(8, 2.5, 0.125)}
	ids := []int32{3, 8}
	queries := [][]float64{{10, 80}, {20, 30}, {1e-8, 5}}

	single := testing.AllocsPerRun(200, func() {
		bp := getBuf()
		*bp = appendSkylineResponse(*bp, "quadrant", 10.5, 80.25, ids, pts)
		putBuf(bp)
	})
	if single != 0 {
		t.Fatalf("single-query encode: %v allocs/op, want 0", single)
	}

	batch := testing.AllocsPerRun(200, func() {
		bp := getBuf()
		*bp = appendBatchResponse(*bp, "global", queries, func(x, y float64) []int32 { return ids })
		putBuf(bp)
	})
	if batch != 0 {
		t.Fatalf("batch encode: %v allocs/op, want 0", batch)
	}
}

// TestAnswerPathZeroAllocs pins the answer-and-encode step the query
// handlers run at zero heap allocations once the id and byte pools are warm,
// for every kind, single and batch, on a built n=64 state with the dynamic
// kind on, and for a relay's state answering from its mapped file. Global
// answers are merged into the pooled id buffer; answering them through
// QueryXY, which returns a fresh slice, fails here.
func TestAnswerPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector, so two pools refill about once per run")
	}
	pts, err := dataset.Generate(dataset.Config{N: 64, Dim: 2, Dist: dataset.Independent, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	set, err := core.BuildSet(pts, core.UpdateOptions{MaxDynamicPoints: len(pts)})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "relay.sky")
	if err := store.CreateFileEpoch(path, set.Quadrant.Cells(), 1); err != nil {
		t.Fatal(err)
	}
	mapped, err := store.OpenMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	built, relay := stateFromSet(set), serveFromState(mapped)
	queries := [][]float64{{0.1, 0.9}, {0.5, 0.5}, {0.93, 0.07}, {-1, 2}, {0.31, 0.28}, {0.72, 0.41}}
	for _, c := range []struct {
		name, kind string
		st         *state
	}{
		{"quadrant", "quadrant", built},
		{"global", "global", built},
		{"dynamic", "dynamic", built},
		{"relay", "quadrant", relay},
	} {
		d, err := c.st.diagramFor(c.kind)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range []bool{false, true} {
			answer := func() {
				bp := getBuf()
				*bp = appendAnswers(*bp, d, c.kind, queries, batch, c.st.points)
				putBuf(bp)
			}
			answer() // warm both pools
			if allocs := testing.AllocsPerRun(200, answer); allocs != 0 {
				t.Fatalf("%s (batch=%v): %v allocs/op, want 0", c.name, batch, allocs)
			}
		}
	}
}

func BenchmarkEncodeSkylineResponse(b *testing.B) {
	pts := []geom.Point{geom.Pt2(3, 14, 91), geom.Pt2(8, 2.5, 0.125), geom.Pt2(10, 7, 7)}
	ids := []int32{3, 8, 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp := getBuf()
		*bp = appendSkylineResponse(*bp, "quadrant", 10.5, 80.25, ids, pts)
		putBuf(bp)
	}
}

func BenchmarkEncodeBatchResponse(b *testing.B) {
	ids := []int32{3, 8}
	queries := make([][]float64, 64)
	for i := range queries {
		queries[i] = []float64{float64(i), float64(64 - i)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp := getBuf()
		*bp = appendBatchResponse(*bp, "global", queries, func(x, y float64) []int32 { return ids })
		putBuf(bp)
	}
}
