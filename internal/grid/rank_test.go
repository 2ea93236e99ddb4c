package grid

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

// dedupSorted sorts vs ascending and removes duplicates, mirroring
// geom.SortedAxis so tests can build axes from arbitrary float sets.
func dedupSorted(vs []float64) []float64 {
	sort.Float64s(vs)
	out := vs[:0]
	for i, v := range vs {
		if i == 0 || v != vs[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// probesFor returns an adversarial probe set for an axis: every grid value
// itself (the on-grid-line boundary case), one ulp on either side, midpoints
// of adjacent values, the documented specials, and random draws.
func probesFor(vs []float64, rng *rand.Rand) []float64 {
	probes := []float64{
		math.NaN(), math.Inf(-1), math.Inf(1),
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64,
	}
	for i, v := range vs {
		probes = append(probes,
			v,
			math.Nextafter(v, math.Inf(-1)),
			math.Nextafter(v, math.Inf(1)),
		)
		if i > 0 {
			probes = append(probes, (vs[i-1]+v)/2)
		}
	}
	if rng != nil {
		for k := 0; k < 200; k++ {
			probes = append(probes, rng.NormFloat64()*100)
		}
	}
	return probes
}

func checkRankMatchesLocate(t *testing.T, vs []float64, probes []float64) {
	t.Helper()
	r := NewRank(vs)
	for _, q := range probes {
		want := locate(vs, q)
		if got := r.Rank(q); got != want {
			t.Fatalf("Rank(%v) = %d, locate = %d (axis len %d, dense=%v)",
				q, got, want, len(vs), r.Dense())
		}
	}
}

// TestRankBoundaryAudit is the satellite-3 audit: the rank table must
// reproduce locate's documented contract on every boundary case — NaN in
// cell 0, queries exactly on a grid line taking the upper cell, and ±inf at
// the extremes — including on axes that themselves contain ±inf (which
// disable the dense path).
func TestRankBoundaryAudit(t *testing.T) {
	axes := [][]float64{
		{},
		{5},
		{1, 2},
		{-3, 0, 7, 7.5, 100},
		{math.Copysign(0, -1), 1},           // -0 grid line
		{math.Inf(-1), 0, 1},                // -inf grid value
		{0, 1, math.Inf(1)},                 // +inf grid value
		{math.Inf(-1), math.Inf(1)},         // only infinities
		{-math.MaxFloat64, math.MaxFloat64}, // span overflows to +inf
		{1e300, 2e300, 3e300},               // huge but finite span
		{0, math.SmallestNonzeroFloat64},    // denormal span
		{1, 1 + 1e-15, 2},                   // near-duplicate values
		{0, 1e-308, 2e-308, 1},              // denormals inside
		{-1e-300, 0, 1e-300},                // tiny symmetric span
		{2.5, 2.5000000000000004, 2.500000000000001, 9}, // adjacent ulps
	}
	for _, vs := range axes {
		checkRankMatchesLocate(t, vs, probesFor(vs, nil))
	}

	// Explicit spot checks of the documented conventions on a dense axis.
	vs := []float64{10, 20, 30, 40}
	r := NewRank(vs)
	if !r.Dense() {
		t.Fatal("expected dense rank table")
	}
	cases := []struct {
		q    float64
		want int
	}{
		{math.NaN(), 0},   // NaN lands in cell 0
		{math.Inf(-1), 0}, // below everything
		{9.999, 0},        // strictly below first line
		{10, 1},           // exactly on a grid line -> upper cell
		{20, 2},           // interior grid line
		{40, 4},           // last grid line
		{39.999, 3},       // just below last line
		{math.Inf(1), 4},  // above everything
		{math.MaxFloat64, 4},
	}
	for _, c := range cases {
		if got := r.Rank(c.q); got != c.want {
			t.Errorf("Rank(%v) = %d, want %d", c.q, got, c.want)
		}
	}
}

// TestRankDifferentialRandom is the randomized property test: for many
// random axes — clustered (duplicate-heavy before dedup), uniform, denormal,
// and mixed-magnitude — Rank must equal locate on an adversarial probe set.
func TestRankDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gen := []func(n int) []float64{
		func(n int) []float64 { // uniform
			vs := make([]float64, n)
			for i := range vs {
				vs[i] = rng.Float64() * 1000
			}
			return vs
		},
		func(n int) []float64 { // clustered: many duplicates pre-dedup
			vs := make([]float64, n)
			for i := range vs {
				vs[i] = float64(rng.Intn(n/4 + 1))
			}
			return vs
		},
		func(n int) []float64 { // mixed magnitudes incl. denormals
			vs := make([]float64, n)
			for i := range vs {
				vs[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(600)-308))
			}
			return vs
		},
		func(n int) []float64 { // tight cluster: adjacent ulps
			base := rng.NormFloat64()
			vs := make([]float64, n)
			v := base
			for i := range vs {
				vs[i] = v
				v = math.Nextafter(v, math.Inf(1))
			}
			return vs
		},
	}
	for gi, g := range gen {
		for _, n := range []int{1, 2, 3, 7, 50, 300} {
			vs := dedupSorted(g(n))
			checkRankMatchesLocate(t, vs, probesFor(vs, rng))
			_ = gi
		}
	}
}

// TestLocateXYMatchesReferenceAllKinds checks the wired-in fast paths of
// both ranked grid kinds, Grid and SubGrid, against the binary-search
// reference, over point sets with duplicate coordinates and boundary values.
func TestLocateXYMatchesReferenceAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	pts := make([]geom.Point, 120)
	for i := range pts {
		x := float64(rng.Intn(40)) // heavy coordinate duplication
		y := rng.Float64() * 50
		if i%17 == 0 {
			y = math.SmallestNonzeroFloat64 * float64(i)
		}
		pts[i] = geom.Pt2(i, x, y)
	}

	g := NewGrid(pts)
	for _, x := range probesFor(g.Xs, rng) {
		for _, y := range []float64{math.NaN(), math.Inf(-1), -1, 0, 3, 17.2, math.Inf(1)} {
			i, j := g.LocateXY(x, y)
			wi, wj := locate(g.Xs, x), locate(g.Ys, y)
			if i != wi || j != wj {
				t.Fatalf("Grid.LocateXY(%v,%v) = (%d,%d), want (%d,%d)", x, y, i, j, wi, wj)
			}
		}
	}

	sg := NewSubGrid(pts[:24]) // subgrid axes are O(n^2); keep it small
	for _, x := range probesFor(sg.xs, rng)[:300] {
		i, j := sg.LocateXY(x, x/2)
		wi, wj := locate(sg.xs, x), locate(sg.ys, x/2)
		if i != wi || j != wj {
			t.Fatalf("SubGrid.LocateXY(%v) = (%d,%d), want (%d,%d)", x, i, j, wi, wj)
		}
	}
}

// TestRankZeroAllocs pins the fast path at zero heap allocations — the
// serving contract the rank table exists for.
func TestRankZeroAllocs(t *testing.T) {
	vs := make([]float64, 600)
	for i := range vs {
		vs[i] = float64(i) * 1.7
	}
	r := NewRank(vs)
	allocs := testing.AllocsPerRun(200, func() {
		r.Rank(123.4)
		r.Rank(math.NaN())
		r.Rank(1e9)
	})
	if allocs != 0 {
		t.Fatalf("Rank: %v allocs/op, want 0", allocs)
	}
}

// FuzzRankLocate fuzzes the differential property directly: any axis built
// from the fuzzed floats (sorted, deduped) must give Rank == locate for the
// fuzzed query, NaNs and infinities included.
func FuzzRankLocate(f *testing.F) {
	f.Add(1.0, 2.0, 3.0, 4.0, 2.5)
	f.Add(0.0, math.Copysign(0, -1), 1.0, 1.0, 0.0)
	f.Add(math.Inf(-1), 0.0, math.Inf(1), math.NaN(), math.NaN())
	f.Add(1e-308, 2e-308, 3e-308, 4e-308, 2e-308)
	f.Add(-math.MaxFloat64, math.MaxFloat64, 0.0, 1.0, 5e307)
	f.Fuzz(func(t *testing.T, a, b, c, d, q float64) {
		raw := []float64{a, b, c, d}
		// sort.Float64s treats NaN as less than everything; drop NaNs so the
		// axis is genuinely sorted, then dedup. (NaN *grid values* are not a
		// supported axis; NaN queries are, and q stays unconstrained.)
		vals := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) {
				vals = append(vals, v)
			}
		}
		vs := dedupSorted(vals)
		r := NewRank(vs)
		for _, probe := range []float64{q, a, b, math.Nextafter(q, math.Inf(1))} {
			if got, want := r.Rank(probe), locate(vs, probe); got != want {
				t.Fatalf("Rank(%v) = %d, locate = %d (axis %v)", probe, got, want, vs)
			}
		}
	})
}

// The bench.sh locate gate: BenchmarkLocateRank must beat
// BenchmarkLocateBinary (and stay at 0 allocs/op). Both walk the same probe
// sequence over a 600-line axis, the size of the serving benchmarks' grids.
func benchAxis() ([]float64, []float64) {
	vs := make([]float64, 600)
	for i := range vs {
		vs[i] = float64(i) * 1.618
	}
	probes := make([]float64, 1024)
	rng := rand.New(rand.NewSource(5))
	for i := range probes {
		probes[i] = rng.Float64() * 1000
	}
	return vs, probes
}

func BenchmarkLocateRank(b *testing.B) {
	vs, probes := benchAxis()
	r := NewRank(vs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Rank(probes[i&1023])
	}
}

func BenchmarkLocateBinary(b *testing.B) {
	vs, probes := benchAxis()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		locate(vs, probes[i&1023])
	}
}
