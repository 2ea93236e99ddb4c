package quaddiag

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/grid"
)

// latticePts draws n points on a domain×domain integer lattice and then
// repeats every seventh one exactly under a new id: many points share each
// grid line, and some corners hold several points.
func latticePts(rng *rand.Rand, n, domain int) []geom.Point {
	pts := make([]geom.Point, 0, n+n/7)
	for i := 0; i < n; i++ {
		pts = append(pts, geom.Pt2(i, float64(rng.Intn(domain)), float64(rng.Intn(domain))))
	}
	for i := 0; i < n; i += 7 {
		pts = append(pts, geom.Pt2(len(pts), pts[i].X(), pts[i].Y()))
	}
	return pts
}

// multiBlockLattices returns tie-heavy lattices whose grids span at least
// 3×3 blocks of the parallel scan, so that waves hold several blocks and
// blocks read their neighbours' cells across block edges.
func multiBlockLattices(t *testing.T, rng *rand.Rand) [][]geom.Point {
	t.Helper()
	sets := [][]geom.Point{latticePts(rng, 400, 160), latticePts(rng, 240, 400)}
	for _, pts := range sets {
		if g := grid.NewGrid(pts); g.Cols() <= 2*scanBlock || g.Rows() <= 2*scanBlock {
			t.Fatalf("a %d-point lattice spans a %d×%d grid: fewer than 3×3 blocks", len(pts), g.Cols(), g.Rows())
		}
	}
	return sets
}

// TestBuildScanningParallelMatchesSerial: Algorithm 3 at every worker count
// equals the sequential baseline (Algorithm 1) on tie-heavy multi-block
// grids. The blocks of a wave read cells that other goroutines wrote on
// earlier waves, so this runs under the race detector in CI.
func TestBuildScanningParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial, pts := range multiBlockLattices(t, rng) {
		base, err := BuildBaseline(pts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			d, err := BuildScanning(pts, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !base.Equal(d) {
				t.Fatalf("trial %d workers=%d: scanning differs from baseline", trial, workers)
			}
		}
	}
	d, err := BuildScanning(nil, 4)
	if err != nil || d.Grid.NumCells() != 1 || len(d.Cell(0, 0)) != 0 {
		t.Fatalf("empty build: %v %v", d, err)
	}
	if _, err := BuildScanning([]geom.Point{geom.Pt(0, 1, 2, 3)}, 4); err == nil {
		t.Fatal("3-D input must fail")
	}
}

// TestBuildParallelDispatch: every algorithm built through Build at every
// worker count equals the baseline; only the scanning construction uses
// the workers.
func TestBuildParallelDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	pts := multiBlockLattices(t, rng)[0]
	base, err := BuildBaseline(pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{AlgBaseline, AlgDSG, AlgScanning} {
		for _, workers := range []int{1, 2, 3, 8} {
			d, err := Build(pts, alg, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !base.Equal(d) {
				t.Fatalf("alg=%s workers=%d: Build differs from the baseline", alg, workers)
			}
		}
	}
	if _, err := Build(pts, Algorithm("nope"), 4); err == nil {
		t.Fatal("unknown algorithm must propagate")
	}
}

// TestBuildGlobalParallelMatchesSerial: the global diagram built with any
// worker count, whose reflected components run concurrently above one
// worker, equals the one built from baseline components.
func TestBuildGlobalParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	pts := latticePts(rng, 60, 24)
	base, err := BuildGlobal(pts, AlgBaseline, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8} {
		gd, err := BuildGlobal(pts, AlgScanning, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < base.Grid.Cols(); i++ {
			for j := 0; j < base.Grid.Rows(); j++ {
				if !equalIDs(base.Cell(i, j), gd.Cell(i, j)) {
					t.Fatalf("workers=%d cell (%d,%d): %v vs %v", workers, i, j, base.Cell(i, j), gd.Cell(i, j))
				}
			}
		}
	}
	// Error propagation: sweeping-style failure via bad dimension.
	if _, err := BuildGlobal([]geom.Point{geom.Pt(0, 1, 2, 3)}, AlgScanning, 2); err == nil {
		t.Fatal("3-D input must fail")
	}
	if _, err := BuildGlobal(pts, Algorithm("nope"), 2); err == nil {
		t.Fatal("unknown algorithm must propagate")
	}
}

// BenchmarkBuildScanning times Algorithm 3 on independent general-position
// data, the serving stack's build, at the sizes of the write-durable and
// read-routed benchmark workloads, on one worker and on GOMAXPROCS.
func BenchmarkBuildScanning(b *testing.B) {
	for _, n := range []int{400, 1024} {
		pts, err := dataset.Generate(dataset.Config{N: n, Dim: 2, Dist: dataset.Independent, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		pts = dataset.GeneralPosition(pts)
		for _, w := range []struct {
			name    string
			workers int
		}{{"1", 1}, {"gomaxprocs", -1}} {
			b.Run(fmt.Sprintf("n=%d/workers=%s", n, w.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := BuildScanning(pts, w.workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
