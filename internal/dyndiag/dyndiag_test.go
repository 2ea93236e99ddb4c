package dyndiag

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/skyline"
)

func genPts(rng *rand.Rand, n, domain int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt2(i, float64(rng.Intn(domain)), float64(rng.Intn(domain)))
	}
	return pts
}

func TestBaselineMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		pts := genPts(rng, 2+rng.Intn(7), 20)
		d, err := BuildBaseline(pts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < d.Sub.Cols(); i++ {
			for j := 0; j < d.Sub.Rows(); j++ {
				q := d.Sub.RepresentativeQuery(i, j)
				want := dynSkyIDs(pts, q)
				if !equalIDs(d.Cell(i, j), want) {
					t.Fatalf("subcell (%d,%d): got %v want %v", i, j, d.Cell(i, j), want)
				}
			}
		}
	}
}

func TestAllAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 12; trial++ {
		// Mix of tight integer domains (coincident bisectors) and distinct
		// coordinates via general-position repair.
		var pts []geom.Point
		if trial%2 == 0 {
			pts = genPts(rng, 2+rng.Intn(9), 12)
		} else {
			pts = dataset.GeneralPosition(genPts(rng, 2+rng.Intn(9), 200))
		}
		base, err := BuildBaseline(pts)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := BuildSubset(pts)
		if err != nil {
			t.Fatal(err)
		}
		scan, err := BuildScanning(pts, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !base.Equal(sub) {
			t.Fatalf("trial %d: subset diagram differs from baseline", trial)
		}
		if !base.Equal(scan) {
			t.Fatalf("trial %d: scanning diagram differs from baseline", trial)
		}
	}
}

func TestSubcellConstancy(t *testing.T) {
	// Definition 7: every query inside one subcell has the same dynamic
	// skyline. Sample random interior points of random subcells.
	rng := rand.New(rand.NewSource(3))
	pts := genPts(rng, 8, 16)
	d, err := BuildBaseline(pts)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 400; trial++ {
		q := geom.Pt2(-1, rng.Float64()*20-2, rng.Float64()*20-2)
		i, j := d.Sub.Locate(q)
		// Skip queries exactly on subdivision lines; only interior queries
		// carry the subcell's result.
		r := d.Sub.SubcellRect(i, j)
		if q.X() == r.Lo[0] || q.Y() == r.Lo[1] {
			continue
		}
		want := dynSkyIDs(pts, q)
		if !equalIDs(d.Cell(i, j), want) {
			t.Fatalf("q=%v in subcell (%d,%d): diagram %v oracle %v", q, i, j, d.Cell(i, j), want)
		}
	}
}

func TestQueryMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := genPts(rng, 10, 32)
	d, err := BuildScanning(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 300; trial++ {
		q := geom.Pt2(-1, rng.Float64()*36-2, rng.Float64()*36-2)
		i, j := d.Sub.Locate(q)
		r := d.Sub.SubcellRect(i, j)
		if q.X() == r.Lo[0] || q.Y() == r.Lo[1] {
			continue
		}
		got := d.Query(q)
		want := dynSkyIDs(pts, q)
		if !equalIDs(got, want) {
			t.Fatalf("q=%v: got %v want %v", q, got, want)
		}
	}
}

func TestDynamicSubsetOfGlobalPerSubcell(t *testing.T) {
	// The containment Algorithm 6 relies on, verified subcell by subcell.
	rng := rand.New(rand.NewSource(5))
	pts := genPts(rng, 7, 16)
	d, err := BuildBaseline(pts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.Sub.Cols(); i++ {
		for j := 0; j < d.Sub.Rows(); j++ {
			q := d.Sub.RepresentativeQuery(i, j)
			glob := make(map[int]bool)
			for _, p := range skyline.GlobalSkyline(pts, q) {
				glob[p.ID] = true
			}
			for _, id := range d.Cell(i, j) {
				if !glob[int(id)] {
					t.Fatalf("subcell (%d,%d): dynamic point %d not global", i, j, id)
				}
			}
		}
	}
}

func TestHotelsDynamicDiagram(t *testing.T) {
	hotels := dataset.Hotels()
	d, err := BuildScanning(hotels, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := d.Query(dataset.HotelQuery())
	if !equalIDs(got, []int32{6, 11}) {
		t.Fatalf("dynamic query = %v, want [6 11]", got)
	}
	if _, err := d.Merge(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildDispatchAndErrors(t *testing.T) {
	pts := genPts(rand.New(rand.NewSource(6)), 4, 8)
	for _, alg := range []Algorithm{AlgBaseline, AlgSubset, AlgScanning} {
		if _, err := Build(pts, alg, 1); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
	}
	if _, err := Build(pts, Algorithm("nope"), 1); err == nil {
		t.Fatal("unknown algorithm must fail")
	}
	if _, err := BuildBaseline([]geom.Point{geom.Pt(0, 1, 2, 3)}); err == nil {
		t.Fatal("3-D input must fail")
	}
}

func TestEmptyAndSingle(t *testing.T) {
	for _, alg := range []Algorithm{AlgBaseline, AlgSubset, AlgScanning} {
		d, err := Build(nil, alg, 1)
		if err != nil {
			t.Fatalf("%s empty: %v", alg, err)
		}
		if d.Sub.NumSubcells() != 1 || len(d.Cell(0, 0)) != 0 {
			t.Fatalf("%s: empty dataset should give one empty subcell", alg)
		}
		one := []geom.Point{geom.Pt2(3, 5, 5)}
		d, err = Build(one, alg, 1)
		if err != nil {
			t.Fatalf("%s single: %v", alg, err)
		}
		// A single point is the dynamic skyline everywhere.
		for i := 0; i < d.Sub.Cols(); i++ {
			for j := 0; j < d.Sub.Rows(); j++ {
				if got := d.Cell(i, j); len(got) != 1 || got[0] != 3 {
					t.Fatalf("%s: subcell (%d,%d) = %v", alg, i, j, got)
				}
			}
		}
	}
}

// TestBuildScanningParallelMatchesSerial: Algorithm 7 at every worker count
// equals the baseline (Algorithm 5) on tie-heavy lattices, where bisectors
// coincide with grid lines, and on general-position data. The rows run on
// several goroutines from the shared row starts, so this runs under the race
// detector in CI.
func TestBuildScanningParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for trial, pts := range [][]geom.Point{
		genPts(rng, 24, 16),
		genPts(rng, 16, 8),
		dataset.GeneralPosition(genPts(rng, 12, 500)),
	} {
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
	empty, err := BuildScanning(nil, 2)
	if err != nil || empty.Sub.NumSubcells() != 1 {
		t.Fatalf("empty scanning: %v %v", empty, err)
	}
	if _, err := BuildScanning([]geom.Point{geom.Pt(0, 1, 2, 3)}, 2); err == nil {
		t.Fatal("3-D input must fail")
	}
}

// TestBuildParallelDispatchMatchesSerial: every algorithm built through
// Build at every worker count equals the baseline, on tied and
// general-position data; only the scanning construction uses the workers.
func TestBuildParallelDispatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	for trial, pts := range [][]geom.Point{
		genPts(rng, 16, 12),
		dataset.GeneralPosition(genPts(rng, 9, 500)),
	} {
		base, err := BuildBaseline(pts)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []Algorithm{AlgBaseline, AlgSubset, AlgScanning} {
			for _, workers := range []int{1, 2, 3, 8} {
				d, err := Build(pts, alg, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !base.Equal(d) {
					t.Fatalf("trial %d alg=%s workers=%d: Build differs from the baseline", trial, alg, workers)
				}
			}
		}
	}
	if _, err := Build(genPts(rng, 10, 16), Algorithm("nope"), 4); err == nil {
		t.Fatal("unknown algorithm must propagate")
	}
}
