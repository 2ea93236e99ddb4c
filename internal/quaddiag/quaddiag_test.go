package quaddiag

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/polyomino"
	"repro/internal/skyline"
)

// genGP produces a general-position dataset by drawing random integer ranks
// and repairing ties.
func genGP(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt2(i, float64(rng.Intn(4*n+1)), float64(rng.Intn(4*n+1)))
	}
	return dataset.GeneralPosition(pts)
}

func TestBaselineMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		pts := genGP(rng, 3+rng.Intn(20))
		d, err := BuildBaseline(pts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < d.Grid.Cols(); i++ {
			for j := 0; j < d.Grid.Rows(); j++ {
				want := oracleCell(pts, d.Grid, i, j)
				if !equalIDs(d.Cell(i, j), want) {
					t.Fatalf("cell (%d,%d): got %v want %v", i, j, d.Cell(i, j), want)
				}
			}
		}
	}
}

func TestBaselineHandlesTies(t *testing.T) {
	// The baseline must stay oracle-correct on inputs with duplicate
	// coordinates and duplicate points.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 8; trial++ {
		pts := make([]geom.Point, 15)
		for i := range pts {
			pts[i] = geom.Pt2(i, float64(rng.Intn(5)), float64(rng.Intn(5)))
		}
		d, err := BuildBaseline(pts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < d.Grid.Cols(); i++ {
			for j := 0; j < d.Grid.Rows(); j++ {
				want := oracleCell(pts, d.Grid, i, j)
				if !equalIDs(d.Cell(i, j), want) {
					t.Fatalf("cell (%d,%d): got %v want %v", i, j, d.Cell(i, j), want)
				}
			}
		}
	}
}

func TestAllAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		pts := genGP(rng, 1+rng.Intn(40))
		base, err := BuildBaseline(pts)
		if err != nil {
			t.Fatal(err)
		}
		viaDSG, err := BuildDSG(pts)
		if err != nil {
			t.Fatal(err)
		}
		viaScan, err := BuildScanning(pts, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !base.Equal(viaDSG) {
			t.Fatalf("trial %d: DSG diagram differs from baseline", trial)
		}
		if !base.Equal(viaScan) {
			t.Fatalf("trial %d: scanning diagram differs from baseline", trial)
		}
	}
}

func TestTheorem1HoldsOnBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		pts := genGP(rng, 2+rng.Intn(30))
		d, err := BuildBaseline(pts)
		if err != nil {
			t.Fatal(err)
		}
		if i, j := VerifyTheorem1(d); i != -1 {
			t.Fatalf("trial %d: Theorem 1 violated at cell (%d,%d)", trial, i, j)
		}
	}
}

func TestSweepingRejectsTies(t *testing.T) {
	pts := []geom.Point{geom.Pt2(0, 1, 2), geom.Pt2(1, 1, 3)}
	if _, err := BuildSweeping(pts); err == nil {
		t.Error("sweeping must reject ties")
	}
}

func TestAlgorithmsAgreeOnTies(t *testing.T) {
	// DSG and scanning extend beyond the paper's general-position assumption:
	// coincident grid lines (limited integer domains, exact duplicates) must
	// still reproduce the baseline exactly.
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(40)
		dom := 3 + rng.Intn(8)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt2(i, float64(rng.Intn(dom)), float64(rng.Intn(dom)))
		}
		base, err := BuildBaseline(pts)
		if err != nil {
			t.Fatal(err)
		}
		viaDSG, err := BuildDSG(pts)
		if err != nil {
			t.Fatal(err)
		}
		viaScan, err := BuildScanning(pts, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !base.Equal(viaDSG) {
			t.Fatalf("trial %d: DSG differs from baseline on tied data", trial)
		}
		if !base.Equal(viaScan) {
			t.Fatalf("trial %d: scanning differs from baseline on tied data", trial)
		}
	}
}

func TestRejectWrongDimension(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 1, 2, 3)}
	for _, alg := range []Algorithm{AlgBaseline, AlgDSG, AlgScanning} {
		if _, err := Build(pts, alg, 1); err == nil {
			t.Error("3-D input must be rejected by planar constructions")
		}
	}
	if _, err := BuildSweeping(pts); err == nil {
		t.Error("sweeping must reject 3-D input")
	}
	if _, err := BuildGlobal(pts, AlgBaseline, 1); err == nil {
		t.Error("global must reject 3-D input")
	}
	if _, err := Build(nil, Algorithm("nope"), 1); err == nil {
		t.Error("unknown algorithm must be rejected")
	}
}

func TestEmptyAndSingle(t *testing.T) {
	for _, alg := range []Algorithm{AlgBaseline, AlgDSG, AlgScanning} {
		d, err := Build(nil, alg, 1)
		if err != nil {
			t.Fatal(err)
		}
		if d.Grid.NumCells() != 1 || len(d.Cell(0, 0)) != 0 {
			t.Fatal("empty dataset: one empty cell expected")
		}
		one := []geom.Point{geom.Pt2(7, 3, 4)}
		d, err = Build(one, alg, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := d.Cell(0, 0); len(got) != 1 || got[0] != 7 {
			t.Fatalf("cell (0,0) = %v", got)
		}
		if got := d.Cell(1, 1); len(got) != 0 {
			t.Fatalf("cell (1,1) = %v", got)
		}
	}
	sw, err := BuildSweeping(nil)
	if err != nil || len(sw.Rings) != 0 {
		t.Fatalf("empty sweeping: %v %v", sw, err)
	}
}

func TestDiagramQueryMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := genGP(rng, 35)
	d, err := BuildScanning(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 300; trial++ {
		// Interior queries: never exactly on a grid line.
		q := geom.Pt2(-1, rng.Float64()*160-10, rng.Float64()*160-10)
		got := d.Query(q)
		want := geom.SortIDs(geom.IDs(skyline.QuadrantSkyline(pts, q, 0)))
		if len(got) != len(want) {
			t.Fatalf("q=%v: got %v want %v", q, got, want)
		}
		for k := range want {
			if int(got[k]) != want[k] {
				t.Fatalf("q=%v: got %v want %v", q, got, want)
			}
		}
	}
}

func TestSweepingPartitionMatchesMerged(t *testing.T) {
	// The central cross-check of Section IV: merging equal-result cells from
	// any cell-level algorithm must yield exactly the polyomino subdivision
	// the sweeping algorithm draws (Theorem 2 regions are maximal).
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 12; trial++ {
		pts := genGP(rng, 1+rng.Intn(30))
		d, err := BuildScanning(pts, 1)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := d.Merge()
		if err != nil {
			t.Fatal(err)
		}
		sw, err := BuildSweeping(pts)
		if err != nil {
			t.Fatal(err)
		}
		sample := func(i, j int) (float64, float64) {
			c := d.Grid.CellRect(i, j).Center()
			return c.X(), c.Y()
		}
		ras, err := polyomino.Rasterize(d.Grid.Cols(), d.Grid.Rows(), sw.Rings, sample)
		if err != nil {
			t.Fatal(err)
		}
		if !merged.Equal(ras) {
			t.Fatalf("trial %d (n=%d): sweeping partition differs from merged cells\nmerged: %d regions %v\nsweep: %d regions %v",
				trial, len(pts), merged.NumRegions, merged.Labels, ras.NumRegions, ras.Labels)
		}
		if !polyomino.Connected(merged) {
			t.Fatalf("trial %d: merged partition not connected", trial)
		}
	}
}

func TestSweepingRingAndCornerCount(t *testing.T) {
	// #polyominoes = n + #{(q,p) : q.x < p.x, q.y > p.y} and the merged
	// partition has exactly one extra region (the empty up-right region).
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		pts := genGP(rng, 1+rng.Intn(25))
		sw, err := BuildSweeping(pts)
		if err != nil {
			t.Fatal(err)
		}
		pairs := 0
		for _, q := range pts {
			for _, p := range pts {
				if q.X() < p.X() && q.Y() > p.Y() {
					pairs++
				}
			}
		}
		if len(sw.Rings) != len(pts)+pairs {
			t.Fatalf("rings = %d, want n+pairs = %d", len(sw.Rings), len(pts)+pairs)
		}
		d, err := BuildScanning(pts, 1)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := d.Merge()
		if err != nil {
			t.Fatal(err)
		}
		if merged.NumRegions != len(sw.Rings)+1 {
			t.Fatalf("merged regions = %d, rings+1 = %d", merged.NumRegions, len(sw.Rings)+1)
		}
	}
}

func TestGlobalMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	chain := rand.New(rand.NewSource(9))
	for _, alg := range []Algorithm{AlgBaseline, AlgDSG, AlgScanning} {
		pts := genGP(rng, 25)
		gd, err := BuildGlobal(pts, alg, 1)
		if err != nil {
			t.Fatal(err)
		}
		checkGlobalOracle(t, fmt.Sprintf("%s build", alg), gd)
		if _, err := gd.Merge(); err != nil {
			t.Fatal(err)
		}
		// The components stay right, read through their flips, along a chain
		// of maintained inserts and deletes and after compaction.
		for step := 0; step < 8; step++ {
			if step%3 == 2 {
				gd, err = deleteGlobal(gd, gd.Points[chain.Intn(len(gd.Points))].ID)
			} else {
				gd, err = insertGlobal(gd, geom.Pt2(100+step, chain.Float64()*100, chain.Float64()*100))
			}
			if err != nil {
				t.Fatal(err)
			}
			checkGlobalOracle(t, fmt.Sprintf("%s step %d", alg, step), gd)
		}
		checkGlobalOracle(t, fmt.Sprintf("%s compacted", alg), compactGlobal(gd))
	}
}

// TestGlobalMergeMatchesMergeCells checks the global Merge, which compares
// neighbouring cells by merging their components into two reused buffers,
// against the generic merge over freshly merged cells. Domain-16 data has
// duplicate coordinates, so equal neighbouring unions are common. Equal,
// which shares Merge's comparison, must also tell a relabelled copy apart.
func TestGlobalMergeMatchesMergeCells(t *testing.T) {
	for _, n := range []int{1, 2, 5, 30, 120} {
		for seed := int64(1); seed <= 5; seed++ {
			pts, err := dataset.Generate(dataset.Config{N: n, Dim: 2, Dist: dataset.Independent, Domain: 16, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			gd, err := BuildGlobal(pts, AlgScanning, 1)
			if err != nil {
				t.Fatal(err)
			}
			got, err := gd.Merge()
			if err != nil {
				t.Fatal(err)
			}
			want, err := polyomino.MergeCells(gd.Grid.Cols(), gd.Grid.Rows(), gd.Cell)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("n=%d seed=%d: Merge has %d regions, MergeCells over Cell %d",
					n, seed, got.NumRegions, want.NumRegions)
			}
			relabelled := append([]geom.Point(nil), pts...)
			relabelled[0].ID += 1000
			other, err := BuildGlobal(relabelled, AlgScanning, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !gd.Equal(gd) || gd.Equal(other) {
				t.Fatalf("n=%d seed=%d: Equal must hold for the diagram itself and fail for a relabelled copy", n, seed)
			}
		}
	}
}

// checkGlobalOracle compares every cell of gd, and each of its four quadrant
// components, with the from-scratch skylines at the cell's centre.
func checkGlobalOracle(t *testing.T, ctx string, gd *GlobalDiagram) {
	t.Helper()
	for i := 0; i < gd.Grid.Cols(); i++ {
		for j := 0; j < gd.Grid.Rows(); j++ {
			q := gd.Grid.CellRect(i, j).Center()
			want := toInt32(geom.SortIDs(geom.IDs(skyline.GlobalSkyline(gd.Points, q))))
			if got := gd.Cell(i, j); !equalIDs(got, want) {
				t.Fatalf("%s cell (%d,%d): got %v want %v", ctx, i, j, got, want)
			}
			for mask := 0; mask < 4; mask++ {
				qw := toInt32(geom.SortIDs(geom.IDs(skyline.QuadrantSkyline(gd.Points, q, mask))))
				if qg := gd.QuadrantCell(mask, i, j); !equalIDs(qg, qw) {
					t.Fatalf("%s quadrant %d cell (%d,%d): got %v want %v", ctx, mask, i, j, qg, qw)
				}
			}
		}
	}
}

func toInt32(ids []int) []int32 {
	out := make([]int32, len(ids))
	for k, id := range ids {
		out[k] = int32(id)
	}
	return out
}

func TestGlobalQuery(t *testing.T) {
	hotels := dataset.Hotels()
	gd, err := BuildGlobal(hotels, AlgScanning, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := gd.Query(dataset.HotelQuery())
	want := []int32{3, 6, 8, 10, 11}
	if !equalIDs(got, want) {
		t.Fatalf("global query = %v, want %v", got, want)
	}
}

func TestHotelQuadrantDiagram(t *testing.T) {
	hotels := dataset.Hotels()
	d, err := BuildScanning(hotels, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := d.Query(dataset.HotelQuery())
	want := []int32{3, 8, 10}
	if !equalIDs(got, want) {
		t.Fatalf("quadrant query = %v, want %v", got, want)
	}
	stats, err := d.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.N != 11 || stats.Cells != 144 || stats.Polyominoes < 2 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestResolveAndQueryPoints(t *testing.T) {
	hotels := dataset.Hotels()
	d, err := BuildBaseline(hotels)
	if err != nil {
		t.Fatal(err)
	}
	pts := d.QueryPoints(dataset.HotelQuery())
	if len(pts) != 3 {
		t.Fatalf("QueryPoints = %v", pts)
	}
	for _, p := range pts {
		if p.ID != 3 && p.ID != 8 && p.ID != 10 {
			t.Fatalf("unexpected point %v", p)
		}
	}
}

func TestMergeSubtract(t *testing.T) {
	cases := []struct{ a, b, c, want []int32 }{
		{[]int32{1, 3}, []int32{2, 3}, []int32{3}, []int32{1, 2, 3}},
		{[]int32{1, 2}, []int32{1, 2}, []int32{1, 2}, []int32{1, 2}},
		{nil, []int32{5}, nil, []int32{5}},
		{nil, nil, nil, nil},
		{[]int32{1}, []int32{2}, []int32{1, 2}, nil},
	}
	for _, c := range cases {
		got := mergeSubtract(c.a, c.b, c.c)
		if !equalIDs(got, c.want) {
			t.Errorf("mergeSubtract(%v,%v,%v) = %v, want %v", c.a, c.b, c.c, got, c.want)
		}
	}
}

func TestCornerIndexAtUpperRight(t *testing.T) {
	pts := []geom.Point{geom.Pt2(0, 1, 10), geom.Pt2(1, 3, 30), geom.Pt2(2, 1, 10)}
	corners := newCornerIndex(grid.NewGrid(pts), pts)
	if ids := corners.appendAtUpperRight(nil, 0, 0); !equalIDs(ids, []int32{0, 2}) {
		t.Fatalf("cell (0,0) upper-right should hold the duplicate pair, got %v", ids)
	}
	if ids := corners.appendAtUpperRight(nil, 0, 1); len(ids) != 0 {
		t.Fatalf("cell (0,1) has corner (1,30), no point there, got %v", ids)
	}
	if ids := corners.appendAtUpperRight(nil, 1, 1); !equalIDs(ids, []int32{1}) {
		t.Fatalf("cell (1,1) upper-right holds point 1, got %v", ids)
	}
	for _, c := range [][2]int{{2, 2}, {2, 0}, {0, 2}} {
		if ids := corners.appendAtUpperRight(nil, c[0], c[1]); len(ids) != 0 {
			t.Fatalf("cell %v on the last column or row has no finite upper-right corner, got %v", c, ids)
		}
	}
	// Appending keeps what dst holds.
	if ids := corners.appendAtUpperRight([]int32{9}, 0, 0); !equalIDs(ids, []int32{9, 0, 2}) {
		t.Fatalf("append onto [9]: got %v", ids)
	}
}

func TestDSGFullMatchesBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 8; trial++ {
		pts := genGP(rng, 1+rng.Intn(30))
		base, err := BuildBaseline(pts)
		if err != nil {
			t.Fatal(err)
		}
		full, err := BuildDSGFull(pts)
		if err != nil {
			t.Fatal(err)
		}
		if !base.Equal(full) {
			t.Fatalf("trial %d: full-link DSG differs from baseline", trial)
		}
	}
}
