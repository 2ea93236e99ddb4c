package safezone

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dyndiag"
	"repro/internal/geom"
	"repro/internal/quaddiag"
	"repro/internal/skyline"
)

func randPath(rng *rand.Rand, scale float64) Path {
	return Path{
		Start:    geom.Pt2(-1, rng.Float64()*scale, rng.Float64()*scale),
		Velocity: geom.Pt2(-1, (rng.Float64()-0.5)*scale, (rng.Float64()-0.5)*scale),
		Duration: 1,
	}
}

// sampleCheck verifies a timeline by dense sampling against an oracle.
func sampleCheck(t *testing.T, tl []Interval, path Path, oracle func(geom.Point) []int) {
	t.Helper()
	if tl[0].T0 != 0 || tl[len(tl)-1].T1 != path.Duration {
		t.Fatalf("timeline does not cover [0,%g]: %+v", path.Duration, tl)
	}
	for k := 1; k < len(tl); k++ {
		if tl[k].T0 != tl[k-1].T1 {
			t.Fatalf("timeline gap between %d and %d", k-1, k)
		}
		if equalIDs(tl[k].IDs, tl[k-1].IDs) {
			t.Fatalf("adjacent intervals %d,%d share the same result (should be merged)", k-1, k)
		}
	}
	for s := 0; s <= 400; s++ {
		tm := path.Duration * float64(s) / 400
		q := path.At(tm)
		want := oracle(q)
		// Find the covering interval; boundary samples may land on a
		// subdivision line where the result legitimately belongs to either
		// side — skip exact boundary hits.
		var got []int32
		boundary := false
		for _, iv := range tl {
			if tm == iv.T0 || tm == iv.T1 {
				boundary = true
			}
			if tm >= iv.T0 && (tm < iv.T1 || (tm == iv.T1 && iv.T1 == path.Duration)) {
				got = iv.IDs
				break
			}
		}
		if boundary {
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("t=%g q=%v: got %v want %v", tm, q, got, want)
		}
		for i := range want {
			if int(got[i]) != want[i] {
				t.Fatalf("t=%g q=%v: got %v want %v", tm, q, got, want)
			}
		}
	}
}

func TestQuadrantTimeline(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := dataset.GeneralPosition(func() []geom.Point {
		ps := make([]geom.Point, 30)
		for i := range ps {
			ps[i] = geom.Pt2(i, rng.Float64()*100, rng.Float64()*100)
		}
		return ps
	}())
	d, err := quaddiag.BuildScanning(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		path := randPath(rng, 100)
		tl, err := ForQuadrant(d, path)
		if err != nil {
			t.Fatal(err)
		}
		sampleCheck(t, tl, path, func(q geom.Point) []int {
			return geom.SortIDs(geom.IDs(skyline.QuadrantSkyline(pts, q, 0)))
		})
	}
}

func TestGlobalTimeline(t *testing.T) {
	hotels := dataset.Hotels()
	gd, err := quaddiag.BuildGlobal(hotels, quaddiag.AlgScanning, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := Path{Start: geom.Pt2(-1, 0.5, 60.5), Velocity: geom.Pt2(-1, 30, 45), Duration: 1}
	tl, err := ForGlobal(gd, path)
	if err != nil {
		t.Fatal(err)
	}
	sampleCheck(t, tl, path, func(q geom.Point) []int {
		return geom.SortIDs(geom.IDs(skyline.GlobalSkyline(hotels, q)))
	})
	if Changes(tl) == 0 {
		t.Fatal("a diagonal sweep across all hotels should change the result")
	}
}

func TestDynamicTimeline(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := make([]geom.Point, 8)
	for i := range pts {
		pts[i] = geom.Pt2(i, float64(rng.Intn(16)), float64(rng.Intn(16)))
	}
	d, err := dyndiag.BuildScanning(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		path := randPath(rng, 16)
		tl, err := ForDynamic(d, path)
		if err != nil {
			t.Fatal(err)
		}
		sampleCheck(t, tl, path, func(q geom.Point) []int {
			return geom.SortIDs(geom.IDs(skyline.DynamicSkyline(pts, q)))
		})
	}
}

func TestPathEdgeCases(t *testing.T) {
	hotels := dataset.Hotels()
	d, err := quaddiag.BuildScanning(hotels, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Stationary query: one interval.
	still := Path{Start: dataset.HotelQuery(), Velocity: geom.Pt2(-1, 0, 0), Duration: 5}
	tl, err := ForQuadrant(d, still)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl) != 1 || Changes(tl) != 0 {
		t.Fatalf("stationary timeline = %+v", tl)
	}
	// Zero duration.
	inst := Path{Start: dataset.HotelQuery(), Velocity: geom.Pt2(-1, 1, 1), Duration: 0}
	tl, err = ForQuadrant(d, inst)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl) != 1 {
		t.Fatalf("instant timeline = %+v", tl)
	}
	// Axis-parallel motion.
	horiz := Path{Start: geom.Pt2(-1, 0, 80.5), Velocity: geom.Pt2(-1, 40, 0), Duration: 1}
	if _, err := ForQuadrant(d, horiz); err != nil {
		t.Fatal(err)
	}
	// Invalid paths.
	if _, err := ForQuadrant(d, Path{Start: geom.Pt(0, 1, 2, 3), Velocity: geom.Pt2(-1, 0, 0), Duration: 1}); err == nil {
		t.Fatal("3-D path must fail")
	}
	if _, err := ForQuadrant(d, Path{Start: geom.Pt2(-1, 0, 0), Velocity: geom.Pt2(-1, 1, 1), Duration: -1}); err == nil {
		t.Fatal("negative duration must fail")
	}
}

func TestPolylineTimeline(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := dataset.GeneralPosition(func() []geom.Point {
		ps := make([]geom.Point, 20)
		for i := range ps {
			ps[i] = geom.Pt2(i, rng.Float64()*50, rng.Float64()*50)
		}
		return ps
	}())
	d, err := quaddiag.BuildScanning(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	waypoints := []geom.Point{
		geom.Pt2(-1, 1.5, 1.5),
		geom.Pt2(-1, 40.5, 10.5),
		geom.Pt2(-1, 10.5, 45.5),
		geom.Pt2(-1, 48.5, 48.5),
	}
	tl, err := PolylineForQuadrant(d, waypoints)
	if err != nil {
		t.Fatal(err)
	}
	if tl[0].T0 != 0 || tl[len(tl)-1].T1 != 3 {
		t.Fatalf("timeline does not span [0,3]: %v..%v", tl[0].T0, tl[len(tl)-1].T1)
	}
	// No gaps, no unmerged neighbours.
	for k := 1; k < len(tl); k++ {
		if tl[k].T0 != tl[k-1].T1 {
			t.Fatal("gap in polyline timeline")
		}
		if equalIDs(tl[k].IDs, tl[k-1].IDs) {
			t.Fatal("adjacent equal intervals not merged")
		}
	}
	// Dense samples agree with the oracle (skipping boundary hits).
	for s := 1; s < 300; s++ {
		tm := 3 * float64(s) / 300
		k := int(tm)
		if k >= len(waypoints)-1 {
			k = len(waypoints) - 2
		}
		frac := tm - float64(k)
		a, b := waypoints[k], waypoints[k+1]
		q := geom.Pt2(-1, a.X()+frac*(b.X()-a.X()), a.Y()+frac*(b.Y()-a.Y()))
		var got []int32
		onBoundary := false
		for _, iv := range tl {
			if tm == iv.T0 || tm == iv.T1 {
				onBoundary = true
			}
			if tm >= iv.T0 && tm < iv.T1 {
				got = iv.IDs
				break
			}
		}
		if onBoundary {
			continue
		}
		want := geom.SortIDs(geom.IDs(skyline.QuadrantSkyline(pts, q, 0)))
		if len(got) != len(want) {
			t.Fatalf("t=%g: got %v want %v", tm, got, want)
		}
	}
	if _, err := PolylineForQuadrant(d, waypoints[:1]); err == nil {
		t.Fatal("single waypoint must fail")
	}
}
