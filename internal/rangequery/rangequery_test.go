package rangequery

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dyndiag"
	"repro/internal/geom"
	"repro/internal/quaddiag"
)

func TestResultsCoverAllSampledQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := dataset.GeneralPosition(func() []geom.Point {
		ps := make([]geom.Point, 25)
		for i := range ps {
			ps[i] = geom.Pt2(i, rng.Float64()*50, rng.Float64()*50)
		}
		return ps
	}())
	d, err := quaddiag.BuildScanning(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		x0, y0 := rng.Float64()*40, rng.Float64()*40
		r := Range{X0: x0, Y0: y0, X1: x0 + rng.Float64()*15, Y1: y0 + rng.Float64()*15}
		results, err := Results(d, r)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) == 0 {
			t.Fatal("at least one result (possibly empty) must be achievable")
		}
		// Every sampled query's result must appear in the set.
		for s := 0; s < 150; s++ {
			q := geom.Pt2(-1, r.X0+rng.Float64()*(r.X1-r.X0), r.Y0+rng.Float64()*(r.Y1-r.Y0))
			if !r.PointInRange(q) {
				t.Fatal("sample outside range")
			}
			if !Contains(results, d.Query(q)) {
				t.Fatalf("sampled result %v missing from range results", d.Query(q))
			}
		}
		// The union contains every id of every sampled result.
		u := Union(results)
		inU := make(map[int32]bool)
		for _, id := range u {
			inU[id] = true
		}
		for _, res := range results {
			for _, id := range res {
				if !inU[id] {
					t.Fatalf("id %d missing from union", id)
				}
			}
		}
	}
}

func TestResultsAreExactlyAchievable(t *testing.T) {
	// No over-reporting: every returned result must be the diagram's answer
	// for some point of the (closed) range.
	rng := rand.New(rand.NewSource(2))
	pts := dataset.GeneralPosition(func() []geom.Point {
		ps := make([]geom.Point, 12)
		for i := range ps {
			ps[i] = geom.Pt2(i, rng.Float64()*20, rng.Float64()*20)
		}
		return ps
	}())
	d, err := quaddiag.BuildScanning(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := Range{X0: 3, Y0: 3, X1: 14, Y1: 14}
	results, err := Results(d, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		found := false
		// Dense grid sample of the closed rectangle.
		for a := 0; a <= 60 && !found; a++ {
			for b := 0; b <= 60 && !found; b++ {
				q := geom.Pt2(-1, r.X0+(r.X1-r.X0)*float64(a)/60, r.Y0+(r.Y1-r.Y0)*float64(b)/60)
				got := d.Query(q)
				if len(got) == len(res) {
					same := true
					for i := range res {
						if got[i] != res[i] {
							same = false
							break
						}
					}
					found = same
				}
			}
		}
		if !found {
			t.Fatalf("result %v reported but not achievable in range", res)
		}
	}
}

func TestGlobalAndDynamicRange(t *testing.T) {
	hotels := dataset.Hotels()
	gd, err := quaddiag.BuildGlobal(hotels, quaddiag.AlgScanning, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := Range{X0: 5, Y0: 70, X1: 15, Y1: 95}
	gres, err := GlobalResults(gd, r)
	if err != nil {
		t.Fatal(err)
	}
	if !Contains(gres, gd.Query(dataset.HotelQuery())) {
		t.Fatal("the running-example query lies in the range; its result must appear")
	}
	dd, err := dyndiag.BuildScanning(hotels, 1)
	if err != nil {
		t.Fatal(err)
	}
	dres, err := DynamicResults(dd, r)
	if err != nil {
		t.Fatal(err)
	}
	if !Contains(dres, dd.Query(dataset.HotelQuery())) {
		t.Fatal("dynamic result of the running example must appear")
	}
	// Dynamic range sets are at least as fine as the global ones here.
	if len(dres) == 0 || len(gres) == 0 {
		t.Fatal("empty result sets")
	}
}

func TestRangeValidationAndDegenerate(t *testing.T) {
	hotels := dataset.Hotels()
	d, err := quaddiag.BuildScanning(hotels, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Results(d, Range{X0: 5, X1: 1, Y0: 0, Y1: 1}); err == nil {
		t.Fatal("inverted range must fail")
	}
	// A point range degenerates to exactly one result.
	q := dataset.HotelQuery()
	res, err := Results(d, Range{X0: q.X(), Y0: q.Y(), X1: q.X(), Y1: q.Y()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || !Contains(res, d.Query(q)) {
		t.Fatalf("point range results = %v", res)
	}
	u := Union(nil)
	if u != nil {
		t.Fatal("union of nothing is nil")
	}
}
