package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

func TestQuadrantFacade(t *testing.T) {
	hotels := dataset.Hotels()
	d, err := BuildQuadrant(hotels, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := d.Query(dataset.HotelQuery())
	if !geom.EqualIDSets(toInts(got), []int{3, 8, 10}) {
		t.Fatalf("Query = %v", got)
	}
	pts := d.QueryPoints(dataset.HotelQuery())
	if len(pts) != 3 {
		t.Fatalf("QueryPoints = %v", pts)
	}
	if _, err := d.Polyominoes(); err != nil {
		t.Fatal(err)
	}
	st, err := d.Stats()
	if err != nil || st.N != 11 {
		t.Fatalf("Stats = %+v, %v", st, err)
	}
	if d.Grid() == nil || d.Cells() == nil {
		t.Fatal("accessors must expose internals")
	}
}

// QueryPoints resolves ids through the quadrant diagram's own point index
// (for global, its mask-0 component's), so every maintained and compacted
// set must resolve each answer to exactly the set's points with those ids.
func TestQueryPointsFollowMaintenance(t *testing.T) {
	q := dataset.HotelQuery()
	check := func(set *DiagramSet, wantID int32) {
		t.Helper()
		byID := make(map[int32]Point, len(set.Points))
		for _, p := range set.Points {
			byID[int32(p.ID)] = p
		}
		for kind, d := range map[string]Diagram{"quadrant": set.Quadrant, "global": set.Global} {
			ids, pts := d.Query(q), d.QueryPoints(q)
			if len(pts) != len(ids) {
				t.Fatalf("%s: QueryPoints = %v for ids %v", kind, pts, ids)
			}
			found := false
			for i, id := range ids {
				if p := byID[id]; pts[i].String() != p.String() {
					t.Fatalf("%s: id %d resolves to %v, want %v", kind, id, pts[i], p)
				}
				found = found || id == wantID
			}
			if !found {
				t.Fatalf("%s: answer %v lacks id %d", kind, ids, wantID)
			}
		}
	}
	set, err := BuildSet(dataset.Hotels(), UpdateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Point 99 sits just above and right of q, so it is the whole quadrant
	// answer; once it is deleted again, hotel 3 is back in both answers.
	steps := []struct {
		op   Op
		want int32
	}{
		{InsertOp(geom.Pt2(99, q.Coords[0]+0.5, q.Coords[1]+0.5)), 99},
		{DeleteOp(99), 3},
	}
	for _, s := range steps {
		if set, err = set.Apply(s.op, UpdateOptions{}); err != nil {
			t.Fatal(err)
		}
		check(set, s.want)
	}
	check(set.CompactArenas(), 3)
}

func TestGlobalAndDynamicFacade(t *testing.T) {
	hotels := dataset.Hotels()
	g, err := BuildGlobal(hotels, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !geom.EqualIDSets(toInts(g.Query(dataset.HotelQuery())), []int{3, 6, 8, 10, 11}) {
		t.Fatalf("global = %v", g.Query(dataset.HotelQuery()))
	}
	if len(g.QueryPoints(dataset.HotelQuery())) != 5 {
		t.Fatal("global QueryPoints size")
	}
	if _, err := g.Polyominoes(); err != nil {
		t.Fatal(err)
	}
	if g.Grid() == nil {
		t.Fatal("grid accessor")
	}

	dd, err := BuildDynamic(hotels, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !geom.EqualIDSets(toInts(dd.Query(dataset.HotelQuery())), []int{6, 11}) {
		t.Fatalf("dynamic = %v", dd.Query(dataset.HotelQuery()))
	}
	if len(dd.QueryPoints(dataset.HotelQuery())) != 2 {
		t.Fatal("dynamic QueryPoints size")
	}
	if _, err := dd.Polyominoes(); err != nil {
		t.Fatal(err)
	}
	if dd.SubGrid() == nil {
		t.Fatal("subgrid accessor")
	}
}

func TestTieHandling(t *testing.T) {
	tied := []Point{Pt(0, 1, 2), Pt(1, 1, 3), Pt(2, 4, 5)}
	// Default: the scanning construction handles ties directly.
	d, err := BuildQuadrant(tied, Options{})
	if err != nil {
		t.Fatalf("tied build should succeed: %v", err)
	}
	got := d.Query(Pt(-1, 0, 0))
	if len(got) == 0 {
		t.Fatal("query should return the skyline")
	}
	// RequireGeneralPosition surfaces the tie error.
	_, err = BuildQuadrant(tied, Options{RequireGeneralPosition: true})
	var te *geom.TieError
	if !errors.As(err, &te) {
		t.Fatalf("want TieError, got %v", err)
	}
}

func TestOptionsAlgorithmSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]Point, 20)
	for i := range pts {
		pts[i] = Pt(i, rng.Float64()*100, rng.Float64()*100)
	}
	for _, alg := range []string{"baseline", "dsg", "scanning"} {
		if _, err := BuildQuadrant(pts, Options{Algorithm: alg}); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
	}
	for _, alg := range []string{"baseline", "subset", "scanning"} {
		if _, err := BuildDynamic(pts[:8], Options{Algorithm: alg}); err != nil {
			t.Fatalf("dynamic %s: %v", alg, err)
		}
	}
	if _, err := BuildQuadrant(pts, Options{Algorithm: "nope"}); err == nil {
		t.Fatal("unknown algorithm must fail")
	}
}

func TestDirectQueries(t *testing.T) {
	hotels := dataset.Hotels()
	q := dataset.HotelQuery()
	if got := QuadrantSkyline(hotels, q); !geom.EqualIDSets(geom.IDs(got), []int{3, 8, 10}) {
		t.Fatalf("QuadrantSkyline = %v", geom.IDs(got))
	}
	if got := GlobalSkyline(hotels, q); !geom.EqualIDSets(geom.IDs(got), []int{3, 6, 8, 10, 11}) {
		t.Fatalf("GlobalSkyline = %v", geom.IDs(got))
	}
	if got := DynamicSkyline(hotels, q); !geom.EqualIDSets(geom.IDs(got), []int{6, 11}) {
		t.Fatalf("DynamicSkyline = %v", geom.IDs(got))
	}
	if got := Skyline(hotels); len(got) == 0 {
		t.Fatal("Skyline empty")
	}
	if err := Validate(hotels); err != nil {
		t.Fatalf("hotels are in general position: %v", err)
	}
	if err := Validate([]Point{Pt(0, 1, 2), Pt(1, 1, 9)}); err == nil {
		t.Fatal("Validate must flag ties")
	}
}

func toInts(ids []int32) []int {
	out := make([]int, len(ids))
	for i, v := range ids {
		out[i] = int(v)
	}
	return out
}

func TestFacadeIncrementalUpdates(t *testing.T) {
	hotels := dataset.Hotels()
	d, err := BuildQuadrant(hotels, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Insert a hotel that dominates part of the running example's answer.
	ins, err := d.WithInsert(Pt(99, 13, 85))
	if err != nil {
		t.Fatal(err)
	}
	got := ins.Query(dataset.HotelQuery())
	want := geom.SortIDs(geom.IDs(QuadrantSkyline(append(hotels, Pt(99, 13, 85)), dataset.HotelQuery())))
	if !geom.EqualIDSets(toInts(got), want) {
		t.Fatalf("after insert: got %v want %v", got, want)
	}
	back, err := ins.WithDelete(99)
	if err != nil {
		t.Fatal(err)
	}
	if !geom.EqualIDSets(toInts(back.Query(dataset.HotelQuery())), []int{3, 8, 10}) {
		t.Fatal("delete did not restore the original answer")
	}
	if _, err := d.WithDelete(424242); err == nil {
		t.Fatal("missing id must fail")
	}
}
