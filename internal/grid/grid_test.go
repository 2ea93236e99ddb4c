package grid

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

func TestGridBasics(t *testing.T) {
	pts := []geom.Point{geom.Pt2(0, 1, 10), geom.Pt2(1, 3, 30), geom.Pt2(2, 2, 20)}
	g := NewGrid(pts)
	if g.Cols() != 4 || g.Rows() != 4 || g.NumCells() != 16 {
		t.Fatalf("grid shape %dx%d", g.Cols(), g.Rows())
	}
	// Corner of cell (0,0) is (-inf,-inf); of (1,1) is (1,10).
	x, y := g.Corner(0, 0)
	if !math.IsInf(x, -1) || !math.IsInf(y, -1) {
		t.Fatalf("corner(0,0) = %g,%g", x, y)
	}
	x, y = g.Corner(1, 1)
	if x != 1 || y != 10 {
		t.Fatalf("corner(1,1) = %g,%g", x, y)
	}
}

func TestGridLocate(t *testing.T) {
	pts := []geom.Point{geom.Pt2(0, 1, 10), geom.Pt2(1, 3, 30)}
	g := NewGrid(pts)
	cases := []struct {
		q    geom.Point
		i, j int
	}{
		{geom.Pt2(-1, 0, 0), 0, 0},
		{geom.Pt2(-1, 1, 10), 1, 1}, // on grid lines -> upper/right cell
		{geom.Pt2(-1, 2, 20), 1, 1},
		{geom.Pt2(-1, 3, 30), 2, 2},
		{geom.Pt2(-1, 99, 99), 2, 2},
	}
	for _, c := range cases {
		i, j := g.Locate(c.q)
		if i != c.i || j != c.j {
			t.Errorf("Locate(%v) = (%d,%d), want (%d,%d)", c.q, i, j, c.i, c.j)
		}
	}
}

func TestLocateMatchesCellRect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := make([]geom.Point, 20)
	for i := range pts {
		pts[i] = geom.Pt2(i, rng.Float64()*10, rng.Float64()*10)
	}
	g := NewGrid(pts)
	for trial := 0; trial < 500; trial++ {
		q := geom.Pt2(-1, rng.Float64()*12-1, rng.Float64()*12-1)
		i, j := g.Locate(q)
		if !g.CellRect(i, j).Contains(q) {
			t.Fatalf("q=%v located at (%d,%d) = %v, not containing", q, i, j, g.CellRect(i, j))
		}
	}
	// Cell rect centers locate back to their own cell.
	for i := 0; i < g.Cols(); i++ {
		for j := 0; j < g.Rows(); j++ {
			c := g.CellRect(i, j).Center()
			ci, cj := g.Locate(c)
			if ci != i || cj != j {
				t.Fatalf("center of (%d,%d) relocated to (%d,%d)", i, j, ci, cj)
			}
		}
	}
}

func TestSubGridLinesAndInvolved(t *testing.T) {
	// Two points on an axis: lines at 0, 5 (bisector), 10.
	pts := []geom.Point{geom.Pt2(0, 0, 0), geom.Pt2(1, 10, 10)}
	sg := NewSubGrid(pts)
	if len(sg.XLines) != 3 {
		t.Fatalf("XLines = %v", sg.XLines)
	}
	if sg.XLines[1].V != 5 {
		t.Fatalf("bisector at %g, want 5", sg.XLines[1].V)
	}
	inv := sg.XLines[1].Involved
	if len(inv) != 2 || inv[0] != 0 || inv[1] != 1 {
		t.Fatalf("involved at bisector = %v", inv)
	}
	// Point's own line involves just it.
	if got := sg.XLines[0].Involved; len(got) != 1 || got[0] != 0 {
		t.Fatalf("involved at x=0: %v", got)
	}
}

func TestSubGridCoincidentBisectors(t *testing.T) {
	// Integer coordinates 0,2,4: bisector of (0,4) coincides with the point
	// line at 2; bisectors (0,2)->1 and (2,4)->3.
	pts := []geom.Point{geom.Pt2(0, 0, 0), geom.Pt2(1, 2, 2), geom.Pt2(2, 4, 4)}
	sg := NewSubGrid(pts)
	want := []float64{0, 1, 2, 3, 4}
	if len(sg.XLines) != len(want) {
		t.Fatalf("lines: %v", sg.XLines)
	}
	for i, l := range sg.XLines {
		if l.V != want[i] {
			t.Fatalf("line %d at %g, want %g", i, l.V, want[i])
		}
	}
	// Line at 2: p1's own line plus bisector of (p0, p2): involved = {0,1,2}.
	inv := sg.XLines[2].Involved
	if len(inv) != 3 {
		t.Fatalf("involved at 2 = %v", inv)
	}
}

func TestSubGridLocateConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := make([]geom.Point, 8)
	for i := range pts {
		pts[i] = geom.Pt2(i, float64(rng.Intn(32)), float64(rng.Intn(32)))
	}
	sg := NewSubGrid(pts)
	for trial := 0; trial < 300; trial++ {
		q := geom.Pt2(-1, rng.Float64()*40-4, rng.Float64()*40-4)
		i, j := sg.Locate(q)
		if !sg.SubcellRect(i, j).Contains(q) {
			t.Fatalf("q=%v at (%d,%d), rect %v", q, i, j, sg.SubcellRect(i, j))
		}
	}
	// Representative queries are interior.
	for i := 0; i < sg.Cols(); i += 3 {
		for j := 0; j < sg.Rows(); j += 3 {
			r := sg.RepresentativeQuery(i, j)
			ri, rj := sg.Locate(r)
			if ri != i || rj != j {
				t.Fatalf("representative of (%d,%d) relocated to (%d,%d)", i, j, ri, rj)
			}
		}
	}
}

func TestSubGridDomainBound(t *testing.T) {
	// With integer domain s, distinct line positions per axis are bounded by
	// 2s-1 (integers and half-integers), regardless of n.
	rng := rand.New(rand.NewSource(5))
	const s = 16
	pts := make([]geom.Point, 200)
	for i := range pts {
		pts[i] = geom.Pt2(i, float64(rng.Intn(s)), float64(rng.Intn(s)))
	}
	sg := NewSubGrid(pts)
	if len(sg.XLines) > 2*s-1 {
		t.Fatalf("%d x-lines, bound %d", len(sg.XLines), 2*s-1)
	}
}

func TestHyperGrid(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 1, 10, 100), geom.Pt(1, 2, 20, 200)}
	hg := NewHyperGrid(pts, 3)
	if hg.NumCells() != 27 {
		t.Fatalf("NumCells = %d", hg.NumCells())
	}
	idx, err := hg.Locate(geom.Pt(-1, 1.5, 15, 150))
	if err != nil {
		t.Fatal(err)
	}
	if idx[0] != 1 || idx[1] != 1 || idx[2] != 1 {
		t.Fatalf("Locate = %v", idx)
	}
	corner := hg.Corner(idx)
	if corner[0] != 1 || corner[1] != 10 || corner[2] != 100 {
		t.Fatalf("Corner = %v", corner)
	}
	if c := hg.Corner([]int{0, 0, 0}); !math.IsInf(c[0], -1) {
		t.Fatalf("zero corner = %v", c)
	}
	// Flatten/Unflatten round-trip over every cell.
	for off := 0; off < hg.NumCells(); off++ {
		if got := hg.Flatten(hg.Unflatten(off)); got != off {
			t.Fatalf("flatten round trip %d -> %d", off, got)
		}
	}
	if _, err := hg.Locate(geom.Pt2(-1, 1, 2)); err == nil {
		t.Fatal("dimension mismatch must error")
	}
}

func TestHyperSubGrid(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0, 0, 0), geom.Pt(1, 10, 10, 10)}
	sg := NewHyperSubGrid(pts, 3)
	// Per axis: values {0, 5, 10} -> 4 subcells.
	shape := sg.Shape()
	for a, s := range shape {
		if s != 4 {
			t.Fatalf("axis %d shape %d, want 4", a, s)
		}
	}
	if sg.NumSubcells() != 64 {
		t.Fatalf("NumSubcells = %d", sg.NumSubcells())
	}
	idx, err := sg.Locate(geom.Pt(-1, 1, 6, 11))
	if err != nil {
		t.Fatal(err)
	}
	if idx[0] != 1 || idx[1] != 2 || idx[2] != 3 {
		t.Fatalf("Locate = %v", idx)
	}
	// Representative queries locate back to their own subcell.
	for off := 0; off < sg.NumSubcells(); off++ {
		ix := sg.Unflatten(off)
		if got := sg.Flatten(ix); got != off {
			t.Fatalf("flatten round trip %d -> %d", off, got)
		}
		q := sg.RepQuery(ix)
		back, err := sg.Locate(q)
		if err != nil {
			t.Fatal(err)
		}
		for a := range ix {
			if back[a] != ix[a] {
				t.Fatalf("rep query of %v relocated to %v", ix, back)
			}
		}
	}
	// Involved set on the bisector line of axis 0 holds both points.
	if inv := sg.Lines[0][1].Involved; len(inv) != 2 {
		t.Fatalf("bisector involved = %v", inv)
	}
	if _, err := sg.Locate(geom.Pt2(-1, 1, 2)); err == nil {
		t.Fatal("dimension mismatch must fail")
	}
}

// TestDerivedGridsMatchNewGrid: a grid derived by one point's lines, added
// or dropped, has the axes NewGrid builds for the new point set and locates
// every probe alike, ranked where its base is ranked and unranked where its
// base is. Coordinates come from a small lattice, so a line is often kept
// by another point (an axis shared, not copied) and a point often lands on
// a line the grid has.
func TestDerivedGridsMatchNewGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	lattice := func() float64 { return float64(rng.Intn(12)) }
	for trial := 0; trial < 200; trial++ {
		var pts []geom.Point
		for i := 0; i < 1+rng.Intn(10); i++ {
			pts = append(pts, geom.Pt2(i, lattice(), lattice()))
		}
		p := geom.Pt2(99, lattice(), lattice())
		grown := append(append([]geom.Point(nil), pts...), p)
		for _, base := range []*Grid{NewGrid(pts), NewGrid(pts).Unranked()} {
			check := func(op string, got, want *Grid) {
				t.Helper()
				if !slices.Equal(got.Xs, want.Xs) || !slices.Equal(got.Ys, want.Ys) {
					t.Fatalf("trial %d %s: axes %v %v, want %v %v", trial, op, got.Xs, got.Ys, want.Xs, want.Ys)
				}
				if (got.xrank != nil) != (base.xrank != nil) || (got.yrank != nil) != (base.yrank != nil) {
					t.Fatalf("trial %d %s: rank tables %v, base's %v", trial, op, got.xrank != nil, base.xrank != nil)
				}
				for q := -1.0; q <= 12; q += 0.5 {
					gi, gj := got.LocateXY(q, 11-q)
					if wi, wj := want.LocateXY(q, 11-q); gi != wi || gj != wj {
						t.Fatalf("trial %d %s: locate(%g) = %d,%d, want %d,%d", trial, op, q, gi, gj, wi, wj)
					}
				}
			}
			added := base.WithLines(p.X(), p.Y())
			check("insert", added, NewGrid(grown))
			keepX, keepY := false, false
			for _, q := range pts {
				keepX = keepX || q.X() == p.X()
				keepY = keepY || q.Y() == p.Y()
			}
			check("delete", added.WithoutLines(p.X(), p.Y(), !keepX, !keepY), NewGrid(pts))
		}
	}
}
