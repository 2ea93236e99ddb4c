package core

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// The differential suite cross-checks every diagram's point-location answers
// against the from-scratch oracles over random datasets and a grid of query
// points. Each case logs its seed so a failure reproduces with
//
//	go test ./internal/core -run TestDifferential -v
//
// and re-running the one seed it names.

func sortedIDs32(ids []int32) []int {
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	sort.Ints(out)
	return out
}

// ascendingIDs is sortedIDs32 for a raw diagram answer, which must already
// be strictly ascending: ids go on the wire in the order the diagram
// returns them. It fails the test on any answer out of order.
func ascendingIDs(t testing.TB, kind string, ids []int32) []int {
	t.Helper()
	for k := 1; k < len(ids); k++ {
		if ids[k] <= ids[k-1] {
			t.Fatalf("%s answer %v is not strictly ascending", kind, ids)
		}
	}
	return sortedIDs32(ids)
}

func sortedIDsPts(pts []geom.Point) []int {
	out := make([]int, len(pts))
	for i, p := range pts {
		out[i] = p.ID
	}
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// queryGrid covers the domain with on-lattice and off-lattice query points,
// plus points outside the data's bounding box on every side — the diagram
// must agree with the oracle everywhere, not just inside the grid.
func queryGrid(lo, hi float64, steps int) []geom.Point {
	var out []geom.Point
	span := hi - lo
	for i := 0; i <= steps; i++ {
		for j := 0; j <= steps; j++ {
			x := lo + span*float64(i)/float64(steps)
			y := lo + span*float64(j)/float64(steps)
			out = append(out, geom.Pt2(-1, x, y))
		}
	}
	out = append(out,
		geom.Pt2(-1, lo-span/2, lo+span/3),
		geom.Pt2(-1, lo+span/3, lo-span/2),
		geom.Pt2(-1, hi+span/2, hi+span/2),
		geom.Pt2(-1, lo-span/2, hi+span/2),
	)
	return out
}

func TestDifferentialQuadrantAndGlobal(t *testing.T) {
	seeds := []int64{1, 2, 3, 7, 42}
	if testing.Short() {
		seeds = seeds[:2]
	}
	dists := []dataset.Distribution{dataset.Independent, dataset.Correlated, dataset.AntiCorrelated, dataset.Clustered}
	for _, seed := range seeds {
		for _, dist := range dists {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, dist), func(t *testing.T) {
				// Domain 64 snaps coordinates onto an integer grid, so the
				// dataset is full of duplicate axis values — exactly the
				// regime where the tie handling of the optimized
				// constructions can diverge from the oracles. Queries are
				// offset onto half-integers: the diagram is piecewise
				// constant over half-open cells whose boundaries are the
				// data's coordinate lines, so for a query exactly ON such a
				// line the cell answer is the open-interior one, while the
				// oracle's quadrant membership is closed (geom.QuadrantOf
				// uses >=). Off the lines — almost everywhere — the two must
				// agree exactly.
				pts, err := dataset.Generate(dataset.Config{N: 80, Dim: 2, Dist: dist, Domain: 64, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				quad, err := BuildQuadrant(pts, Options{})
				if err != nil {
					t.Fatalf("seed=%d dist=%s: build quadrant: %v", seed, dist, err)
				}
				glob, err := BuildGlobal(pts, Options{})
				if err != nil {
					t.Fatalf("seed=%d dist=%s: build global: %v", seed, dist, err)
				}
				for _, base := range queryGrid(0, 64, 16) {
					q := geom.Pt2(-1, base.X()+0.5, base.Y()+0.5)
					gotQ := ascendingIDs(t, "quadrant", quad.Query(q))
					wantQ := sortedIDsPts(QuadrantSkyline(pts, q))
					if !equalInts(gotQ, wantQ) {
						t.Fatalf("QUADRANT MISMATCH seed=%d dist=%s q=(%g,%g): diagram=%v oracle=%v",
							seed, dist, q.X(), q.Y(), gotQ, wantQ)
					}
					gotG := ascendingIDs(t, "global", glob.Query(q))
					wantG := sortedIDsPts(GlobalSkyline(pts, q))
					if !equalInts(gotG, wantG) {
						t.Fatalf("GLOBAL MISMATCH seed=%d dist=%s q=(%g,%g): diagram=%v oracle=%v",
							seed, dist, q.X(), q.Y(), gotG, wantG)
					}
				}
			})
		}
	}
}

func TestDifferentialDynamic(t *testing.T) {
	seeds := []int64{1, 5, 9}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		for _, dist := range []dataset.Distribution{dataset.Independent, dataset.AntiCorrelated} {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, dist), func(t *testing.T) {
				// GeneralPosition snaps coordinates onto distinct integers,
				// which keeps the subcell count (and build time) manageable.
				// The dynamic arrangement's lines then all lie on multiples
				// of 1/2 (point coordinates, pairwise midpoints, and
				// reflections), so queries offset by 0.3 are guaranteed to
				// be in general position w.r.t. the arrangement. Queries
				// exactly ON an arrangement line are intentionally excluded:
				// the subcells are half-open, and on the line itself the
				// |p-q| mapping creates coordinate ties whose exact skyline
				// matches neither adjacent subcell — a measure-zero boundary
				// convention, not a lookup bug (see docs/OBSERVABILITY.md).
				pts, err := dataset.Generate(dataset.Config{N: 24, Dim: 2, Dist: dist, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				pts = dataset.GeneralPosition(pts)
				dyn, err := BuildDynamic(pts, Options{})
				if err != nil {
					t.Fatalf("seed=%d dist=%s: build dynamic: %v", seed, dist, err)
				}
				for _, base := range queryGrid(0, float64(len(pts)), 12) {
					q := geom.Pt2(-1, base.X()+0.3, base.Y()+0.3)
					got := ascendingIDs(t, "dynamic", dyn.Query(q))
					want := sortedIDsPts(DynamicSkyline(pts, q))
					if !equalInts(got, want) {
						t.Fatalf("DYNAMIC MISMATCH seed=%d dist=%s q=(%g,%g): diagram=%v oracle=%v",
							seed, dist, q.X(), q.Y(), got, want)
					}
				}
			})
		}
	}
}

// TestDifferentialAllAlgorithms repeats the quadrant check for every
// construction algorithm on a general-position dataset — the constructions
// must be interchangeable, not just the default. Queries are offset onto
// half-integers for the same boundary-convention reason as above:
// GeneralPosition data has integer coordinates, so the grid lines sit on
// integers and half-integer queries are off every line.
func TestDifferentialAllAlgorithms(t *testing.T) {
	const seed = 11
	pts, err := dataset.Generate(dataset.Config{N: 60, Dim: 2, Dist: dataset.Independent, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	pts = dataset.GeneralPosition(pts)
	for _, alg := range []string{"baseline", "dsg", "scanning"} {
		d, err := BuildQuadrant(pts, Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("seed=%d alg=%s: %v", seed, alg, err)
		}
		for _, base := range queryGrid(0, 60, 6) {
			q := geom.Pt2(-1, base.X()+0.5, base.Y()+0.5)
			got := sortedIDs32(d.Query(q))
			want := sortedIDsPts(QuadrantSkyline(pts, q))
			if !equalInts(got, want) {
				t.Fatalf("QUADRANT MISMATCH seed=%d alg=%s q=(%g,%g): diagram=%v oracle=%v",
					seed, alg, q.X(), q.Y(), got, want)
			}
		}
	}
}
