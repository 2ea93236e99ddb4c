// Package rangequery answers range skyline queries on top of a precomputed
// skyline diagram: given an axis-aligned rectangle of possible query
// positions, report every distinct skyline result achievable inside it —
// the problem of Lin et al. ("computing the skyline for a range", paper
// §II), which the skyline diagram solves by construction: the answer is the
// set of distinct polyomino results intersecting the rectangle.
//
// Two aggregate forms are provided because applications usually want one of
// them: Results (every distinct result set) and Union (every point that is
// a skyline answer for at least one query in the range — the candidate set
// a cache or prefetcher needs).
package rangequery

import (
	"fmt"
	"sort"

	"repro/internal/dyndiag"
	"repro/internal/geom"
	"repro/internal/quaddiag"
)

// Range is a closed axis-aligned query rectangle [X0,X1] x [Y0,Y1].
type Range struct {
	X0, Y0, X1, Y1 float64
}

func (r Range) validate() error {
	if r.X1 < r.X0 || r.Y1 < r.Y0 {
		return fmt.Errorf("rangequery: empty range [%g,%g]x[%g,%g]", r.X0, r.X1, r.Y0, r.Y1)
	}
	return nil
}

// cellSpan returns the inclusive index span [i0,i1] of the grid intervals a
// coordinate range touches, given sorted line positions.
func cellSpan(vs []float64, lo, hi float64) (i0, i1 int) {
	i0 = sort.Search(len(vs), func(k int) bool { return vs[k] > lo })
	i1 = sort.Search(len(vs), func(k int) bool { return vs[k] > hi })
	return i0, i1
}

// Results returns the distinct skyline results achievable by queries inside
// r on a quadrant diagram, in first-encounter (row-major) order.
func Results(d *quaddiag.Diagram, r Range) ([][]int32, error) {
	return cellResults(d.Grid.Xs, d.Grid.Ys, d.Cell, r)
}

// GlobalResults is Results for a global diagram.
func GlobalResults(d *quaddiag.GlobalDiagram, r Range) ([][]int32, error) {
	return cellResults(d.Grid.Xs, d.Grid.Ys, d.Cell, r)
}

// DynamicResults is Results for a dynamic diagram.
func DynamicResults(d *dyndiag.Diagram, r Range) ([][]int32, error) {
	xs, ys := subGridValues(d)
	return cellResults(xs, ys, d.Cell, r)
}

func subGridValues(d *dyndiag.Diagram) (xs, ys []float64) {
	xs = make([]float64, len(d.Sub.XLines))
	for i, l := range d.Sub.XLines {
		xs[i] = l.V
	}
	ys = make([]float64, len(d.Sub.YLines))
	for i, l := range d.Sub.YLines {
		ys[i] = l.V
	}
	return xs, ys
}

// cellResults returns the distinct results of the cells r touches, in a
// subdivision with the given sorted line positions, in first-encounter
// (row-major) order. The results are kept, so cell's slices must stay
// valid.
func cellResults(xs, ys []float64, cell func(i, j int) []int32, r Range) ([][]int32, error) {
	if err := r.validate(); err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var out [][]int32
	var key []byte
	i0, i1 := cellSpan(xs, r.X0, r.X1)
	j0, j1 := cellSpan(ys, r.Y0, r.Y1)
	for i := i0; i <= i1; i++ {
		for j := j0; j <= j1; j++ {
			ids := cell(i, j)
			key = key[:0]
			for _, id := range ids {
				key = append(key, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
			}
			if k := string(key); !seen[k] {
				seen[k] = true
				out = append(out, ids)
			}
		}
	}
	return out, nil
}

// Union returns the ascending ids of every point that appears in at least
// one achievable result for queries in r — the skyline-candidate set of the
// whole range.
func Union(results [][]int32) []int32 {
	present := make(map[int32]bool)
	for _, ids := range results {
		for _, id := range ids {
			present[id] = true
		}
	}
	out := make([]int32, 0, len(present))
	for id := range present {
		out = append(out, id)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	if len(out) == 0 {
		return nil
	}
	return out
}

// Contains reports whether the result set ids appears among results.
func Contains(results [][]int32, ids []int32) bool {
	for _, r := range results {
		if len(r) != len(ids) {
			continue
		}
		same := true
		for i := range r {
			if r[i] != ids[i] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}

// PointInRange reports whether q lies in the closed rectangle.
func (r Range) PointInRange(q geom.Point) bool {
	return q.X() >= r.X0 && q.X() <= r.X1 && q.Y() >= r.Y0 && q.Y() <= r.Y1
}
