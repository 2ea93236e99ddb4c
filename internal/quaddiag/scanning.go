package quaddiag

import (
	"repro/internal/geom"
	"repro/internal/grid"
)

// BuildScanning computes the quadrant skyline diagram with Algorithm 3,
// using the Theorem 1 multiset identity
//
//	Sky(C(i,j)) = Sky(C(i+1,j)) + Sky(C(i,j+1)) − Sky(C(i+1,j+1))
//
// evaluated from the top-right corner leftward and downward. The only
// exception is a cell with input points on its upper-right corner, whose
// skyline is exactly those points (they dominate the whole open quadrant).
// Each cell costs one linear merge of the neighbour lists, so the worst case
// is O(n^3) but the constant is a plain three-way merge — no dominance test
// is ever evaluated.
//
// Unlike the paper's presentation, this implementation also tolerates
// duplicate coordinate values (the limited-domain regime): the identity
// with saturating subtraction and the generalised corner exception holds for
// coincident grid lines too, which the test suite verifies against the
// baseline.
func BuildScanning(pts []geom.Point) (*Diagram, error) {
	if err := require2D(pts); err != nil {
		return nil, err
	}
	g := grid.NewGrid(pts)
	d := newDiagram(pts, g)
	byXY := grid.IndexByCoords(pts)

	for i := g.Cols() - 1; i >= 0; i-- {
		for j := g.Rows() - 1; j >= 0; j-- {
			// Lines 1–3: the top row and rightmost column have empty results.
			if i == g.Cols()-1 || j == g.Rows()-1 {
				d.setCell(i, j, nil)
				continue
			}
			// Lines 6–7: upper-right corner points dominate the whole quadrant.
			if ps := g.PointsAtUpperRight(i, j, byXY); len(ps) > 0 {
				d.setCell(i, j, sortedIDs(ps))
				continue
			}
			// Line 9: the multiset identity.
			d.setCell(i, j, mergeSubtract(d.Cell(i+1, j), d.Cell(i, j+1), d.Cell(i+1, j+1)))
		}
	}
	d.freeze()
	return d, nil
}

// mergeSubtract computes the saturating multiset difference (a ⊎ b) ∖ c over
// ascending id lists. Subtraction must saturate: when range A of the
// Theorem 1 proof is empty, the upper-right cell can contribute points
// (range D) that appear in neither neighbour, and those must be ignored
// rather than cancel a later id. With saturation the identity is exact for
// every non-corner cell — including the A-empty case, where D is disjoint
// from {p_R, p_C} and drops out entirely. An empty difference is nil.
func mergeSubtract(a, b, c []int32) []int32 {
	out := appendMergeSubtract(make([]int32, 0, len(a)+len(b)), a, b, c)
	if len(out) == 0 {
		return nil
	}
	return out
}

// appendMergeSubtract appends mergeSubtract(a, b, c) to out.
func appendMergeSubtract(out, a, b, c []int32) []int32 {
	ai, bi, ci := 0, 0, 0
	for ai < len(a) || bi < len(b) {
		var v int32
		if bi >= len(b) || (ai < len(a) && a[ai] <= b[bi]) {
			v = a[ai]
			ai++
		} else {
			v = b[bi]
			bi++
		}
		for ci < len(c) && c[ci] < v {
			ci++ // c id absent from the merged stream: saturate
		}
		if ci < len(c) && c[ci] == v {
			ci++
			continue
		}
		out = append(out, v)
	}
	return out
}

// VerifyTheorem1 checks the multiset identity on every applicable cell of a
// computed diagram — the property test backing the scanning algorithm. It
// returns the first violating cell, or (-1, -1).
func VerifyTheorem1(d *Diagram) (int, int) {
	g := d.Grid
	byXY := grid.IndexByCoords(d.Points)
	for i := 0; i < g.Cols()-1; i++ {
		for j := 0; j < g.Rows()-1; j++ {
			if ps := g.PointsAtUpperRight(i, j, byXY); len(ps) > 0 {
				if !equalIDs(sortedIDs(ps), d.Cell(i, j)) {
					return i, j
				}
				continue
			}
			want := mergeSubtract(d.Cell(i+1, j), d.Cell(i, j+1), d.Cell(i+1, j+1))
			if !equalIDs(want, d.Cell(i, j)) {
				return i, j
			}
		}
	}
	return -1, -1
}
