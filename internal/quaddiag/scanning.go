package quaddiag

import (
	"runtime"
	"slices"
	"sync"

	"repro/internal/geom"
	"repro/internal/grid"
)

// scanBlock is the side, in cells, of the square blocks a parallel
// Algorithm 3 hands to its workers.
const scanBlock = 64

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
//
// workers goroutines run the scan (< 0 selects GOMAXPROCS; 0 and 1 run it
// on the calling goroutine). With more than one, the grid is cut into
// scanBlock×scanBlock blocks of cells, scanned in anti-diagonal waves from
// the top-right: block (I, J) needs only blocks (I+1, J), (I, J+1) and
// (I+1, J+1), which lie on earlier waves, so the blocks of one wave run
// concurrently, each writing its own cells. With one worker the whole grid
// is one block. The output is the same for every worker count.
func BuildScanning(pts []geom.Point, workers int) (*Diagram, error) {
	if err := require2D(pts); err != nil {
		return nil, err
	}
	g := grid.NewGrid(pts)
	d := newDiagram(pts, g)
	corners := newCornerIndex(g, pts)
	cols, rows := g.Cols(), g.Rows()
	// scan runs Algorithm 3 over the cells [i0, i1) × [j0, j1), whose
	// up/right neighbours outside the block are already computed.
	scan := func(i0, i1, j0, j1 int) {
		for i := i1 - 1; i >= i0; i-- {
			for j := j1 - 1; j >= j0; j-- {
				// Lines 1–3: the top row and rightmost column have empty
				// results, which the scratch already holds.
				if i == cols-1 || j == rows-1 {
					continue
				}
				// Lines 6–7: upper-right corner points dominate the whole
				// quadrant.
				if ids := corners.appendAtUpperRight(nil, i, j); len(ids) > 0 {
					d.setCell(i, j, ids)
					continue
				}
				// Line 9: the multiset identity.
				d.setCell(i, j, mergeSubtract(d.Cell(i+1, j), d.Cell(i, j+1), d.Cell(i+1, j+1)))
			}
		}
	}

	workers = workerCount(workers)
	side := scanBlock
	if workers == 1 {
		side = max(cols, rows)
	}
	bi, bj := (cols+side-1)/side, (rows+side-1)/side
	// Wave s holds the blocks (I, J) with I+J = s.
	for s := bi + bj - 2; s >= 0; s-- {
		lo, hi := max(0, s-bj+1), min(bi-1, s)
		n := min(workers, hi-lo+1)
		forWorkers(n, func(w int) {
			for bx := lo + w; bx <= hi; bx += n {
				by := s - bx
				scan(bx*side, min(bx*side+side, cols), by*side, min(by*side+side, rows))
			}
		})
	}
	d.freeze()
	return d, nil
}

// workerCount resolves a worker count as the constructions take it: < 0
// selects GOMAXPROCS, and 0 counts as 1.
func workerCount(workers int) int {
	if workers < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return max(workers, 1)
}

// forWorkers calls fn(w) for every w in [0, n): fn(0) on the calling
// goroutine and each other on a goroutine of its own. It returns when every
// call has.
func forWorkers(n int, fn func(w int)) {
	var wg sync.WaitGroup
	for w := 1; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w)
		}()
	}
	fn(0)
	wg.Wait()
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

// cornerIndex finds the points on a cell's upper-right corner — Theorem 1's
// exception, more than one point when the dataset holds exact duplicates —
// from each point's column on the grid rather than a coordinate map. A
// point sits on the lower-left corner of the cell it locates to, so the
// points on cell (i, j)'s upper-right corner are those locating to
// (i+1, j+1). The index is read-only once built, so any number of
// goroutines may share it.
type cornerIndex struct {
	g   *grid.Grid
	pts []geom.Point
	// head[c] is 1 + the index of a point in column c (0: none), and
	// next[k] likewise chains the points of point k's column.
	head, next []int32
}

// newCornerIndex indexes pts, the points g was built from, by column.
func newCornerIndex(g *grid.Grid, pts []geom.Point) cornerIndex {
	c := cornerIndex{g: g, pts: pts, head: make([]int32, g.Cols()), next: make([]int32, len(pts))}
	for k, p := range pts {
		col, _ := g.LocateXY(p.X(), p.Y())
		c.next[k], c.head[col] = c.head[col], int32(k+1)
	}
	return c
}

// appendAtUpperRight appends to dst the ascending ids of the points on the
// upper-right corner of cell (i, j). A cell in the last column or row has
// no finite upper-right corner.
func (c *cornerIndex) appendAtUpperRight(dst []int32, i, j int) []int32 {
	if i+1 >= c.g.Cols() || j+1 >= c.g.Rows() {
		return dst
	}
	n := len(dst)
	for k := c.head[i+1]; k != 0; k = c.next[k-1] {
		if p := c.pts[k-1]; p.Y() == c.g.Ys[j] {
			dst = append(dst, int32(p.ID))
		}
	}
	slices.Sort(dst[n:])
	return dst
}

// VerifyTheorem1 checks the multiset identity on every applicable cell of a
// computed diagram — the property test backing the scanning algorithm. It
// returns the first violating cell, or (-1, -1).
func VerifyTheorem1(d *Diagram) (int, int) {
	g := d.Grid
	corners := newCornerIndex(g, d.Points)
	for i := 0; i < g.Cols()-1; i++ {
		for j := 0; j < g.Rows()-1; j++ {
			want := corners.appendAtUpperRight(nil, i, j)
			if len(want) == 0 {
				want = mergeSubtract(d.Cell(i+1, j), d.Cell(i, j+1), d.Cell(i+1, j+1))
			}
			if !equalIDs(want, d.Cell(i, j)) {
				return i, j
			}
		}
	}
	return -1, -1
}
