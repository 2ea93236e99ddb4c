// Package grid builds the planar subdivisions underlying skyline diagrams:
//
//   - Grid: the skyline-cell grid of Definition 6 — one horizontal and one
//     vertical line through every point divides the plane into (n+1)^2 cells
//     (fewer under limited domains where coordinates collide).
//   - SubGrid: the skyline-subcell grid of Definition 7 — additionally one
//     vertical and one horizontal bisector per pair of points, as dynamic
//     skylines can change across bisectors. The SubGrid also indexes, per
//     grid line, the set of points "involved" at that line (the points whose
//     own coordinate lies on it plus both endpoints of every pair whose
//     bisector lies on it), which is exactly what the dynamic scanning
//     algorithm consumes.
//   - HyperGrid: the d-dimensional generalisation of Grid (Section IV-E).
//
// Cells are half-open boxes: cell index i on an axis with sorted distinct
// values vs covers [vs[i-1], vs[i]) with vs[-1] = -inf; equivalently a query
// q falls in the cell whose lower corner is the largest grid value <= q.
// Queries exactly on a grid line therefore take the upper/right cell, the
// boundary convention documented in DESIGN.md.
package grid

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/geom"
)

// Grid is the skyline-cell subdivision for one axis pair.
type Grid struct {
	// Xs and Ys hold the sorted distinct coordinate values per axis.
	// Column i spans [Xs[i-1], Xs[i]) with the convention Xs[-1] = -inf,
	// so there are len(Xs)+1 columns and len(Ys)+1 rows.
	Xs, Ys []float64

	// O(1) point-location tables (see Rank). nil on struct-literal and
	// Unranked grids, which fall back to the binary search.
	xrank, yrank *Rank
}

// NewGrid builds the cell grid of pts (two-dimensional).
func NewGrid(pts []geom.Point) *Grid {
	g := &Grid{
		Xs: geom.SortedAxis(pts, 0),
		Ys: geom.SortedAxis(pts, 1),
	}
	g.xrank, g.yrank = NewRank(g.Xs), NewRank(g.Ys)
	return g
}

// WithLines returns the grid of g's points and one more at (x, y): each axis
// gains the point's line unless it has it already. An axis that gains no
// line is g's, shared with its rank table; one that gains a line is an O(n)
// copy with no sort, and has a rank table only when g's axis has one.
func (g *Grid) WithLines(x, y float64) *Grid {
	ng := *g
	if k, ok := slices.BinarySearch(g.Xs, x); !ok {
		ng.Xs = withValue(g.Xs, k, x)
		ng.xrank = rerank(g.xrank, ng.Xs)
	}
	if k, ok := slices.BinarySearch(g.Ys, y); !ok {
		ng.Ys = withValue(g.Ys, k, y)
		ng.yrank = rerank(g.yrank, ng.Ys)
	}
	return &ng
}

// WithoutLines returns g without its line x when dropX and without its line
// y when dropY: the grid left when the point at (x, y) goes and no other
// point keeps the dropped lines. Each dropped line must be one of g's. The
// axes are derived as in WithLines.
func (g *Grid) WithoutLines(x, y float64, dropX, dropY bool) *Grid {
	ng := *g
	if dropX {
		k, _ := slices.BinarySearch(g.Xs, x)
		ng.Xs = withoutValue(g.Xs, k)
		ng.xrank = rerank(g.xrank, ng.Xs)
	}
	if dropY {
		k, _ := slices.BinarySearch(g.Ys, y)
		ng.Ys = withoutValue(g.Ys, k)
		ng.yrank = rerank(g.yrank, ng.Ys)
	}
	return &ng
}

// withValue returns a copy of vs with v inserted at k.
func withValue(vs []float64, k int, v float64) []float64 {
	out := make([]float64, len(vs)+1)
	copy(out, vs[:k])
	out[k] = v
	copy(out[k+1:], vs[k:])
	return out
}

// withoutValue returns a copy of vs without its value at k.
func withoutValue(vs []float64, k int) []float64 {
	out := make([]float64, len(vs)-1)
	copy(out, vs[:k])
	copy(out[k:], vs[k+1:])
	return out
}

// rerank returns the rank table of an axis derived from the one r covers:
// none when r is nil.
func rerank(r *Rank, vs []float64) *Rank {
	if r == nil {
		return nil
	}
	return NewRank(vs)
}

// Unranked returns g without its rank tables: locating on it is the binary
// search. Its axes are g's, shared.
func (g *Grid) Unranked() *Grid { return &Grid{Xs: g.Xs, Ys: g.Ys} }

// Ranks returns the grid's O(1) point-location tables over Xs and Ys, for a
// reader that keeps them without the grid.
func (g *Grid) Ranks() (x, y *Rank) { return g.xrank, g.yrank }

// Cols returns the number of cell columns, len(Xs)+1.
func (g *Grid) Cols() int { return len(g.Xs) + 1 }

// Rows returns the number of cell rows, len(Ys)+1.
func (g *Grid) Rows() int { return len(g.Ys) + 1 }

// NumCells returns Cols*Rows.
func (g *Grid) NumCells() int { return g.Cols() * g.Rows() }

// Corner returns the lower-left corner (g_{i,j} in the paper) of cell (i,j).
// Index 0 yields -inf on that axis.
func (g *Grid) Corner(i, j int) (x, y float64) {
	x, y = math.Inf(-1), math.Inf(-1)
	if i > 0 {
		x = g.Xs[i-1]
	}
	if j > 0 {
		y = g.Ys[j-1]
	}
	return x, y
}

// CellRect returns the half-open rectangle of cell (i,j).
func (g *Grid) CellRect(i, j int) geom.Rect {
	lx, ly := g.Corner(i, j)
	hx, hy := math.Inf(1), math.Inf(1)
	if i < len(g.Xs) {
		hx = g.Xs[i]
	}
	if j < len(g.Ys) {
		hy = g.Ys[j]
	}
	return geom.Rect{Lo: []float64{lx, ly}, Hi: []float64{hx, hy}}
}

// Locate returns the cell indices containing query q.
func (g *Grid) Locate(q geom.Point) (i, j int) {
	return g.LocateXY(q.X(), q.Y())
}

// LocateXY is Locate without the geom.Point wrapper — the serving hot path
// calls it straight from parsed query coordinates. With rank tables (any
// NewGrid-built grid) each axis is O(1): two adjacent prefix loads on the
// fast path.
func (g *Grid) LocateXY(x, y float64) (i, j int) {
	if g.xrank != nil {
		return g.xrank.Rank(x), g.yrank.Rank(y)
	}
	return locate(g.Xs, x), locate(g.Ys, y)
}

// locate returns the number of sorted values <= v, i.e. the index of the
// cell whose half-open interval [vs[i-1], vs[i]) contains v. It is a
// closure-free binary search (sort.Search costs an indirect call per probe,
// which shows up on every query): maintain a window of n candidate answers
// starting at idx and repeatedly keep whichever half contains the answer.
// Comparisons against NaN are false, so a NaN query lands in cell 0 — same
// as sort.Search with this predicate.
func locate(vs []float64, v float64) int {
	idx, n := 0, len(vs)
	for n > 1 {
		half := n >> 1
		if vs[idx+half-1] <= v {
			idx += half
		}
		n -= half
	}
	if n == 1 && vs[idx] <= v {
		idx++
	}
	return idx
}

// --- SubGrid ----------------------------------------------------------------

// Line is one subdivision line of a SubGrid axis together with the points
// whose dominance relations can change when a query crosses it.
type Line struct {
	V float64
	// Involved lists the positions (indices into the SubGrid's point slice)
	// of every point that appears in a pair whose bisector lies on this line,
	// plus any point whose own coordinate is this value. Sorted ascending.
	Involved []int32
}

// SubGrid is the skyline-subcell subdivision for dynamic skyline diagrams.
type SubGrid struct {
	Points []geom.Point
	XLines []Line // sorted by V
	YLines []Line
	xs, ys []float64 // cached V slices for point location
	xrank  *Rank     // O(1) point-location tables over xs/ys; nil on
	yrank  *Rank     // struct-literal subgrids (binary-search fallback)
}

// NewSubGrid builds the subcell grid: per axis, the distinct values among
// every point coordinate and every pairwise midpoint (p[a]+q[a])/2, each
// annotated with its involved point set. O(n^2 log n) per axis.
func NewSubGrid(pts []geom.Point) *SubGrid {
	sg := &SubGrid{Points: pts}
	sg.XLines = buildLines(pts, 0)
	sg.YLines = buildLines(pts, 1)
	sg.xs = lineValues(sg.XLines)
	sg.ys = lineValues(sg.YLines)
	sg.xrank, sg.yrank = NewRank(sg.xs), NewRank(sg.ys)
	return sg
}

func buildLines(pts []geom.Point, axis int) []Line {
	type entry struct {
		v   float64
		pos int32
	}
	var entries []entry
	for i, p := range pts {
		entries = append(entries, entry{p.Coords[axis], int32(i)})
	}
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			mid := (pts[i].Coords[axis] + pts[j].Coords[axis]) / 2
			entries = append(entries, entry{mid, int32(i)}, entry{mid, int32(j)})
		}
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].v != entries[b].v {
			return entries[a].v < entries[b].v
		}
		return entries[a].pos < entries[b].pos
	})
	var lines []Line
	for k := 0; k < len(entries); {
		v := entries[k].v
		var involved []int32
		for ; k < len(entries) && entries[k].v == v; k++ {
			pos := entries[k].pos
			if len(involved) == 0 || involved[len(involved)-1] != pos {
				involved = append(involved, pos)
			}
		}
		lines = append(lines, Line{V: v, Involved: involved})
	}
	return lines
}

func lineValues(lines []Line) []float64 {
	vs := make([]float64, len(lines))
	for i, l := range lines {
		vs[i] = l.V
	}
	return vs
}

// Cols returns the number of subcell columns.
func (sg *SubGrid) Cols() int { return len(sg.XLines) + 1 }

// Rows returns the number of subcell rows.
func (sg *SubGrid) Rows() int { return len(sg.YLines) + 1 }

// NumSubcells returns Cols*Rows.
func (sg *SubGrid) NumSubcells() int { return sg.Cols() * sg.Rows() }

// Locate returns the subcell indices containing q.
func (sg *SubGrid) Locate(q geom.Point) (i, j int) {
	return sg.LocateXY(q.X(), q.Y())
}

// LocateXY is Locate without the geom.Point wrapper. O(1) per axis via the
// rank tables on any NewSubGrid-built subgrid.
func (sg *SubGrid) LocateXY(x, y float64) (i, j int) {
	if sg.xrank != nil {
		return sg.xrank.Rank(x), sg.yrank.Rank(y)
	}
	return locate(sg.xs, x), locate(sg.ys, y)
}

// SubcellRect returns the half-open rectangle of subcell (i,j).
func (sg *SubGrid) SubcellRect(i, j int) geom.Rect {
	lx, ly, hx, hy := math.Inf(-1), math.Inf(-1), math.Inf(1), math.Inf(1)
	if i > 0 {
		lx = sg.xs[i-1]
	}
	if j > 0 {
		ly = sg.ys[j-1]
	}
	if i < len(sg.xs) {
		hx = sg.xs[i]
	}
	if j < len(sg.ys) {
		hy = sg.ys[j]
	}
	return geom.Rect{Lo: []float64{lx, ly}, Hi: []float64{hx, hy}}
}

// RepresentativeQuery returns an interior point of subcell (i,j), suitable as
// the query at which the whole subcell's dynamic skyline is evaluated.
func (sg *SubGrid) RepresentativeQuery(i, j int) geom.Point {
	x, y := sg.RepXY(i, j)
	return geom.Pt2(-1, x, y)
}

// RepXY is RepresentativeQuery without the point allocation — the inner-loop
// form used by the diagram constructions, which call it once per subcell.
func (sg *SubGrid) RepXY(i, j int) (x, y float64) {
	return repCoord(sg.xs, i), repCoord(sg.ys, j)
}

func repCoord(vs []float64, i int) float64 {
	switch {
	case len(vs) == 0:
		return 0
	case i == 0:
		return vs[0] - 1
	case i >= len(vs):
		return vs[len(vs)-1] + 1
	default:
		return (vs[i-1] + vs[i]) / 2
	}
}

// --- HyperGrid ---------------------------------------------------------------

// HyperGrid is the d-dimensional skyline (hyper)cell grid of Section IV-E.
type HyperGrid struct {
	Axes [][]float64 // sorted distinct values per axis
}

// NewHyperGrid builds the hyper-cell grid of pts.
func NewHyperGrid(pts []geom.Point, dim int) *HyperGrid {
	hg := &HyperGrid{Axes: make([][]float64, dim)}
	for a := 0; a < dim; a++ {
		hg.Axes[a] = geom.SortedAxis(pts, a)
	}
	return hg
}

// Dim returns the dimensionality.
func (hg *HyperGrid) Dim() int { return len(hg.Axes) }

// Shape returns the number of cells per axis.
func (hg *HyperGrid) Shape() []int {
	s := make([]int, len(hg.Axes))
	for a, vs := range hg.Axes {
		s[a] = len(vs) + 1
	}
	return s
}

// NumCells returns the total number of hyper-cells.
func (hg *HyperGrid) NumCells() int {
	total := 1
	for _, vs := range hg.Axes {
		total *= len(vs) + 1
	}
	return total
}

// Corner returns the lower corner of the cell with the given per-axis
// indices (-inf at index 0).
func (hg *HyperGrid) Corner(idx []int) []float64 {
	c := make([]float64, len(idx))
	for a, i := range idx {
		if i == 0 {
			c[a] = math.Inf(-1)
		} else {
			c[a] = hg.Axes[a][i-1]
		}
	}
	return c
}

// Locate returns the per-axis cell indices containing q.
func (hg *HyperGrid) Locate(q geom.Point) ([]int, error) {
	if q.Dim() != hg.Dim() {
		return nil, fmt.Errorf("grid: query dimension %d, grid dimension %d", q.Dim(), hg.Dim())
	}
	idx := make([]int, hg.Dim())
	for a := range idx {
		idx[a] = locate(hg.Axes[a], q.Coords[a])
	}
	return idx, nil
}

// Flatten converts per-axis indices to a single row-major offset.
func (hg *HyperGrid) Flatten(idx []int) int {
	off := 0
	for a, i := range idx {
		off = off*(len(hg.Axes[a])+1) + i
	}
	return off
}

// Unflatten converts a row-major offset back to per-axis indices.
func (hg *HyperGrid) Unflatten(off int) []int {
	idx := make([]int, hg.Dim())
	for a := hg.Dim() - 1; a >= 0; a-- {
		size := len(hg.Axes[a]) + 1
		idx[a] = off % size
		off /= size
	}
	return idx
}
