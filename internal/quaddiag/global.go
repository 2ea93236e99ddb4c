package quaddiag

import (
	"runtime"
	"sync"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/polyomino"
	"repro/internal/resultset"
)

// GlobalDiagram is the skyline diagram for global skyline queries: per cell,
// the union of the four quadrant skylines (Definition 3). The union is
// disjoint because every point belongs to exactly one quadrant of any query
// interior to the cell.
//
// The four components are kept as built and never copied: reflected[mask] is
// the first-quadrant diagram of the mask's reflection of Points, so mask 0 is
// the quadrant diagram of Points itself, shared with whoever built the global
// diagram around it (a DiagramSet serves it as its quadrant kind), and Grid is
// its grid. Reflecting an axis reverses the order of that axis's cells, so a
// component's result for cell (i, j) sits at the flipped index: column
// cols-1-i when x is reflected, row rows-1-j when y is.
type GlobalDiagram struct {
	Points    []geom.Point
	Grid      *grid.Grid
	reflected [4]*Diagram
	labels    []uint32
	results   *resultset.Table
	rows      int
}

// BuildGlobal computes the global skyline diagram by running the given
// quadrant construction on the four reflections of the input (Section IV:
// "global skyline can be simply computed by taking a union of all quadrant
// skylines"): the quadrant diagram of pts, then BuildGlobalAround it.
func BuildGlobal(pts []geom.Point, alg Algorithm) (*GlobalDiagram, error) {
	quad, err := Build(pts, alg)
	if err != nil {
		return nil, err
	}
	return BuildGlobalAround(quad, alg, 0)
}

// BuildGlobalAround computes the global skyline diagram of quad's points
// with quad as its mask-0 component: only the three reflected quadrant runs
// (masks 1–3) are built, then the four are merged. With workers == 0 the
// runs are sequential Builds; otherwise they run concurrently, each a
// BuildParallel sharing workers (< 0 selects GOMAXPROCS). The output is the
// same either way.
func BuildGlobalAround(quad *Diagram, alg Algorithm, workers int) (*GlobalDiagram, error) {
	gd := &GlobalDiagram{Points: quad.Points, Grid: quad.Grid, rows: quad.rows}
	gd.reflected[0] = quad
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	var errs [4]error
	for mask := 1; mask < 4; mask++ {
		rpts := geom.Reflect(quad.Points, mask)
		if workers == 0 {
			gd.reflected[mask], errs[mask] = Build(rpts, alg)
			continue
		}
		wg.Add(1)
		go func(mask int) {
			defer wg.Done()
			gd.reflected[mask], errs[mask] = BuildParallel(rpts, alg, (workers+2)/3)
		}(mask)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	gd.mergeQuadrants()
	return gd, nil
}

// Reflected returns the mask's component as built: the first-quadrant
// diagram of the mask's reflection of Points, indexed in reflected order.
// Reflected(0) is the quadrant diagram of Points the global diagram was
// built or maintained around.
func (gd *GlobalDiagram) Reflected(mask int) *Diagram { return gd.reflected[mask] }

// componentLabel returns the mask component's label for cell (i, j),
// reading the reflected diagram at the flipped index.
func (gd *GlobalDiagram) componentLabel(mask, i, j int) uint32 {
	if mask&1 != 0 {
		i = gd.Grid.Cols() - 1 - i
	}
	if mask&2 != 0 {
		j = gd.rows - 1 - j
	}
	return gd.reflected[mask].labels[i*gd.rows+j]
}

// QuadrantCell returns the quadrant-mask component of cell (i, j).
func (gd *GlobalDiagram) QuadrantCell(mask, i, j int) []int32 {
	return gd.reflected[mask].results.Result(gd.componentLabel(mask, i, j))
}

// mergeQuadrants fills the global per-cell results from the four
// components, interning the merged lists into the global table.
func (gd *GlobalDiagram) mergeQuadrants() {
	in := resultset.NewInterner()
	var m merger
	gd.labels = make([]uint32, gd.Grid.NumCells())
	for i := 0; i < gd.Grid.Cols(); i++ {
		for j := 0; j < gd.rows; j++ {
			gd.labels[i*gd.rows+j] = in.Intern(m.cell(gd, i, j))
		}
	}
	gd.results = in.Table()
}

// merger unions a cell's four disjoint components in two scratch buffers
// reused across a merge pass: held holds the running union once a merge has
// made one, and each merge writes into free. Intern copies what it keeps, so
// the union returned for one cell may be overwritten by the next.
type merger struct{ free, held []int32 }

// cell returns the ascending union of cell (i, j)'s four components. It
// aliases the arena or the merger's buffers; the caller must not keep it.
func (m *merger) cell(gd *GlobalDiagram, i, j int) []int32 {
	union := gd.QuadrantCell(0, i, j)
	for mask := 1; mask < 4; mask++ {
		c := gd.QuadrantCell(mask, i, j)
		switch {
		case len(c) == 0:
		case len(union) == 0:
			union = c
		default:
			out := appendMerged(m.free[:0], union, c)
			m.free, m.held = m.held, out
			union = out
		}
	}
	return union
}

// appendMerged appends the merge of two ascending id lists known to be
// disjoint to dst.
func appendMerged(dst, a, b []int32) []int32 {
	ai, bi := 0, 0
	for ai < len(a) && bi < len(b) {
		if a[ai] < b[bi] {
			dst = append(dst, a[ai])
			ai++
		} else {
			dst = append(dst, b[bi])
			bi++
		}
	}
	dst = append(dst, a[ai:]...)
	return append(dst, b[bi:]...)
}

// mergeDisjoint merges two ascending id lists known to be disjoint into a
// fresh slice (or returns one of them when the other is empty).
func mergeDisjoint(a, b []int32) []int32 {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	return appendMerged(make([]int32, 0, len(a)+len(b)), a, b)
}

// Cell returns the global skyline ids of cell (i, j), ascending.
func (gd *GlobalDiagram) Cell(i, j int) []int32 {
	return gd.results.Result(gd.labels[i*gd.rows+j])
}

// Query answers a global skyline query by point location.
func (gd *GlobalDiagram) Query(q geom.Point) []int32 {
	i, j := gd.Grid.Locate(q)
	return gd.results.Result(gd.labels[i*gd.rows+j])
}

// QueryXY is Query without the geom.Point wrapper — the serving hot path.
func (gd *GlobalDiagram) QueryXY(x, y float64) []int32 {
	i, j := gd.Grid.LocateXY(x, y)
	return gd.results.Result(gd.labels[i*gd.rows+j])
}

// Results exposes the frozen interned result table backing the diagram.
func (gd *GlobalDiagram) Results() *resultset.Table { return gd.results }

// Label returns the interned result label of cell (i, j).
func (gd *GlobalDiagram) Label(i, j int) uint32 { return gd.labels[i*gd.rows+j] }

// Merge groups the global diagram's cells into polyominoes. Note that the
// global diagram's polyominoes are generally finer than the quadrant
// diagram's: a cell boundary can change any of the four quadrant results.
func (gd *GlobalDiagram) Merge() (*polyomino.Partition, error) {
	return polyomino.MergeCells(gd.Grid.Cols(), gd.Grid.Rows(), gd.Cell)
}
