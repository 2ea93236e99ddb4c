package quaddiag

import (
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/polyomino"
)

// GlobalDiagram is the skyline diagram for global skyline queries: per cell,
// the union of the four quadrant skylines (Definition 3). The union is
// disjoint because every point belongs to exactly one quadrant of any query
// interior to the cell.
//
// The diagram is a view over its four components and stores no union of
// its own: a cell's global result is merged from its components when it is
// read. The components are kept as built and never copied: reflected[mask]
// is the first-quadrant diagram of the mask's reflection of Points, so mask
// 0 is the quadrant diagram of Points itself, shared with whoever built the
// global diagram around it (a DiagramSet serves it as its quadrant kind),
// and Grid is its grid. Reflecting an axis reverses the order of that axis's
// cells, so a component's result for cell (i, j) sits at the flipped index:
// column cols-1-i when x is reflected, row rows-1-j when y is.
type GlobalDiagram struct {
	Points    []geom.Point
	Grid      *grid.Grid
	reflected [4]*Diagram
	rows      int
}

// BuildGlobal computes the global skyline diagram by running the given
// quadrant construction on the four reflections of the input (Section IV:
// "global skyline can be simply computed by taking a union of all quadrant
// skylines"): the quadrant diagram of pts, then BuildGlobalAround it, each
// with workers as Build takes it.
func BuildGlobal(pts []geom.Point, alg Algorithm, workers int) (*GlobalDiagram, error) {
	quad, err := Build(pts, alg, workers)
	if err != nil {
		return nil, err
	}
	return BuildGlobalAround(quad, alg, workers)
}

// BuildGlobalAround computes the global skyline diagram of quad's points
// with quad as its mask-0 component: only the three reflected quadrant runs
// (masks 1–3) are built. With one worker (workers as Build takes it) they
// run one after another; with more, the three run concurrently, each on a
// third of the workers, rounded up. The output is the same either way.
func BuildGlobalAround(quad *Diagram, alg Algorithm, workers int) (*GlobalDiagram, error) {
	gd := &GlobalDiagram{Points: quad.Points, Grid: quad.Grid, rows: quad.rows}
	gd.reflected[0] = quad
	workers = workerCount(workers)
	runs := 1
	if workers > 1 {
		runs = 3
	}
	var errs [4]error
	forWorkers(runs, func(w int) {
		for mask := 1 + w; mask < 4; mask += runs {
			gd.reflected[mask], errs[mask] = Build(geom.Reflect(quad.Points, mask), alg, (workers+runs-1)/runs)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Reads locate on mask 0's grid and flip the index (componentLabel), so
	// the other components' grids keep no rank tables.
	for mask := 1; mask < 4; mask++ {
		gd.reflected[mask].Grid = gd.reflected[mask].Grid.Unranked()
	}
	return gd, nil
}

// Reflected returns the mask's component as built: the first-quadrant
// diagram of the mask's reflection of Points, indexed in reflected order.
// Reflected(0) is the quadrant diagram of Points the global diagram was
// built or maintained around.
func (gd *GlobalDiagram) Reflected(mask int) *Diagram { return gd.reflected[mask] }

// componentLabel returns the mask component's label for cell (i, j),
// reading the reflected diagram at the flipped index, through that
// component's own slots.
func (gd *GlobalDiagram) componentLabel(mask, i, j int) uint32 {
	if mask&1 != 0 {
		i = gd.Grid.Cols() - 1 - i
	}
	if mask&2 != 0 {
		j = gd.rows - 1 - j
	}
	return gd.reflected[mask].Label(i, j)
}

// QuadrantCell returns the quadrant-mask component of cell (i, j). The
// slice aliases the component's arena; callers must not modify it.
func (gd *GlobalDiagram) QuadrantCell(mask, i, j int) []int32 {
	return gd.reflected[mask].results.Result(gd.componentLabel(mask, i, j))
}

// AppendCell appends the global skyline ids of cell (i, j), ascending, to
// dst and returns the extended slice: the merge of the cell's four
// components, each read through its index flip. With enough capacity in dst
// it allocates nothing.
func (gd *GlobalDiagram) AppendCell(dst []int32, i, j int) []int32 {
	var parts [4][]int32
	for mask := range parts {
		parts[mask] = gd.QuadrantCell(mask, i, j)
	}
	return appendUnion(dst, &parts)
}

// appendUnion appends the ascending union of lists to dst. Every list must
// be ascending and the lists pairwise disjoint, as a cell's four components
// are.
func appendUnion(dst []int32, lists *[4][]int32) []int32 {
	const done = math.MaxInt64 // head of an exhausted list: above every id
	var head [4]int64
	var next [4]int
	n := len(dst)
	for k, l := range lists {
		head[k] = done
		if len(l) > 0 {
			head[k] = int64(l[0])
			n += len(l)
		}
	}
	dst = slices.Grow(dst, n-len(dst))
	out := dst[len(dst):n]
	for w := range out {
		// The minimum head, picked without data-dependent branches.
		a, b := 0, 2
		if head[1] < head[0] {
			a = 1
		}
		if head[3] < head[2] {
			b = 3
		}
		if head[b] < head[a] {
			a = b
		}
		a &= 3 // drops the bounds checks below
		out[w] = int32(head[a])
		next[a]++
		if l := lists[a]; next[a] < len(l) {
			head[a] = int64(l[next[a]])
		} else {
			head[a] = done
		}
	}
	return dst[:n]
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
	return appendUnion(make([]int32, 0, len(a)+len(b)), &[4][]int32{a, b})
}

// Cell returns the global skyline ids of cell (i, j), ascending, in a fresh
// slice the caller owns.
func (gd *GlobalDiagram) Cell(i, j int) []int32 { return gd.AppendCell(nil, i, j) }

// Query answers a global skyline query by point location, into a fresh
// slice.
func (gd *GlobalDiagram) Query(q geom.Point) []int32 { return gd.Cell(gd.Grid.Locate(q)) }

// QueryXY is Query without the geom.Point wrapper, into a fresh slice.
func (gd *GlobalDiagram) QueryXY(x, y float64) []int32 { return gd.AppendQueryXY(nil, x, y) }

// AppendQueryXY appends the answer to the global skyline query (x, y) to
// dst: point location, then AppendCell — the serving hot path, allocation
// free once dst has the capacity.
func (gd *GlobalDiagram) AppendQueryXY(dst []int32, x, y float64) []int32 {
	i, j := gd.Grid.LocateXY(x, y)
	return gd.AppendCell(dst, i, j)
}

// sameAs returns a test of whether cell (i, j) of gd and cell (i2, j2) of o
// hold the same global result. The two unions are disjoint, so a component
// both cells share (gd == o and one label) is left out of both sides. A
// pair whose remaining components' lengths sum differently is rejected
// without touching the arenas; otherwise each side is merged into one of
// two buffers the test reuses.
func (gd *GlobalDiagram) sameAs(o *GlobalDiagram) func(i, j, i2, j2 int) bool {
	var a, b []int32
	return func(i, j, i2, j2 int) bool {
		var pa, pb [4][]int32
		diff := 0
		for mask := 0; mask < 4; mask++ {
			la, lb := gd.componentLabel(mask, i, j), o.componentLabel(mask, i2, j2)
			if gd == o && la == lb {
				continue
			}
			pa[mask] = gd.reflected[mask].results.Result(la)
			pb[mask] = o.reflected[mask].results.Result(lb)
			diff += len(pa[mask]) - len(pb[mask])
		}
		if diff != 0 {
			return false
		}
		a, b = appendUnion(a[:0], &pa), appendUnion(b[:0], &pb)
		return slices.Equal(a, b)
	}
}

// Merge groups the global diagram's cells into polyominoes. Note that the
// global diagram's polyominoes are generally finer than the quadrant
// diagram's: a cell boundary can change any of the four quadrant results.
func (gd *GlobalDiagram) Merge() (*polyomino.Partition, error) {
	return polyomino.MergeCellsBy(gd.Grid.Cols(), gd.rows, gd.sameAs(gd))
}
