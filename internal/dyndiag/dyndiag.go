// Package dyndiag computes the skyline diagram for dynamic skyline queries
// (Section V of the paper). Because the mapping |p - q| can make a point
// dominate points in other quadrants, the subdivision needs, in addition to
// the grid lines through every point, the pairwise bisector lines on each
// axis: the skyline subcells of Definition 7. Three constructions are
// provided:
//
//   - BuildBaseline — Algorithm 5, O(n^5): one dynamic skyline from scratch
//     per subcell.
//   - BuildSubset — Algorithm 6: each subcell's dynamic skyline is a subset
//     of the global skyline of the cell containing it, so the from-scratch
//     computation runs over that (much smaller) candidate set.
//   - BuildScanning — Algorithm 7: incremental left-to-right, bottom-to-top
//     scan; crossing a subdivision line can only change the dominance
//     relations of the points "involved" at that line (the pairs whose
//     bisector lies on it), so the new result is the dynamic skyline of the
//     previous result plus the involved points.
//
// All three tolerate limited integer domains, where coincident bisectors
// collapse and the subcell count saturates at O(min(s, n^2)^2).
package dyndiag

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/polyomino"
	"repro/internal/quaddiag"
	"repro/internal/resultset"
	"repro/internal/skyline"
)

// Diagram is a computed dynamic skyline diagram at subcell granularity.
// Like quaddiag.Diagram it is built in two phases: constructions fill a
// scratch [][]int32 (the scanning construction's workers write distinct
// subcells from several goroutines), then freeze() interns every subcell
// into the CSR table of package resultset, the only representation readers
// see.
type Diagram struct {
	Points []geom.Point
	Sub    *grid.SubGrid
	// scratch[i*rows+j] during construction; labels/results after freeze().
	scratch [][]int32
	labels  []uint32
	results *resultset.Table
	rows    int
}

func newDiagram(pts []geom.Point, sg *grid.SubGrid) *Diagram {
	return &Diagram{
		Points:  pts,
		Sub:     sg,
		scratch: make([][]int32, sg.Cols()*sg.Rows()),
		rows:    sg.Rows(),
	}
}

// freeze interns every scratch subcell into the CSR table. Idempotent;
// called by every public constructor. Must not run concurrently with setCell.
func (d *Diagram) freeze() {
	if d.results != nil {
		return
	}
	in := resultset.NewInterner()
	d.labels = make([]uint32, len(d.scratch))
	for k, ids := range d.scratch {
		d.labels[k] = in.Intern(ids)
	}
	d.results = in.Freeze()
	d.scratch = nil
}

// Cell returns the dynamic skyline ids of subcell (i, j), ascending. The
// slice aliases diagram-owned storage; callers must not modify it.
func (d *Diagram) Cell(i, j int) []int32 {
	if d.results != nil {
		return d.results.Result(d.labels[i*d.rows+j])
	}
	return d.scratch[i*d.rows+j]
}

func (d *Diagram) setCell(i, j int, ids []int32) { d.scratch[i*d.rows+j] = ids }

// Label returns the interned result label of subcell (i, j).
func (d *Diagram) Label(i, j int) uint32 { return d.labels[i*d.rows+j] }

// Results exposes the frozen interned result table backing the diagram.
func (d *Diagram) Results() *resultset.Table { return d.results }

// Query answers a dynamic skyline query by point location: O(log n) plus
// output size.
func (d *Diagram) Query(q geom.Point) []int32 {
	i, j := d.Sub.Locate(q)
	return d.results.Result(d.labels[i*d.rows+j])
}

// QueryXY is Query without the geom.Point wrapper — the serving hot path.
func (d *Diagram) QueryXY(x, y float64) []int32 {
	i, j := d.Sub.LocateXY(x, y)
	return d.results.Result(d.labels[i*d.rows+j])
}

// Equal reports whether two diagrams assign identical results everywhere.
func (d *Diagram) Equal(o *Diagram) bool {
	if d.Sub.Cols() != o.Sub.Cols() || d.Sub.Rows() != o.Sub.Rows() {
		return false
	}
	for i := 0; i < d.Sub.Cols(); i++ {
		for j := 0; j < d.rows; j++ {
			if !equalIDs(d.Cell(i, j), o.Cell(i, j)) {
				return false
			}
		}
	}
	return true
}

// MemoryFootprint reports the bytes held by the interned representation
// (labels plus the CSR payload) and what the flat per-subcell [][]int32
// representation would hold — the E16 space comparison.
func (d *Diagram) MemoryFootprint() (interned, flat int) {
	interned = 4*len(d.labels) + d.results.PayloadBytes()
	const sliceHeader = 24
	for _, l := range d.labels {
		flat += sliceHeader + 4*d.results.Len(l)
	}
	return interned, flat
}

// Merge groups the subcells into skyline polyominoes.
func (d *Diagram) Merge() (*polyomino.Partition, error) {
	return polyomino.MergeCells(d.Sub.Cols(), d.Sub.Rows(), d.Cell)
}

func equalIDs(a, b []int32) bool {
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

func require2D(pts []geom.Point) error {
	for _, p := range pts {
		if p.Dim() != 2 {
			return fmt.Errorf("dyndiag: requires 2-D points, p%d has dimension %d", p.ID, p.Dim())
		}
	}
	return nil
}

// dynSkyIDs computes the dynamic skyline of cand w.r.t. q as ascending ids.
func dynSkyIDs(cand []geom.Point, q geom.Point) []int32 {
	sky := skyline.DynamicSkyline(cand, q)
	ids := make([]int32, len(sky))
	for i, p := range sky {
		ids[i] = int32(p.ID)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	if len(ids) == 0 {
		return nil
	}
	return ids
}

// dynEntry is one mapped candidate in the scratch evaluator.
type dynEntry struct {
	dx, dy float64
	pos    int32
}

// dynScratch evaluates dynamic skylines over candidate *positions* without
// per-call allocation — the inner loop of all three constructions runs once
// per subcell, so constant factors decide the experiment outcomes.
type dynScratch struct {
	pts   []geom.Point
	ent   []dynEntry
	out   []int32
	mark  []int32
	epoch int32
}

func newDynScratch(pts []geom.Point) *dynScratch {
	return &dynScratch{
		pts:  pts,
		ent:  make([]dynEntry, 0, len(pts)),
		out:  make([]int32, 0, len(pts)),
		mark: make([]int32, len(pts)),
	}
}

// begin starts a new candidate set for the query (qx, qy).
func (s *dynScratch) begin() {
	s.epoch++
	s.ent = s.ent[:0]
}

// add inserts a candidate position, ignoring duplicates within this epoch.
func (s *dynScratch) add(pos int32, qx, qy float64) {
	if s.mark[pos] == s.epoch {
		return
	}
	s.mark[pos] = s.epoch
	p := s.pts[pos]
	dx := p.X() - qx
	if dx < 0 {
		dx = -dx
	}
	dy := p.Y() - qy
	if dy < 0 {
		dy = -dy
	}
	s.ent = append(s.ent, dynEntry{dx: dx, dy: dy, pos: pos})
}

// skyline computes the dynamic skyline of the current candidates, returning
// the surviving positions. The slice is reused by the next call.
func (s *dynScratch) skyline() []int32 {
	// Insertion sort by (dx, dy): candidate sets are small (previous result
	// plus the involved points of one line), so this beats sort.Slice.
	ent := s.ent
	for i := 1; i < len(ent); i++ {
		for j := i; j > 0; j-- {
			a, b := ent[j-1], ent[j]
			if b.dx < a.dx || (b.dx == a.dx && b.dy < a.dy) {
				ent[j-1], ent[j] = b, a
			} else {
				break
			}
		}
	}
	s.out = s.out[:0]
	var last dynEntry
	have := false
	for _, e := range ent {
		switch {
		case !have || e.dy < last.dy:
			s.out = append(s.out, e.pos)
			last, have = e, true
		case e.dx == last.dx && e.dy == last.dy:
			// Mapped duplicate of the last kept candidate: incomparable twin.
			s.out = append(s.out, e.pos)
		}
	}
	return s.out
}

// idsOf converts positions to a fresh ascending-id slice. Results are small,
// so an insertion sort avoids sort.Slice's per-call overhead in the
// once-per-subcell hot path.
func (s *dynScratch) idsOf(positions []int32) []int32 {
	if len(positions) == 0 {
		return nil
	}
	ids := make([]int32, len(positions))
	for i, pos := range positions {
		ids[i] = int32(s.pts[pos].ID)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}

// BuildBaseline computes the dynamic skyline diagram with Algorithm 5: map
// all n points into the first quadrant of each subcell's representative
// query and take the traditional skyline, for every subcell.
func BuildBaseline(pts []geom.Point) (*Diagram, error) {
	if err := require2D(pts); err != nil {
		return nil, err
	}
	sg := grid.NewSubGrid(pts)
	d := newDiagram(pts, sg)
	sc := newDynScratch(pts)
	for i := 0; i < sg.Cols(); i++ {
		for j := 0; j < sg.Rows(); j++ {
			qx, qy := sg.RepXY(i, j)
			sc.begin()
			for pos := range pts {
				sc.add(int32(pos), qx, qy)
			}
			d.setCell(i, j, sc.idsOf(sc.skyline()))
		}
	}
	d.freeze()
	return d, nil
}

// Algorithm names a dynamic diagram construction.
type Algorithm string

// The dynamic diagram constructions.
const (
	AlgBaseline Algorithm = "baseline"
	AlgSubset   Algorithm = "subset"
	AlgScanning Algorithm = "scanning"
)

// Build dispatches to the named construction. workers is the goroutine
// count of the scanning construction (see BuildScanning); the other
// constructions run on the calling goroutine.
func Build(pts []geom.Point, alg Algorithm, workers int) (*Diagram, error) {
	switch alg {
	case AlgBaseline:
		return BuildBaseline(pts)
	case AlgSubset:
		return BuildSubset(pts)
	case AlgScanning:
		return BuildScanning(pts, workers)
	default:
		return nil, fmt.Errorf("dyndiag: unknown algorithm %q", alg)
	}
}

// BuildSubset computes the dynamic skyline diagram with Algorithm 6. The
// dynamic skyline of a subcell is a subset of the global skyline of the
// skyline cell containing it (mapped points can only dominate more), so the
// per-subcell computation runs over the global diagram's per-cell result
// instead of the full dataset: O(n^4 · |global skyline|), amortised
// O(n^4 log n).
func BuildSubset(pts []geom.Point) (*Diagram, error) {
	if err := require2D(pts); err != nil {
		return nil, err
	}
	gd, err := quaddiag.BuildGlobal(pts, quaddiag.AlgScanning, 1)
	if err != nil {
		return nil, err
	}
	sg := grid.NewSubGrid(pts)
	posByID := make(map[int32]int32, len(pts))
	for pos, p := range pts {
		posByID[int32(p.ID)] = int32(pos)
	}
	// The skyline cell containing each subcell row.
	rowOf := make([]int, sg.Rows())
	for j := range rowOf {
		_, rowOf[j] = gd.Grid.Locate(sg.RepresentativeQuery(0, j))
	}
	d := newDiagram(pts, sg)
	sc := newDynScratch(pts)
	for i := 0; i < sg.Cols(); i++ {
		col, _ := gd.Grid.Locate(sg.RepresentativeQuery(i, 0))
		for j := 0; j < sg.Rows(); j++ {
			// The candidates are read straight from the skyline cell's four
			// quadrant components, whose disjoint union is the cell's global
			// result; their order does not matter, because sc sorts them.
			qx, qy := sg.RepXY(i, j)
			sc.begin()
			for mask := 0; mask < 4; mask++ {
				for _, id := range gd.QuadrantCell(mask, col, rowOf[j]) {
					sc.add(posByID[id], qx, qy)
				}
			}
			d.setCell(i, j, sc.idsOf(sc.skyline()))
		}
	}
	d.freeze()
	return d, nil
}

// BuildScanning computes the dynamic skyline diagram with Algorithm 7: the
// lower-left subcell from scratch, every other subcell incrementally from
// its left (or lower, at row starts) neighbour. Crossing a subdivision line
// can change dominance only between pairs whose bisector lies on the line,
// so the new dynamic skyline is exactly the dynamic skyline of
// (previous result ∪ involved points), evaluated at the new subcell.
//
// The row starts form one chain up the first column; once it is known, each
// row's left-to-right scan is independent of every other row, so workers
// goroutines share the rows (< 0 selects GOMAXPROCS; 0 and 1 scan them on
// the calling goroutine). The output is the same for every worker count.
func BuildScanning(pts []geom.Point, workers int) (*Diagram, error) {
	if err := require2D(pts); err != nil {
		return nil, err
	}
	sg := grid.NewSubGrid(pts)
	d := newDiagram(pts, sg)
	if len(pts) == 0 {
		d.setCell(0, 0, nil)
		d.freeze()
		return d, nil
	}

	// step computes into dst the skyline positions of subcell (i, j) from a
	// neighbour's result positions and the involved set of the crossed line.
	step := func(sc *dynScratch, dst, prev []int32, line grid.Line, i, j int) []int32 {
		qx, qy := sg.RepXY(i, j)
		sc.begin()
		for _, pos := range prev {
			sc.add(pos, qx, qy)
		}
		for _, pos := range line.Involved {
			sc.add(pos, qx, qy)
		}
		return append(dst, sc.skyline()...)
	}

	// The row starts: the lower-left subcell from scratch, then up the first
	// column.
	sc := newDynScratch(pts)
	q0x, q0y := sg.RepXY(0, 0)
	sc.begin()
	for pos := range pts {
		sc.add(int32(pos), q0x, q0y)
	}
	rowStarts := make([][]int32, sg.Rows())
	rowStarts[0] = append([]int32(nil), sc.skyline()...)
	for j := 1; j < sg.Rows(); j++ {
		rowStarts[j] = step(sc, nil, rowStarts[j-1], sg.YLines[j-1], 0, j)
	}

	// The rows, each scanned left to right with double-buffered steps, so
	// the hot loop allocates only the per-subcell output.
	n := min(workerCount(workers), sg.Rows())
	forWorkers(n, func(w int) {
		sc := newDynScratch(pts)
		cur := make([]int32, 0, len(pts))
		alt := make([]int32, 0, len(pts))
		for j := w; j < sg.Rows(); j += n {
			cur = append(cur[:0], rowStarts[j]...)
			d.setCell(0, j, sc.idsOf(cur))
			for i := 1; i < sg.Cols(); i++ {
				alt = step(sc, alt[:0], cur, sg.XLines[i-1], i, j)
				cur, alt = alt, cur
				d.setCell(i, j, sc.idsOf(cur))
			}
		}
	})
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
