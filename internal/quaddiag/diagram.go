// Package quaddiag computes skyline diagrams for quadrant and global skyline
// queries (Section IV of the paper). Four constructions are provided for the
// first-quadrant diagram:
//
//   - BuildBaseline — Algorithm 1, O(n^3): one fresh skyline per cell from a
//     presorted point list.
//   - BuildDSG — Algorithm 2, O(n^3) worst case: incremental maintenance over
//     the directed skyline graph; much faster in practice because the work is
//     proportional to the number of direct dominance links.
//   - BuildScanning — Algorithm 3, O(n^3) worst case: the Theorem 1 multiset
//     identity Sky(C[i][j]) = Sky(C[i+1][j]) + Sky(C[i][j+1]) − Sky(C[i+1][j+1]),
//     evaluated top-right to bottom-left; with several workers, in
//     anti-diagonal waves of blocks of cells.
//   - BuildSweeping — Algorithm 4, O(n^2): constructs the skyline polyominoes
//     directly from the arrangement of half-open rays, without computing any
//     skyline.
//
// The global diagram (BuildGlobal) runs a quadrant construction in each of
// the four reflected orientations and keeps the four diagrams as they are:
// a cell's global result is the union of its four components, merged when
// the cell is read.
//
// All cell-level constructions share the Diagram type; Merge converts a
// Diagram into its polyomino partition. High-dimensional variants live in
// highdim.go.
//
// Diagrams are built in two phases. The constructions fill a scratch
// [][]int32 exactly as the paper's algorithms describe (the scanning
// construction's workers write distinct scratch cells from several
// goroutines, so no shared structure may be touched during this phase);
// every public Build* then freezes the scratch into the interned CSR form of
// package resultset — one uint32 label per cell, kept in copy-on-write tiles
// (tiles.go), plus a shared arena — which is the only representation readers
// ever see. Queries are point location plus one label indirection returning
// an arena subslice: zero allocations.
package quaddiag

import (
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/polyomino"
	"repro/internal/resultset"
	"repro/internal/skyline"
)

// Diagram is a computed skyline diagram at cell granularity: the skyline
// result of every skyline cell (Definition 6).
type Diagram struct {
	// Points ascend by id (geom.ByID), so an id is found by geom.SearchID.
	Points []geom.Point
	Grid   *grid.Grid
	// scratch[i*rows+j] is the ascending id list of Sky(C(i,j)) during
	// construction; freeze() interns it into the label tiles and results
	// and drops it.
	scratch [][]int32
	// The label of cell (i, j) sits at slot pair (colSlot[i], rowSlot[j])
	// of the tiles under the tile directory; freeCols and freeRows hold the
	// slots of deleted lines. See tiles.go.
	colSlot, rowSlot   []uint32
	freeCols, freeRows []uint32
	tiles              []*tile
	tileRows           int
	results            *resultset.Table
	rows               int
	work               Work
}

func newDiagram(pts []geom.Point, g *grid.Grid) *Diagram {
	return &Diagram{
		Points:  pts,
		Grid:    g,
		scratch: make([][]int32, g.Cols()*g.Rows()),
		rows:    g.Rows(),
	}
}

// freeze interns every scratch cell into the CSR table, lays the labels out
// in rank order over fresh tiles, and puts the points in id order.
// Idempotent; called by every public constructor before the diagram is
// handed out. Must not run concurrently with setCell. The table is frozen
// without its dedup index, which the first write rebuilds.
func (d *Diagram) freeze() {
	if d.results != nil {
		return
	}
	d.Points = geom.ByID(d.Points)
	in := resultset.NewInterner()
	d.layOutDense()
	col := make([]uint32, d.rows)
	for i := range d.colSlot {
		for j := range col {
			col[j] = in.Intern(d.scratch[i*d.rows+j])
		}
		d.putColumn(i, col)
	}
	d.results = in.Freeze()
	d.scratch = nil
}

// Cell returns the skyline ids of cell (i, j), ascending. The slice aliases
// diagram-owned storage; callers must not modify it.
func (d *Diagram) Cell(i, j int) []int32 {
	if d.results != nil {
		return d.results.Result(d.Label(i, j))
	}
	return d.scratch[i*d.rows+j]
}

func (d *Diagram) setCell(i, j int, ids []int32) { d.scratch[i*d.rows+j] = ids }

// Results exposes the frozen interned result table backing the diagram.
func (d *Diagram) Results() *resultset.Table { return d.results }

// Query answers a quadrant (or global, depending on how the diagram was
// built) skyline query by point location: O(log n) search plus output size.
func (d *Diagram) Query(q geom.Point) []int32 {
	return d.results.Result(d.Label(d.Grid.Locate(q)))
}

// QueryXY is Query without the geom.Point wrapper — the serving hot path.
// Zero allocations: point location, the label read through the cell's slots
// and tile, and one indirection into the arena.
func (d *Diagram) QueryXY(x, y float64) []int32 {
	return d.results.Result(d.Label(d.Grid.LocateXY(x, y)))
}

// QueryPoints resolves Query ids back to points.
func (d *Diagram) QueryPoints(q geom.Point) []geom.Point {
	return d.Resolve(d.Query(q))
}

// Resolve maps ids to the corresponding points, searching Points; an id of
// no point is skipped.
func (d *Diagram) Resolve(ids []int32) []geom.Point {
	out := make([]geom.Point, 0, len(ids))
	for _, id := range ids {
		if k, ok := geom.SearchID(d.Points, int(id)); ok {
			out = append(out, d.Points[k])
		}
	}
	return out
}

// Equal reports whether two diagrams assign identical results to every cell.
func (d *Diagram) Equal(o *Diagram) bool {
	if d.Grid.Cols() != o.Grid.Cols() || d.Grid.Rows() != o.Grid.Rows() {
		return false
	}
	for i := 0; i < d.Grid.Cols(); i++ {
		for j := 0; j < d.rows; j++ {
			if !equalIDs(d.Cell(i, j), o.Cell(i, j)) {
				return false
			}
		}
	}
	return true
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

// Merge groups the diagram's cells into skyline polyominoes.
func (d *Diagram) Merge() (*polyomino.Partition, error) {
	return polyomino.MergeCells(d.Grid.Cols(), d.Grid.Rows(), d.Cell)
}

// MemoryFootprint reports the bytes held by the interned representation
// (label tiles and slots plus the CSR payload) and what the flat per-cell
// [][]int32 representation would hold — the E16 space comparison.
func (d *Diagram) MemoryFootprint() (interned, flat int) {
	interned = 8*len(d.tiles) + 4*(len(d.colSlot)+len(d.rowSlot)+len(d.freeCols)+len(d.freeRows)) +
		d.results.PayloadBytes()
	for _, t := range d.tiles {
		if t != nil {
			interned += 4 * len(t)
		}
	}
	d.eachColumn(func(_ int, col []uint32) {
		for _, l := range col {
			flat += sliceBytes(d.results.Result(l))
		}
	})
	return interned, flat
}

// sliceBytes is the bytes a flat per-cell result holds: its slice header
// and its ids.
func sliceBytes(r []int32) int {
	const sliceHeader = 24
	return sliceHeader + 4*len(r)
}

// Stats summarises a diagram for the E6 experiment table.
type Stats struct {
	N           int
	Cells       int
	Polyominoes int
	AvgSkySize  float64
	MaxSkySize  int
}

// ComputeStats merges the diagram and reports its structure statistics.
func (d *Diagram) ComputeStats() (Stats, error) {
	part, err := d.Merge()
	if err != nil {
		return Stats{}, err
	}
	var sum, max int
	d.eachColumn(func(_ int, col []uint32) {
		for _, l := range col {
			n := d.results.Len(l)
			sum += n
			if n > max {
				max = n
			}
		}
	})
	return Stats{
		N:           len(d.Points),
		Cells:       d.Grid.NumCells(),
		Polyominoes: part.NumRegions,
		AvgSkySize:  float64(sum) / float64(d.Grid.NumCells()),
		MaxSkySize:  max,
	}, nil
}

// Algorithm names a quadrant diagram construction, for CLIs and benchmarks.
type Algorithm string

// The quadrant diagram constructions.
const (
	AlgBaseline Algorithm = "baseline"
	AlgDSG      Algorithm = "dsg"
	AlgScanning Algorithm = "scanning"
)

// Build dispatches to the named cell-level construction. workers is the
// goroutine count of the scanning construction (see BuildScanning); the
// other constructions run on the calling goroutine. (The sweeping algorithm
// is not dispatched here because it produces polyominoes, not per-cell
// results; see BuildSweeping.)
func Build(pts []geom.Point, alg Algorithm, workers int) (*Diagram, error) {
	switch alg {
	case AlgBaseline:
		return BuildBaseline(pts)
	case AlgDSG:
		return BuildDSG(pts)
	case AlgScanning:
		return BuildScanning(pts, workers)
	default:
		return nil, fmt.Errorf("quaddiag: unknown algorithm %q", alg)
	}
}

// sortedIDs converts points to an ascending id slice.
func sortedIDs(pts []geom.Point) []int32 {
	return appendSortedIDs(make([]int32, 0, len(pts)), pts)
}

// appendSortedIDs appends the ascending ids of pts to dst.
func appendSortedIDs(dst []int32, pts []geom.Point) []int32 {
	n := len(dst)
	for _, p := range pts {
		dst = append(dst, int32(p.ID))
	}
	slices.Sort(dst[n:])
	return dst
}

// requireGeneralPosition guards the optimized constructions, which assume
// distinct per-axis coordinates exactly as the paper does.
func requireGeneralPosition(pts []geom.Point) error {
	return geom.CheckGeneralPosition(pts)
}

// oracleCell computes Sky(C(i,j)) from scratch; shared by tests and by the
// subset algorithm's fallback paths.
func oracleCell(pts []geom.Point, g *grid.Grid, i, j int) []int32 {
	cx, cy := g.Corner(i, j)
	sky := skyline.FirstQuadrantSkylineStrict(pts, []float64{cx, cy})
	return sortedIDs(sky)
}
