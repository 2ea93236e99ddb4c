package quaddiag

import (
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/resultset"
)

// Incremental maintenance. The paper builds diagrams statically; these
// operations keep a quadrant diagram current under point insertions and
// deletions without a full rebuild, using the sweeping algorithm's locality
// observation: a point influences only the cells in its lower-left region.
//
//   - Insert: every unaffected cell is copied; an affected cell's new result
//     is derived from its old one in O(result) time, because the only
//     candidate whose relationships changed is the new point (if any old
//     skyline member dominates it the result is untouched; otherwise it
//     joins and evicts exactly the members it dominates).
//   - Delete: unaffected cells are copied, and so is any affected cell whose
//     old result does not contain the removed point — removing a non-skyline
//     member never changes a skyline. Only the cells that listed the removed
//     point are recomputed from their up/right neighbours (removing a result
//     member can expose points the old result does not mention, so those
//     cells need the Theorem 1 identity, not a copy-based derivation).
//
// Both are copy-on-write over the interned table: the new diagram's interner
// is seeded from the old table (claiming it, so the shared arena grows in
// place past the old table's length), unaffected cells carry their labels
// over in O(1), and only affected cells pay an intern. Results no longer
// referenced by any cell stay in the shared arena as garbage; CompactArena
// (or any fresh Build*) drops it.
//
// Both return a new Diagram; the receiver is unchanged.

// WithInsert returns the diagram of Points ∪ {p}.
func (d *Diagram) WithInsert(p geom.Point) (*Diagram, error) {
	if p.Dim() != 2 {
		return nil, fmt.Errorf("quaddiag: insert requires a 2-D point, got dimension %d", p.Dim())
	}
	for _, q := range d.Points {
		if q.ID == p.ID {
			return nil, fmt.Errorf("quaddiag: insert: id %d already present", p.ID)
		}
	}
	pts := make([]geom.Point, len(d.Points)+1)
	copy(pts, d.Points)
	pts[len(d.Points)] = p

	g := grid.NewGrid(pts)
	in := resultset.NewInternerFrom(d.results)
	nd := &Diagram{
		Points: pts,
		Grid:   g,
		byID:   pointIndex(pts),
		labels: make([]uint32, g.Cols()*g.Rows()),
		rows:   g.Rows(),
	}
	// Old lines ⊆ new lines: exactly one old cell contains each new cell.
	// The containing column/row depends on one axis only, so the binary
	// searches are hoisted out of the O(cells) loop.
	oldCol, oldRow, cys := containingCells(g, d.Grid)
	for i := 0; i < g.Cols(); i++ {
		base, obase := i*nd.rows, oldCol[i]*d.rows
		cx, _ := g.Corner(i, 0)
		if !(p.X() > cx) {
			// p is not a candidate anywhere in this column: pure label carry.
			for j := 0; j < g.Rows(); j++ {
				nd.labels[base+j] = d.labels[obase+oldRow[j]]
			}
			continue
		}
		for j := 0; j < g.Rows(); j++ {
			oldLabel := d.labels[obase+oldRow[j]]
			if !(p.Y() > cys[j]) {
				nd.labels[base+j] = oldLabel // p is not a candidate here
				continue
			}
			ids, changed := insertIntoResult(d.byID, d.results.Result(oldLabel), p)
			if !changed {
				nd.labels[base+j] = oldLabel
				continue
			}
			nd.labels[base+j] = in.Intern(ids)
		}
	}
	nd.results = in.Table()
	return nd, nil
}

// containingCells maps every column/row of grid g to the column/row of grid
// old whose cell contains g's corners on that axis (used in both directions:
// insert refines the grid, delete coarsens it), and returns g's per-row
// corner ordinates for reuse in cell loops.
func containingCells(g, old *grid.Grid) (oldCol, oldRow []int, cys []float64) {
	oldCol = make([]int, g.Cols())
	for i := range oldCol {
		cx, _ := g.Corner(i, 0)
		oldCol[i] = countLE(old.Xs, cx)
	}
	oldRow = make([]int, g.Rows())
	cys = make([]float64, g.Rows())
	for j := range oldRow {
		_, cy := g.Corner(0, j)
		oldRow[j] = countLE(old.Ys, cy)
		cys[j] = cy
	}
	return oldCol, oldRow, cys
}

// insertIntoResult derives Sky(candidates ∪ {p}) from Sky(candidates). When
// the result is unchanged it reports changed=false so the caller can carry
// the old cell's label instead of re-interning (no allocation at all).
func insertIntoResult(byID map[int32]geom.Point, old []int32, p geom.Point) (ids []int32, changed bool) {
	// If any old member dominates p, nothing changes: transitivity
	// guarantees a dominated candidate is dominated by a skyline member.
	for _, id := range old {
		if geom.Dominates(byID[id], p) {
			return old, false
		}
	}
	out := make([]int32, 0, len(old)+1)
	inserted := false
	for _, id := range old {
		if geom.Dominates(p, byID[id]) {
			continue // evicted by p
		}
		if !inserted && int32(p.ID) < id {
			out = append(out, int32(p.ID))
			inserted = true
		}
		out = append(out, id)
	}
	if !inserted {
		out = append(out, int32(p.ID))
	}
	return out, true
}

// WithDelete returns the diagram of Points \ {id}.
func (d *Diagram) WithDelete(id int) (*Diagram, error) {
	var removed geom.Point
	found := false
	pts := make([]geom.Point, 0, len(d.Points))
	for _, q := range d.Points {
		if q.ID == id {
			removed = q
			found = true
			continue
		}
		pts = append(pts, q)
	}
	if !found {
		return nil, fmt.Errorf("quaddiag: delete: id %d not present", id)
	}
	g := grid.NewGrid(pts)
	in := resultset.NewInternerFrom(d.results)
	nd := &Diagram{
		Points: pts,
		Grid:   g,
		byID:   pointIndex(pts),
		labels: make([]uint32, g.Cols()*g.Rows()),
		rows:   g.Rows(),
	}

	// Pass 1: copy every unaffected cell's label. New lines ⊆ old lines, and
	// any old cell inside a new one carries the same (unchanged) result — the
	// halves across the removed point's lines can only differ where the
	// removed point was a candidate.
	iMax := countLT(g.Xs, removed.X())
	jMax := countLT(g.Ys, removed.Y())
	oldCol, oldRow, _ := containingCells(g, d.Grid)
	for i := 0; i < g.Cols(); i++ {
		base, obase := i*nd.rows, oldCol[i]*d.rows
		for j := 0; j < g.Rows(); j++ {
			if i <= iMax && j <= jMax {
				continue // affected; pass 2
			}
			nd.labels[base+j] = d.labels[obase+oldRow[j]]
		}
	}
	// Pass 2: the affected lower-left rectangle, top-right to bottom-left.
	// A cell whose old result does not list the removed point carries its
	// label — removing a non-skyline member never changes a skyline (the old
	// cell read through the lower-left constituent has the same corner, hence
	// the same candidate set minus the removed point). The cells that DID
	// list it are recomputed with the Theorem 1 identity: every up/right
	// neighbour is either unaffected (copied in pass 1), carried, or already
	// recomputed, and out-of-range neighbours are empty — exactly the
	// scanning construction restricted to the removed point's influence
	// region. Cells are read back through the interner, which resolves
	// copied, carried, and freshly interned labels alike.
	rid := int32(id)
	byXY := grid.IndexByCoords(pts)
	cellOrNil := func(i, j int) []int32 {
		if i >= g.Cols() || j >= g.Rows() {
			return nil
		}
		return in.Result(nd.labels[i*nd.rows+j])
	}
	for i := iMax; i >= 0; i-- {
		base, obase := i*nd.rows, oldCol[i]*d.rows
		for j := jMax; j >= 0; j-- {
			oldLabel := d.labels[obase+oldRow[j]]
			if !containsLabelID(d.results.Result(oldLabel), rid) {
				nd.labels[base+j] = oldLabel
				continue
			}
			var ids []int32
			if ps := g.PointsAtUpperRight(i, j, byXY); len(ps) > 0 {
				ids = sortedIDs(ps)
			} else {
				ids = mergeSubtract(cellOrNil(i+1, j), cellOrNil(i, j+1), cellOrNil(i+1, j+1))
			}
			nd.labels[base+j] = in.Intern(ids)
		}
	}
	nd.results = in.Table()
	return nd, nil
}

// containsLabelID reports whether the sorted result contains id.
func containsLabelID(ids []int32, id int32) bool {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := (lo + hi) / 2
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(ids) && ids[lo] == id
}

// countLT returns the number of sorted values < v.
func countLT(vs []float64, v float64) int {
	return sort.Search(len(vs), func(k int) bool { return vs[k] >= v })
}

// countLE returns the number of sorted values <= v.
func countLE(vs []float64, v float64) int {
	return sort.Search(len(vs), func(k int) bool { return vs[k] > v })
}

func pointIndex(pts []geom.Point) map[int32]geom.Point {
	m := make(map[int32]geom.Point, len(pts))
	for _, p := range pts {
		m[int32(p.ID)] = p
	}
	return m
}
