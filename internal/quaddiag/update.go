package quaddiag

import (
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/resultset"
)

// Incremental maintenance. The paper builds diagrams statically; these
// operations keep a quadrant diagram current under point insertions and
// deletions without a full rebuild, using the sweeping algorithm's locality
// observation: a point influences only the cells in its lower-left region.
//
//   - Insert: a new line splits a column (row) in two. The piece past the
//     line keeps its slot and results, as the point is no candidate there;
//     the piece before it takes a free slot and starts from the same
//     results. Each cell of the point's lower-left region derives its new
//     result from its old one in O(result) time, because the only candidate
//     whose relationships changed is the new point (if any old skyline
//     member dominates it the result is untouched; otherwise it joins and
//     evicts exactly the members it dominates).
//   - Delete: a line no other point keeps goes and frees its slot, and the
//     two columns (rows) it parted merge into the piece past it, which
//     keeps its slot and results. A cell whose old result does not list
//     the removed point is unchanged — removing a non-skyline member never
//     changes a skyline. Only the cells that listed it are recomputed from
//     their up/right neighbours (removing a result member can expose points
//     the old result does not mention, so those cells need the Theorem 1
//     identity, not a copy-based derivation).
//
// Both are copy-on-write twice over. The label tiles: the new diagram shares
// every tile of the old one and copies a tile only when it writes a cell in
// it (tiles.go), so a write allocates in proportion to the tiles it changes.
// The interned table: the new diagram's interner is seeded from the old
// table (claiming it, so the shared arena grows in place past the old
// table's length), and only written cells pay an intern. Results no longer
// referenced by any cell stay in the shared arena as garbage; CompactArena
// (or any fresh Build*) drops it.
//
// Both return a new Diagram; the receiver is unchanged. Neither sorts
// anything or builds an id map: the points stay in id order, so the new
// point's place and every result member's coordinates are found by binary
// search (memberIndex), and the new grid is the old one with at most one
// line added or dropped per axis (grid.WithLines, grid.WithoutLines), with
// rank tables only where the old grid had them.

// WithInsert returns the diagram of Points ∪ {p}.
func (d *Diagram) WithInsert(p geom.Point) (*Diagram, error) {
	if p.Dim() != 2 {
		return nil, fmt.Errorf("quaddiag: insert requires a 2-D point, got dimension %d", p.Dim())
	}
	k, dup := geom.SearchID(d.Points, p.ID)
	if dup {
		return nil, fmt.Errorf("quaddiag: insert: id %d already present", p.ID)
	}
	pts := make([]geom.Point, len(d.Points)+1)
	copy(pts, d.Points[:k])
	pts[k] = p
	copy(pts[k+1:], d.Points[k:])

	// p's lines are column pi-1's right line and row pj-1's upper line. A
	// new line splits a column (row) in two: the piece past the line keeps
	// the old slot and its results, and the piece before it takes a free
	// slot and starts from the same results.
	g := d.Grid.WithLines(p.X(), p.Y())
	pi, pj := g.LocateXY(p.X(), p.Y())
	newCol, newRow := g.Cols() > d.Grid.Cols(), g.Rows() > d.rows
	colSlot, freeCols := d.colSlot, d.freeCols
	if newCol {
		colSlot, freeCols = withSlot(colSlot, freeCols, pi-1)
	}
	rowSlot, freeRows := d.rowSlot, d.freeRows
	if newRow {
		rowSlot, freeRows = withSlot(rowSlot, freeRows, pj-1)
	}
	nd, w := d.derive(pts, g, colSlot, rowSlot, freeCols, freeRows)
	// The new lines' cells outside p's lower-left region keep their results.
	if newRow {
		for i := pi; i < g.Cols(); i++ {
			w.set(i, pj-1, nd.Label(i, pj))
		}
	}
	if newCol {
		for j := pj; j < nd.rows; j++ {
			w.set(pi-1, j, nd.Label(pi, j))
		}
	}

	// The lower-left region, where both corner coordinates are below p's:
	// p is a candidate there and nowhere else. A cell on a new line reads
	// its old result from the piece past the line. Such a cell always
	// changes, so it is always written: no point lies strictly between the
	// new line and the old one before it, so no member of its old result
	// can dominate p.
	in := resultset.NewInternerFrom(d.results)
	members := memberIndex{pts: d.Points}
	// scratch holds each changed cell's result until Intern copies it.
	var scratch []int32
	for i := 0; i < pi; i++ {
		si := i
		if newCol && i == pi-1 {
			si = pi
		}
		for j := 0; j < pj; j++ {
			sj := j
			if newRow && j == pj-1 {
				sj = pj
			}
			ids, changed := insertIntoResult(scratch, &members, d.results.Result(nd.Label(si, sj)), p)
			if changed {
				scratch = ids
				w.set(i, j, in.Intern(ids))
			}
		}
	}
	nd.results = in.Table()
	return nd, nil
}

// insertIntoResult derives Sky(candidates ∪ {p}) from Sky(candidates),
// building it in dst's memory, with the members' coordinates from members.
// When the result is unchanged it reports changed=false, and returns dst
// untouched, so the caller can keep the old cell's label instead of
// re-interning.
func insertIntoResult(dst []int32, members *memberIndex, old []int32, p geom.Point) (ids []int32, changed bool) {
	// If any old member dominates p, nothing changes: transitivity
	// guarantees a dominated candidate is dominated by a skyline member.
	for _, id := range old {
		if geom.Dominates(*members.point(id), p) {
			return dst, false
		}
	}
	out := dst[:0]
	inserted := false
	for _, id := range old {
		if geom.Dominates(p, *members.point(id)) {
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

// memberIndex finds result members among an insert's base points, which
// ascend by id, by geom.SearchID. One member is looked up in many of the
// cells an insert visits, so the positions found are kept in a small
// direct-mapped table. The index lives on the inserting call's stack: it
// allocates nothing and keeps nothing from one write to the next.
type memberIndex struct {
	pts []geom.Point
	// seen[id % memberSlots] is the last id looked up in that slot, with
	// its position + 1 (0: none yet).
	seen [memberSlots]struct{ id, pos1 int32 }
}

const memberSlots = 1024

// point returns the base point of id, which must be one of them.
func (m *memberIndex) point(id int32) *geom.Point {
	e := &m.seen[uint32(id)%memberSlots]
	if e.pos1 == 0 || e.id != id {
		k, _ := geom.SearchID(m.pts, int(id))
		e.id, e.pos1 = id, int32(k)+1
	}
	return &m.pts[e.pos1-1]
}

// WithDelete returns the diagram of Points \ {id}.
func (d *Diagram) WithDelete(id int) (*Diagram, error) {
	k, found := geom.SearchID(d.Points, id)
	if !found {
		return nil, fmt.Errorf("quaddiag: delete: id %d not present", id)
	}
	removed := d.Points[k]
	pts := make([]geom.Point, len(d.Points)-1)
	copy(pts, d.Points[:k])
	copy(pts[k:], d.Points[k+1:])

	// In the old grid the removed point's lines are column ri-1's right
	// line and row rj-1's upper line. A line no other point keeps goes with
	// it, and the two columns (rows) it parted merge into one, which keeps
	// the slot and results of the piece past the line: the removed point
	// was no candidate there, and no other point lies between the lines.
	keepX, keepY := false, false
	for _, q := range pts {
		keepX = keepX || q.X() == removed.X()
		keepY = keepY || q.Y() == removed.Y()
	}
	g := d.Grid.WithoutLines(removed.X(), removed.Y(), !keepX, !keepY)
	ri, rj := d.Grid.LocateXY(removed.X(), removed.Y())
	colSlot, freeCols := d.colSlot, d.freeCols
	if g.Cols() < d.Grid.Cols() {
		colSlot, freeCols = withoutSlot(colSlot, freeCols, ri-1)
	}
	rowSlot, freeRows := d.rowSlot, d.freeRows
	if g.Rows() < d.rows {
		rowSlot, freeRows = withoutSlot(rowSlot, freeRows, rj-1)
	}
	nd, w := d.derive(pts, g, colSlot, rowSlot, freeCols, freeRows)

	// The affected lower-left rectangle, top-right to bottom-left. The cells
	// whose old result lists the removed point are recomputed with the
	// Theorem 1 identity: every up/right neighbour is either outside the
	// rectangle, unchanged, or already recomputed, and out-of-range
	// neighbours are empty — exactly the scanning construction restricted to
	// the removed point's influence region. Cells are read back through the
	// interner, which resolves old and freshly interned labels alike.
	iMax := countLT(g.Xs, removed.X())
	jMax := countLT(g.Ys, removed.Y())
	in := resultset.NewInternerFrom(d.results)
	rid := int32(id)
	// corners is built at the first recomputed cell. A delete may recompute
	// none: when the point's lines go with it and no other cell lists it,
	// as for a point at the trailing edge.
	var corners cornerIndex
	// scratch holds each recomputed cell's result until Intern copies it.
	var scratch []int32
	cellOrNil := func(i, j int) []int32 {
		if i >= g.Cols() || j >= g.Rows() {
			return nil
		}
		return in.Result(nd.Label(i, j))
	}
	for i := iMax; i >= 0; i-- {
		for j := jMax; j >= 0; j-- {
			if !containsLabelID(d.results.Result(nd.Label(i, j)), rid) {
				continue
			}
			if corners.g == nil {
				corners = newCornerIndex(g, pts)
			}
			scratch = corners.appendAtUpperRight(scratch[:0], i, j)
			if len(scratch) == 0 {
				scratch = appendMergeSubtract(scratch, cellOrNil(i+1, j), cellOrNil(i, j+1), cellOrNil(i+1, j+1))
			}
			w.set(i, j, in.Intern(scratch))
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
