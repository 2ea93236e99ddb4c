package quaddiag

import "repro/internal/resultset"

// Arena compaction. Copy-on-write maintenance (WithInsert/WithDelete) leaves
// unreferenced results behind in the shared arena; these methods measure that
// garbage and rewrite the diagram against a garbage-free table. Compaction is
// a pure first-use-order copy (resultset.CompactLabels), so its output is
// byte-for-byte what a from-scratch rebuild would intern — the periodic
// rebuild is no longer the only thing that reclaims arena space. Persisting
// does not depend on it: the store encoder writes any table in that same
// first-use order through a label remap, without copying the table.

// ArenaLive returns the number of arena ids referenced by some cell and the
// total arena size; the difference is maintenance garbage.
func (d *Diagram) ArenaLive() (live, total int) {
	if d.results == nil {
		return 0, 0
	}
	return resultset.LiveArena(d.labels, d.results)
}

// CompactArena returns an equivalent diagram over a garbage-free result
// table. The receiver is unchanged; dropping it releases the old arena.
func (d *Diagram) CompactArena() *Diagram {
	if d.results == nil {
		return d
	}
	labels, table := resultset.CompactLabels(d.labels, d.results)
	return &Diagram{
		Points:  d.Points,
		Grid:    d.Grid,
		byID:    d.byID,
		labels:  labels,
		results: table,
		rows:    d.rows,
	}
}

// ArenaLive sums the merged table and the four retained reflected quadrant
// tables (the Quadrants share the reflected diagrams' tables, so they are
// not counted again).
func (gd *GlobalDiagram) ArenaLive() (live, total int) {
	if gd.results != nil {
		live, total = resultset.LiveArena(gd.labels, gd.results)
	}
	for mask := 0; mask < 4; mask++ {
		if rd := gd.reflected[mask]; rd != nil {
			l, t := rd.ArenaLive()
			live += l
			total += t
		}
	}
	return live, total
}

// CompactArena compacts the merged table and, when the diagram was built by
// BuildGlobal (reflected state present), each retained reflected quadrant
// table, re-deriving the remapped Quadrants from the compacted reflections.
func (gd *GlobalDiagram) CompactArena() *GlobalDiagram {
	if gd.results == nil {
		return gd
	}
	labels, table := resultset.CompactLabels(gd.labels, gd.results)
	out := &GlobalDiagram{
		Points:  gd.Points,
		Grid:    gd.Grid,
		labels:  labels,
		results: table,
		rows:    gd.rows,
	}
	for mask := 0; mask < 4; mask++ {
		rd := gd.reflected[mask]
		if rd == nil {
			// Not a BuildGlobal product: keep the quadrant state verbatim.
			out.Quadrants = gd.Quadrants
			out.reflected = gd.reflected
			return out
		}
		out.reflected[mask] = rd.CompactArena()
		out.Quadrants[mask] = remap(out.reflected[mask], gd.Points, gd.Grid, mask)
	}
	return out
}
