package quaddiag

import "repro/internal/resultset"

// Arena compaction. Copy-on-write maintenance (WithInsert/WithDelete) leaves
// unreferenced results behind in the shared arena; these methods measure that
// garbage and rewrite the diagram against a garbage-free table. Compaction is
// a pure first-use-order copy (resultset.CompactLabels) into rank-numbered
// slots, so its output is byte-for-byte what a from-scratch rebuild would
// intern and lay out — the periodic rebuild is no longer the only thing that
// reclaims arena space. Persisting does not depend on it: the store encoder
// writes any table in that same first-use order through a label remap,
// without copying the table.

// ArenaLive returns the number of arena ids referenced by some cell and the
// total arena size; the difference is maintenance garbage.
func (d *Diagram) ArenaLive() (live, total int) {
	if d.results == nil {
		return 0, 0
	}
	return resultset.LiveArena(d.results, func(visit func([]uint32)) {
		d.eachColumn(func(_ int, col []uint32) { visit(col) })
	})
}

// CompactArena returns an equivalent diagram over a garbage-free result
// table, its slots renumbered by rank over fresh tiles: the layout and
// labels a fresh build would produce. The receiver is unchanged; dropping
// it releases the old arena and tiles.
func (d *Diagram) CompactArena() *Diagram {
	if d.results == nil {
		return d
	}
	nd := &Diagram{Points: d.Points, Grid: d.Grid, rows: d.rows}
	nd.layOutDense()
	nd.results = resultset.CompactLabels(d.results, func(relabel func([]uint32)) {
		d.eachColumn(func(i int, col []uint32) {
			relabel(col)
			nd.putColumn(i, col)
		})
	})
	return nd
}

// ArenaLive sums the three reflected component tables (masks 1–3). Mask 0
// is the quadrant diagram the global diagram was built around; its holder
// counts it, so a set that serves both counts it once.
func (gd *GlobalDiagram) ArenaLive() (live, total int) {
	for mask := 1; mask < 4; mask++ {
		l, t := gd.reflected[mask].ArenaLive()
		live += l
		total += t
	}
	return live, total
}

// CompactArena compacts the three reflected component tables around quad,
// which must be gd.Reflected(0).CompactArena(): the compacted diagram shares
// it as mask 0 instead of compacting it again.
func (gd *GlobalDiagram) CompactArena(quad *Diagram) *GlobalDiagram {
	out := &GlobalDiagram{Points: gd.Points, Grid: gd.Grid, rows: gd.rows}
	out.reflected[0] = quad
	for mask := 1; mask < 4; mask++ {
		out.reflected[mask] = gd.reflected[mask].CompactArena()
	}
	return out
}
