package dyndiag

import (
	"slices"

	"repro/internal/resultset"
)

// ArenaLive returns the number of arena ids referenced by some subcell and
// the total arena size; the difference is garbage left by copy-on-write
// maintenance (WithInsert/WithDelete).
func (d *Diagram) ArenaLive() (live, total int) {
	if d.results == nil {
		return 0, 0
	}
	return resultset.LiveArena(d.results, func(visit func([]uint32)) { visit(d.labels) })
}

// CompactArena returns an equivalent diagram over a garbage-free result
// table, relabelled in first-use order — byte-identical to what a rebuild
// would intern. The receiver is unchanged.
func (d *Diagram) CompactArena() *Diagram {
	if d.results == nil {
		return d
	}
	labels := slices.Clone(d.labels)
	table := resultset.CompactLabels(d.results, func(relabel func([]uint32)) { relabel(labels) })
	return &Diagram{
		Points:  d.Points,
		Sub:     d.Sub,
		labels:  labels,
		results: table,
		rows:    d.rows,
	}
}
