package quaddiag

import (
	"repro/internal/geom"
	"repro/internal/resultset"
)

// Export returns the diagram's points and per-cell results (row-major,
// cells[i*rows+j]) for serialization. The cell slices alias the diagram's
// arena; callers must treat them as read-only. Empty cells export as nil,
// matching the construction-time representation.
func (d *Diagram) Export() (pts []geom.Point, cells [][]int32) {
	cells = make([][]int32, len(d.labels))
	for k, l := range d.labels {
		if d.results.Len(l) > 0 {
			cells[k] = d.results.Result(l)
		}
	}
	return d.Points, cells
}

// ExportCSR returns the diagram's interned form for zero-copy serialization:
// the row-major per-cell labels and the shared result table.
func (d *Diagram) ExportCSR() (labels []uint32, table *resultset.Table) {
	return d.labels, d.results
}
