package dyndiag

import "repro/internal/geom"

// Export returns the diagram's points and per-subcell results (row-major,
// cells[i*rows+j]) for serialization. The cell slices alias the diagram's
// arena; callers must treat them as read-only. Empty subcells export as nil.
func (d *Diagram) Export() (pts []geom.Point, cells [][]int32) {
	cells = make([][]int32, len(d.labels))
	for k, l := range d.labels {
		if d.results.Len(l) > 0 {
			cells[k] = d.results.Result(l)
		}
	}
	return d.Points, cells
}
