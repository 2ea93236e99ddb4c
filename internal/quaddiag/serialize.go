package quaddiag

import "repro/internal/geom"

// Export returns the diagram's points and per-cell results (row-major,
// cells[i*rows+j]) for serialization. The cell slices alias the diagram's
// arena; callers must treat them as read-only. Empty cells export as nil,
// matching the construction-time representation.
func (d *Diagram) Export() (pts []geom.Point, cells [][]int32) {
	cells = make([][]int32, d.Grid.NumCells())
	d.eachColumn(func(i int, col []uint32) {
		for j, l := range col {
			if d.results.Len(l) > 0 {
				cells[i*d.rows+j] = d.results.Result(l)
			}
		}
	})
	return d.Points, cells
}
