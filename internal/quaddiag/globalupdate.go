package quaddiag

import (
	"errors"
	"fmt"

	"repro/internal/geom"
	"repro/internal/resultset"
)

// Incremental maintenance for the global diagram. The global result of a
// cell is the disjoint union of its four quadrant components (Definition 3),
// so maintenance reduces to the quadrant case: the caller maintains mask 0 —
// the quadrant diagram of Points, gd.Reflected(0) — and passes the result in;
// here each of the three reflected components is updated with the reflected
// point, and only the cells whose components changed are re-merged.
//
// The carry test compares interned labels across the old and new component
// tables, each read through its flip. That comparison is sound because each
// new component's interner is seeded from its old table (NewInternerFrom):
// old labels stay stable, fresh labels are numerically >= the old table's
// NumResults, and hash-consing folds recomputed-but-identical results back
// onto their old label. Equal labels therefore imply equal content; an
// unequal label at worst triggers a redundant merge that hash-conses back to
// the old global label. When all four components of a cell kept their
// labels, the old global label is carried over in O(1) with no interning at
// all. The mask-0 argument must therefore be derived from gd.Reflected(0).

// WithInsert returns the global diagram of Points ∪ {p} around quad, which
// must be gd.Reflected(0).WithInsert(p).
func (gd *GlobalDiagram) WithInsert(p geom.Point, quad *Diagram) (*GlobalDiagram, error) {
	if p.Dim() != 2 {
		return nil, fmt.Errorf("quaddiag: insert requires a 2-D point, got dimension %d", p.Dim())
	}
	return gd.derive(quad, func(rd *Diagram, mask int) (*Diagram, error) {
		return rd.WithInsert(reflectPoint(p, mask))
	})
}

// WithDelete returns the global diagram of Points \ {id} around quad, which
// must be gd.Reflected(0).WithDelete(id).
func (gd *GlobalDiagram) WithDelete(id int, quad *Diagram) (*GlobalDiagram, error) {
	return gd.derive(quad, func(rd *Diagram, _ int) (*Diagram, error) {
		return rd.WithDelete(id)
	})
}

// derive assembles the updated global diagram around the maintained mask-0
// component from per-mask updates of the other three.
func (gd *GlobalDiagram) derive(quad *Diagram, update func(rd *Diagram, mask int) (*Diagram, error)) (*GlobalDiagram, error) {
	ngd := &GlobalDiagram{Points: quad.Points, Grid: quad.Grid, rows: quad.rows}
	ngd.reflected[0] = quad
	for mask := 1; mask < 4; mask++ {
		nref, err := update(gd.reflected[mask], mask)
		if err != nil {
			return nil, err
		}
		if len(nref.Points) != len(quad.Points) || nref.Grid.Cols() != quad.Grid.Cols() || nref.rows != quad.rows {
			return nil, errors.New("quaddiag: mask-0 diagram does not match the maintained reflections")
		}
		ngd.reflected[mask] = nref
	}
	ngd.mergeQuadrantsFrom(gd)
	return ngd, nil
}

// mergeQuadrantsFrom is mergeQuadrants with copy-on-write against an older
// global diagram: a cell whose four quadrant components all kept their
// labels carries its old global label verbatim; only changed cells pay a
// merge and an intern, against an interner seeded from the old table.
//
// Cells are matched through a grid corner lookup that works in both update
// directions: on insert every new cell lies inside exactly one old cell, on
// delete the located old cell is the lower-left constituent of the new cell
// — either way the old cell's result is the right comparand because results
// are constant on cells of both arrangements.
func (gd *GlobalDiagram) mergeQuadrantsFrom(old *GlobalDiagram) {
	in := resultset.NewInternerFrom(old.results)
	var m merger
	gd.labels = make([]uint32, gd.Grid.NumCells())
	oldCol, oldRow, _ := containingCells(gd.Grid, old.Grid)
	for i := 0; i < gd.Grid.Cols(); i++ {
		for j := 0; j < gd.rows; j++ {
			oi, oj := oldCol[i], oldRow[j]
			carry := true
			for mask := 0; mask < 4; mask++ {
				if gd.componentLabel(mask, i, j) != old.componentLabel(mask, oi, oj) {
					carry = false
					break
				}
			}
			if carry {
				gd.labels[i*gd.rows+j] = old.labels[oi*old.rows+oj]
				continue
			}
			gd.labels[i*gd.rows+j] = in.Intern(m.cell(gd, i, j))
		}
	}
	gd.results = in.Table()
}

// reflectPoint is geom.Reflect for a single 2-D point.
func reflectPoint(p geom.Point, mask int) geom.Point {
	c := []float64{p.X(), p.Y()}
	if mask&1 != 0 {
		c[0] = -c[0]
	}
	if mask&2 != 0 {
		c[1] = -c[1]
	}
	return geom.Point{ID: p.ID, Coords: c}
}

// Equal reports whether two global diagrams answer every query identically.
func (gd *GlobalDiagram) Equal(o *GlobalDiagram) bool {
	if gd.Grid.Cols() != o.Grid.Cols() || gd.Grid.Rows() != o.Grid.Rows() {
		return false
	}
	for i := 0; i < gd.Grid.Cols(); i++ {
		for j := 0; j < gd.rows; j++ {
			if !equalIDs(gd.Cell(i, j), o.Cell(i, j)) {
				return false
			}
		}
	}
	return true
}
