package quaddiag

import (
	"errors"
	"fmt"

	"repro/internal/geom"
)

// Incremental maintenance for the global diagram. The global result of a
// cell is the disjoint union of its four quadrant components (Definition 3),
// and the diagram stores nothing but those components, so maintenance is the
// quadrant case four times over: the caller maintains mask 0 — the quadrant
// diagram of Points, gd.Reflected(0) — and passes the result in; here each of
// the three reflected components is updated with the reflected point. Nothing
// is merged: readers merge a cell's components when they read it.

// WithInsert returns the global diagram of Points ∪ {p} around quad, which
// must be gd.Reflected(0).WithInsert(p).
func (gd *GlobalDiagram) WithInsert(p geom.Point, quad *Diagram) (*GlobalDiagram, error) {
	if p.Dim() != 2 {
		return nil, fmt.Errorf("quaddiag: insert requires a 2-D point, got dimension %d", p.Dim())
	}
	return gd.derive(quad, func(rd *Diagram, mask int) (*Diagram, error) {
		return rd.WithInsert(geom.Reflect([]geom.Point{p}, mask)[0])
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
	return ngd, nil
}

// Work sums the maintenance work of the three reflected components (masks
// 1–3): what deriving gd wrote besides its mask-0 component, the quadrant
// diagram, which reports its own.
func (gd *GlobalDiagram) Work() Work {
	var w Work
	for mask := 1; mask < 4; mask++ {
		rw := gd.reflected[mask].work
		w.TilesCopied += rw.TilesCopied
		w.CellsWritten += rw.CellsWritten
	}
	return w
}

// Equal reports whether two global diagrams answer every query identically.
func (gd *GlobalDiagram) Equal(o *GlobalDiagram) bool {
	if gd.Grid.Cols() != o.Grid.Cols() || gd.Grid.Rows() != o.Grid.Rows() {
		return false
	}
	same := gd.sameAs(o)
	for i := 0; i < gd.Grid.Cols(); i++ {
		for j := 0; j < gd.rows; j++ {
			if !same(i, j, i, j) {
				return false
			}
		}
	}
	return true
}
