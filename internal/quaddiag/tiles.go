package quaddiag

import (
	"repro/internal/geom"
	"repro/internal/grid"
)

// Label tiles. A diagram's cell labels live in square tiles of
// tileSide×tileSide labels (4 KiB each) under a tile directory, addressed by
// line slots rather than by rank, so that a write copies only the tiles it
// writes into and shares every other tile with the diagram it derives from.
//
// Each axis numbers its grid lines with stable slots: colSlot[i] is the
// slot of column i's right line and rowSlot[j] the slot of row j's upper
// line, where the last column and the top row have the +∞ sentinel line.
// Cell (i, j) is slot pair (colSlot[i], rowSlot[j]); slot pair (s, t) is
// entry (s mod tileSide, t mod tileSide) of tile (s/tileSide, t/tileSide),
// a column-major tile grid tileRows tiles tall. A fresh build and a
// compaction number the slots by rank, so the tiles cover the cells densely
// in rank order.
//
// Maintenance keeps every surviving line's slot. Anchoring a column at its
// right line keeps a point's column and row beyond it in place: a point
// changes only cells below and left of it. An insert's new line splits a
// column in two; the piece past the line keeps the old slot and results,
// and the piece before it takes a free slot (a deleted line's) or else the
// next unused one. A delete frees its line's slot, and the merged column
// keeps the slot of the piece past the line, whose results it inherits. A
// freed slot's cells stay in their tiles, unread, until a new line takes
// the slot and writes them.
//
// Tiles are copy-on-write. A derived diagram starts with a copy of its
// base's directory, sharing every tile, and copies a tile the first time it
// writes a cell in it; each copied tile is its own allocation, so a
// superseded tile is freed as soon as no snapshot holds it. A tile never
// changes once its diagram is returned, so any number of diagrams derived
// from one base — a retried batch, a test deriving twice — each copy their
// own tiles and leave the base's as they were.

const (
	tileShift = 5
	tileSide  = 1 << tileShift // a tile holds tileSide×tileSide labels
	tileMask  = tileSide - 1
)

type tile [tileSide * tileSide]uint32

// tilesFor returns the number of tiles that cover n slots of one axis.
func tilesFor(n int) int { return (n + tileMask) >> tileShift }

// Work counts what one maintenance derivation wrote: the label tiles it
// copied (a tile for slots no tile covered yet counts too) and the cells it
// wrote. A diagram's Work is its derivation's; a fresh build or a
// compaction did none.
type Work struct {
	TilesCopied, CellsWritten int
}

// Work returns what deriving d from its base wrote.
func (d *Diagram) Work() Work { return d.work }

// Label returns the interned result label of cell (i, j): two slot loads, a
// directory load and the label load.
func (d *Diagram) Label(i, j int) uint32 {
	s, t := d.colSlot[i], d.rowSlot[j]
	return d.tiles[int(s>>tileShift)*d.tileRows+int(t>>tileShift)][(s&tileMask)<<tileShift|t&tileMask]
}

// columnLabels fills dst with the labels of column i from row j on.
func (d *Diagram) columnLabels(dst []uint32, i, j int) {
	s := d.colSlot[i]
	dir, off := d.tiles[int(s>>tileShift)*d.tileRows:], (s&tileMask)<<tileShift
	for k, t := range d.rowSlot[j : j+len(dst)] {
		dst[k] = dir[t>>tileShift][off|t&tileMask]
	}
}

// CellLabels fills dst with the labels of cells k, k+1, … in rank order —
// cell k is (k/rows, k%rows), the cell order of the store's files — and
// returns how many it filled: len(dst), or fewer when the cells run out.
func (d *Diagram) CellLabels(dst []uint32, k int) int {
	i, j, n := k/d.rows, k%d.rows, 0
	for n < len(dst) && i < len(d.colSlot) {
		m := min(len(dst)-n, d.rows-j)
		d.columnLabels(dst[n:n+m], i, j)
		n, i, j = n+m, i+1, 0
	}
	return n
}

// layOutDense numbers the slots of d, a diagram without tiles yet, by rank
// and allocates fresh tiles covering them: the layout of a fresh build and
// of a compaction.
func (d *Diagram) layOutDense() {
	d.colSlot, d.rowSlot = rankSlots(d.Grid.Cols()), rankSlots(d.rows)
	d.tileRows = tilesFor(d.rows)
	d.tiles = make([]*tile, tilesFor(len(d.colSlot))*d.tileRows)
	for k := range d.tiles {
		d.tiles[k] = new(tile)
	}
}

func rankSlots(n int) []uint32 {
	s := make([]uint32, n)
	for i := range s {
		s[i] = uint32(i)
	}
	return s
}

// putColumn stores labels as column i's, in a diagram whose tiles are its
// own (a fresh build or a compaction being laid out).
func (d *Diagram) putColumn(i int, labels []uint32) {
	s := d.colSlot[i]
	dir, off := d.tiles[int(s>>tileShift)*d.tileRows:], (s&tileMask)<<tileShift
	for j, t := range d.rowSlot {
		dir[t>>tileShift][off|t&tileMask] = labels[j]
	}
}

// eachColumn calls f with every column's labels in rank order, through one
// reused buffer.
func (d *Diagram) eachColumn(f func(i int, labels []uint32)) {
	col := make([]uint32, d.rows)
	for i := range d.colSlot {
		d.columnLabels(col, i, 0)
		f(i, col)
	}
}

// withSlot returns slots with a slot for a new line inserted at rank r, and
// the free list left: the new line takes the last freed slot, or else the
// first slot never used. Both results are new arrays or read-only prefixes
// of free, never written in place, so the base keeps its own.
func withSlot(slots, free []uint32, r int) ([]uint32, []uint32) {
	var s uint32
	if n := len(free); n > 0 {
		s, free = free[n-1], free[:n-1:n-1]
	} else {
		s = uint32(len(slots))
	}
	out := make([]uint32, len(slots)+1)
	copy(out, slots[:r])
	out[r] = s
	copy(out[r+1:], slots[r:])
	return out, free
}

// withoutSlot returns slots without the line at rank r, and the free list
// with that line's slot added; both are new arrays.
func withoutSlot(slots, free []uint32, r int) ([]uint32, []uint32) {
	out := make([]uint32, len(slots)-1)
	copy(out, slots[:r])
	copy(out[r:], slots[r+1:])
	nf := make([]uint32, len(free)+1)
	copy(nf, free)
	nf[len(free)] = slots[r]
	return out, nf
}

// tileWriter writes the labels of a diagram derived from a base, copying
// each tile it shares with the base the first time it writes into it.
type tileWriter struct {
	d     *Diagram
	owned []bool // owned[k]: d.tiles[k] is the derived diagram's own
}

// derive returns a diagram of pts over g with the given slots whose
// directory shares every tile of d, and the writer of its labels.
func (d *Diagram) derive(pts []geom.Point, g *grid.Grid, colSlot, rowSlot, freeCols, freeRows []uint32) (*Diagram, *tileWriter) {
	nd := &Diagram{
		Points: pts, Grid: g, rows: g.Rows(),
		colSlot: colSlot, rowSlot: rowSlot, freeCols: freeCols, freeRows: freeRows,
		tileRows: tilesFor(len(rowSlot) + len(freeRows)),
	}
	nd.tiles = make([]*tile, tilesFor(len(colSlot)+len(freeCols))*nd.tileRows)
	for c := 0; c < len(d.tiles)/d.tileRows; c++ {
		copy(nd.tiles[c*nd.tileRows:], d.tiles[c*d.tileRows:(c+1)*d.tileRows])
	}
	return nd, &tileWriter{d: nd, owned: make([]bool, len(nd.tiles))}
}

// set writes label l into cell (i, j).
func (w *tileWriter) set(i, j int, l uint32) {
	d := w.d
	s, t := d.colSlot[i], d.rowSlot[j]
	k := int(s>>tileShift)*d.tileRows + int(t>>tileShift)
	if !w.owned[k] {
		own := new(tile)
		if d.tiles[k] != nil {
			*own = *d.tiles[k]
		}
		d.tiles[k], w.owned[k] = own, true
		d.work.TilesCopied++
	}
	d.tiles[k][(s&tileMask)<<tileShift|t&tileMask] = l
	d.work.CellsWritten++
}
