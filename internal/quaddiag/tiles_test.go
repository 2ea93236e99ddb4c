package quaddiag

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
)

// labelAt returns the label d's tiles hold at slot pair (s, t).
func labelAt(d *Diagram, s, t uint32) uint32 {
	return d.tiles[int(s>>tileShift)*d.tileRows+int(t>>tileShift)][(s&tileMask)<<tileShift|t&tileMask]
}

// tileDiff is the work deriving nd from base shows when the two are
// compared directly: the tiles of nd that base does not hold at the same
// tile position, and the cells of nd whose slot pair was not a cell of base
// or holds a different label there.
func tileDiff(base, nd *Diagram) Work {
	var w Work
	baseCols := len(base.tiles) / base.tileRows
	for k, t := range nd.tiles {
		c, r := k/nd.tileRows, k%nd.tileRows
		if t != nil && (c >= baseCols || r >= base.tileRows || base.tiles[c*base.tileRows+r] != t) {
			w.TilesCopied++
		}
	}
	liveCol, liveRow := map[uint32]bool{}, map[uint32]bool{}
	for _, s := range base.colSlot {
		liveCol[s] = true
	}
	for _, t := range base.rowSlot {
		liveRow[t] = true
	}
	for i, s := range nd.colSlot {
		for j, t := range nd.rowSlot {
			if !liveCol[s] || !liveRow[t] || labelAt(base, s, t) != nd.Label(i, j) {
				w.CellsWritten++
			}
		}
	}
	return w
}

// interiorPoint returns a point between d's grid lines, inside the grid.
func interiorPoint(rng *rand.Rand, d *Diagram, id int) geom.Point {
	xs, ys := d.Grid.Xs, d.Grid.Ys
	i, j := rng.Intn(len(xs)-1), rng.Intn(len(ys)-1)
	return geom.Pt2(id, (xs[i]+xs[i+1])/2, (ys[j]+ys[j+1])/2)
}

// TestWorkMatchesTileDiff checks, over a chain of writes at n=100 (four
// tiles per axis) with slot reuse and a compaction, that every
// derivation's Work equals a direct diff of the diagram against its base,
// and that the chain stays equal to a rebuild.
func TestWorkMatchesTileDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := genGP(rng, 100)
	d, err := BuildScanning(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w := d.Work(); w != (Work{}) {
		t.Fatalf("fresh build reports work %+v", w)
	}
	nextID := 1000
	for step := 0; step < 60; step++ {
		var nd *Diagram
		var op string
		switch {
		case step%3 != 2:
			p := interiorPoint(rng, d, nextID)
			if step%6 == 1 { // on an existing x line: a new row only
				p.Coords[0] = d.Points[rng.Intn(len(d.Points))].X()
			}
			nextID++
			op = fmt.Sprintf("insert %v", p)
			nd, err = d.WithInsert(p)
		default:
			id := d.Points[rng.Intn(len(d.Points))].ID
			op = fmt.Sprintf("delete %d", id)
			nd, err = d.WithDelete(id)
		}
		if err != nil {
			t.Fatalf("step %d %s: %v", step, op, err)
		}
		if got, want := nd.Work(), tileDiff(d, nd); got != want {
			t.Fatalf("step %d %s: work %+v, direct diff %+v", step, op, got, want)
		}
		if nd.Work().CellsWritten == 0 {
			t.Fatalf("step %d %s: wrote no cell", step, op)
		}
		fresh, err := BuildScanning(nd.Points, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !nd.Equal(fresh) {
			t.Fatalf("step %d %s: maintained diagram differs from rebuild", step, op)
		}
		d = nd
		if step == 30 {
			d = d.CompactArena()
		}
	}
}

// TestToggleReusesSlots toggles one interior point 1,000 times: the insert
// takes the slots its delete freed, so each axis holds at most one slot
// more than it has lines, and the tile directory does not grow.
func TestToggleReusesSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	d, err := BuildScanning(genGP(rng, 40), 1)
	if err != nil {
		t.Fatal(err)
	}
	p := interiorPoint(rng, d, 5000)
	tiles := 0
	for k := 0; k < 1000; k++ {
		for _, insert := range []bool{true, false} {
			if insert {
				d, err = d.WithInsert(p)
			} else {
				d, err = d.WithDelete(p.ID)
			}
			if err != nil {
				t.Fatalf("toggle %d: %v", k, err)
			}
			cols, rows := len(d.colSlot)+len(d.freeCols), len(d.rowSlot)+len(d.freeRows)
			if cols > d.Grid.Cols()+1 || rows > d.Grid.Rows()+1 {
				t.Fatalf("toggle %d: %d column and %d row slots for %d columns and %d rows",
					k, cols, rows, d.Grid.Cols(), d.Grid.Rows())
			}
			if tiles == 0 {
				tiles = len(d.tiles)
			} else if len(d.tiles) != tiles {
				t.Fatalf("toggle %d: tile directory grew from %d to %d", k, tiles, len(d.tiles))
			}
		}
	}
	fresh, err := BuildScanning(d.Points, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal(fresh) {
		t.Fatal("toggled diagram differs from rebuild")
	}
}

// allocBytes returns the bytes f allocates on the heap.
func allocBytes(f func()) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	f()
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - before
}

// TestWriteAllocatesChangedTiles measures the label bytes one component's
// interior writes allocate at n=400: what a write allocates beyond its new
// point slice and each grid axis it derives, with that axis's rank table
// (measured by building those alone; the diagram is a fresh build's, whose
// grid has rank tables, as mask 0's does). Over alternating interior
// inserts and deletes, the median
// of each allocates less than a quarter of the 4 bytes per cell a flat
// label array takes, which every write allocated before labels were tiled.
// The median leaves out the writes that grow the result table's arena or
// dedup index, whose doublings every write pays for, amortized, whatever
// it changes.
func TestWriteAllocatesChangedTiles(t *testing.T) {
	if testing.Short() {
		t.Skip("n=400")
	}
	rng := rand.New(rand.NewSource(13))
	d, err := BuildScanning(genGP(rng, 400), 1)
	if err != nil {
		t.Fatal(err)
	}
	// The first write builds the fresh table's dedup index; measure after.
	if d, err = d.WithDelete(d.Points[0].ID); err != nil {
		t.Fatal(err)
	}
	labelBytes := func(write func() (*Diagram, error)) float64 {
		var nd *Diagram
		b := allocBytes(func() { nd, err = write() })
		if err != nil {
			t.Fatal(err)
		}
		base := d
		d = nd
		return float64(b) - float64(allocBytes(func() {
			pts := make([]geom.Point, len(nd.Points))
			copy(pts, nd.Points)
			if nd.Grid.Cols() != base.Grid.Cols() {
				grid.NewRank(slices.Clone(nd.Grid.Xs))
			}
			if nd.Grid.Rows() != base.Grid.Rows() {
				grid.NewRank(slices.Clone(nd.Grid.Ys))
			}
		}))
	}
	const writes = 21
	flat := float64(4 * d.Grid.NumCells())
	var insert, delete []float64
	for k := 0; k < writes; k++ {
		p := interiorPoint(rng, d, 5000+k)
		insert = append(insert, labelBytes(func() (*Diagram, error) { return d.WithInsert(p) }))
		id := d.Points[rng.Intn(len(d.Points))].ID
		delete = append(delete, labelBytes(func() (*Diagram, error) { return d.WithDelete(id) }))
	}
	for _, c := range []struct {
		op    string
		bytes []float64
	}{{"insert", insert}, {"delete", delete}} {
		slices.Sort(c.bytes)
		med := c.bytes[writes/2]
		t.Logf("%s: median %.0f label bytes per write (%.0f..%.0f), %.1f%% of a %.0f-byte flat label array",
			c.op, med, c.bytes[0], c.bytes[writes-1], 100*med/flat, flat)
		if med >= flat/4 {
			t.Errorf("an interior %s allocates %.0f label bytes, want < %.0f (a quarter of the flat array)", c.op, med, flat/4)
		}
	}
}
