package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/quaddiag"
	"repro/internal/store"
)

// tileChainOps draws a deterministic op stream over a set of about n
// points whose coordinates come from [0, 1000): interior inserts between the
// grid lines, deletes, inserts on an existing x line or on an existing
// location, and toggles (an insert at once deleted, or a delete at once
// re-inserted). It keeps the point count within 10% of n, so every axis
// keeps about n lines and several 32-line label tiles.
func tileChainOps(rng *rand.Rand, pts []geom.Point, n, count int) []Op {
	live := slices.Clone(pts)
	nextID := 100000
	var ops []Op
	apply := func(op Op) {
		ops = append(ops, op)
		if op.Insert {
			live = append(live, op.Point)
			return
		}
		for k, q := range live {
			if q.ID == op.ID {
				live = slices.Delete(live, k, k+1)
				return
			}
		}
	}
	for len(ops) < count {
		coord := func() float64 { return float64(rng.Intn(1000)) + 0.5 }
		p := geom.Pt2(nextID, coord(), coord())
		nextID++
		b := live[rng.Intn(len(live))]
		kind := rng.Intn(6)
		switch {
		case len(live) > n+n/10:
			kind = 1
		case len(live) < n-n/10:
			kind = 0
		}
		switch kind {
		case 0: // interior insert
			apply(InsertOp(p))
		case 1: // delete
			apply(DeleteOp(b.ID))
		case 2: // on an existing x line
			p.Coords[0] = b.X()
			apply(InsertOp(p))
		case 3: // on an existing location
			p.Coords[0], p.Coords[1] = b.X(), b.Y()
			apply(InsertOp(p))
		case 4: // toggle in
			apply(InsertOp(p))
			apply(DeleteOp(p.ID))
		case 5: // toggle out
			apply(DeleteOp(b.ID))
			apply(InsertOp(b))
		}
	}
	return ops[:count]
}

// tileChainBase returns n points with integer coordinates in [0, 1000).
func tileChainBase(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt2(i, float64(rng.Intn(1000)), float64(rng.Intn(1000)))
	}
	return pts
}

// TestUpdateChainAcrossTiles runs a 150-op chain at n≈100, so each axis
// spans four label tiles and maintenance reuses slots well past 64, with a
// compaction every 25 ops. After every op the maintained set must equal a
// rebuild, and the quadrant diagram must encode to the rebuild's bytes.
func TestUpdateChainAcrossTiles(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	pts := tileChainBase(rng, 100)
	set, err := BuildSet(pts, UpdateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for step, op := range tileChainOps(rng, pts, 100, 150) {
		if set, err = set.Apply(op, UpdateOptions{}); err != nil {
			t.Fatalf("step %d %s: %v", step, op, err)
		}
		if (step+1)%25 == 0 {
			set = set.CompactArenas()
		}
		fresh, err := BuildSet(set.Points, UpdateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !set.Equal(fresh) {
			t.Fatalf("step %d %s: maintained set differs from rebuild (n=%d)", step, op, len(set.Points))
		}
		var got, want bytes.Buffer
		if err := store.WriteEpoch(&got, set.Quadrant.Cells(), 1); err != nil {
			t.Fatal(err)
		}
		if err := store.WriteEpoch(&want, fresh.Quadrant.Cells(), 1); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("step %d %s: maintained quadrant diagram encodes to other bytes than a rebuild", step, op)
		}
	}
}

// answers returns the quadrant and global answers of set at every probe.
func answers(set *DiagramSet, probes [][2]float64) [][]int32 {
	out := make([][]int32, 0, 2*len(probes))
	for _, q := range probes {
		out = append(out, set.Quadrant.AppendQueryXY(nil, q[0], q[1]), set.Global.AppendQueryXY(nil, q[0], q[1]))
	}
	return out
}

// TestOldSnapshotStableUnderDerivations reads one snapshot from several
// goroutines while a writer derives a 200-op chain from it and a second
// derivation forks from the same base: every derivation shares the base's
// label tiles until it copies them, so any write into a shared tile shows
// as a changed answer of the old snapshot (and, under -race, as a race).
func TestOldSnapshotStableUnderDerivations(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pts := tileChainBase(rng, 100)
	base, err := BuildSet(pts, UpdateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var probes [][2]float64
	for x := -5.0; x < 1005; x += 37 {
		for y := -5.0; y < 1005; y += 41 {
			probes = append(probes, [2]float64{x, y})
		}
	}
	want := answers(base, probes)
	chain := tileChainOps(rng, pts, 100, 200)
	fork := tileChainOps(rng, pts, 100, 50)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readErr := make(chan error, 2)
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			dst := make([]int32, 0, 128)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for k, q := range probes {
					dst = base.Quadrant.AppendQueryXY(dst[:0], q[0], q[1])
					if !slices.Equal(dst, want[2*k]) {
						readErr <- fmt.Errorf("quadrant answer at %v changed from %v to %v", q, want[2*k], dst)
						return
					}
					dst = base.Global.AppendQueryXY(dst[:0], q[0], q[1])
					if !slices.Equal(dst, want[2*k+1]) {
						readErr <- fmt.Errorf("global answer at %v changed from %v to %v", q, want[2*k+1], dst)
						return
					}
				}
			}
		}()
	}
	derive := func(ops []Op) (*DiagramSet, error) {
		set := base
		for step, op := range ops {
			next, err := set.Apply(op, UpdateOptions{})
			if err != nil {
				return nil, fmt.Errorf("step %d %s: %w", step, op, err)
			}
			if set = next; (step+1)%25 == 0 {
				set = set.CompactArenas()
			}
		}
		return set, nil
	}
	var writers sync.WaitGroup
	var ends [2]*DiagramSet
	var errs [2]error
	for k, ops := range [][]Op{chain, fork} {
		writers.Add(1)
		go func(k int, ops []Op) {
			defer writers.Done()
			ends[k], errs[k] = derive(ops)
		}(k, ops)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	close(readErr)
	for err := range readErr {
		t.Error(err)
	}
	for k, err := range errs {
		if err != nil {
			t.Fatalf("derivation %d: %v", k, err)
		}
	}
	for k, end := range ends {
		fresh, err := BuildSet(end.Points, UpdateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !end.Equal(fresh) {
			t.Errorf("derivation %d differs from a rebuild of its points", k)
		}
	}
	if got := answers(base, probes); !slices.EqualFunc(got, want, slices.Equal[[]int32]) {
		t.Error("the base snapshot's answers changed")
	}
}

// TestMaintenanceCountersMatchWork checks that Apply adds each derivation's
// work to the registry by kind — the quadrant diagram's under quadrant, the
// global diagram's three reflected components' under global — at n=100.
// quaddiag's TestWorkMatchesTileDiff holds the work itself to a direct diff
// of the diagrams.
func TestMaintenanceCountersMatchWork(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	pts := tileChainBase(rng, 100)
	reg := metrics.NewRegistry()
	opts := UpdateOptions{Metrics: reg}
	set, err := BuildSet(pts, opts)
	if err != nil {
		t.Fatal(err)
	}
	var want [2]quaddiag.Work
	for step, op := range tileChainOps(rng, pts, 100, 20) {
		if set, err = set.Apply(op, opts); err != nil {
			t.Fatalf("step %d %s: %v", step, op, err)
		}
		for k, w := range []quaddiag.Work{set.Quadrant.d.Work(), set.Global.d.Work()} {
			want[k].TilesCopied += w.TilesCopied
			want[k].CellsWritten += w.CellsWritten
		}
	}
	for k, kind := range []string{"quadrant", "global"} {
		tiles := reg.Counter("skydiag_maintenance_tiles_copied_total", "", "kind", kind).Value()
		cells := reg.Counter("skydiag_maintenance_cells_written_total", "", "kind", kind).Value()
		if tiles != int64(want[k].TilesCopied) || cells != int64(want[k].CellsWritten) {
			t.Errorf("%s: counters %d tiles, %d cells; the derivations report %+v", kind, tiles, cells, want[k])
		}
		if tiles == 0 || cells == 0 {
			t.Errorf("%s: 20 writes counted %d tiles and %d cells", kind, tiles, cells)
		}
	}
}

// Every diagram stores ids as int32. An id outside that range would wrap
// onto another point's (4294967301 wraps to 5), so every build refuses it
// and Apply rejects its insert as the op's own fault.
func TestIDsOutsideInt32Refused(t *testing.T) {
	wide := geom.Pt2(4294967301, 10, 10)
	pts := []geom.Point{geom.Pt2(5, 5, 5), wide}
	if _, err := BuildSet(pts, UpdateOptions{}); err == nil {
		t.Error("BuildSet accepted id 4294967301")
	}
	if _, err := BuildGlobal(pts, Options{}); err == nil {
		t.Error("BuildGlobal accepted id 4294967301")
	}
	if _, err := BuildDynamic(pts, Options{}); err == nil {
		t.Error("BuildDynamic accepted id 4294967301")
	}
	if _, err := BuildQuadrantHD(pts, 2, Options{}); err == nil {
		t.Error("BuildQuadrantHD accepted id 4294967301")
	}
	set, err := BuildSet(pts[:1], UpdateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set.Apply(InsertOp(wide), UpdateOptions{}); !errors.Is(err, ErrRejected) {
		t.Fatalf("insert of id 4294967301: %v, want ErrRejected", err)
	}
	if _, _, err := set.ApplyBatch([]Op{InsertOp(wide)}, UpdateOptions{}); err != nil {
		t.Fatalf("a batch holding the rejected insert failed: %v", err)
	}
}
