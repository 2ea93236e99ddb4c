package store

import (
	"bytes"
	"io"
	"path/filepath"
	"testing"

	"repro/internal/geom"
	"repro/internal/quaddiag"
)

// churnQuadrant applies a few inserts and deletes so the diagram carries
// copy-on-write arena garbage, returning the maintained diagram.
func churnQuadrant(t testing.TB, d *quaddiag.Diagram) *quaddiag.Diagram {
	t.Helper()
	var err error
	for k := 0; k < 6; k++ {
		d, err = d.WithInsert(geom.Pt2(5000+k, float64(7*k%23)+0.5, float64(11*k%19)+0.25))
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []int{5000, 5002, 3, 7} {
		d, err = d.WithDelete(id)
		if err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestPersistMaintainedByteIdentical pins the satellite-1 contract: writing
// a maintained (incrementally updated) snapshot must produce the exact same
// bytes as writing a from-scratch rebuild of the same point set. The writer
// reuses the live frozen table and canonicalizes it with a first-use-order
// copy — no re-freeze, no re-interning — so the two paths converge
// byte-for-byte.
func TestPersistMaintainedByteIdentical(t *testing.T) {
	dm := churnQuadrant(t, buildDiagram(t, 40, 51))
	if live, total := dm.ArenaLive(); live >= total {
		t.Fatalf("test premise broken: maintained diagram has no garbage (live %d, total %d)", live, total)
	}
	rebuilt, err := quaddiag.BuildScanning(dm.Points, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := WriteEpoch(&got, dm, 0); err != nil {
		t.Fatal(err)
	}
	if err := WriteEpoch(&want, rebuilt, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("maintained snapshot persisted to %d bytes differing from the %d-byte rebuild persist",
			got.Len(), want.Len())
	}
}

// TestPersistHeavilyChurnedSnapshotOpens is the regression for the original
// defect's visible failure: under enough churn the live table accumulates
// more (mostly garbage) results than the diagram has cells, and persisting
// that arena verbatim produced a file the reader rejects as corrupt. The
// writer now compacts, so persist-after-heavy-update round-trips.
func TestPersistHeavilyChurnedSnapshotOpens(t *testing.T) {
	d := buildDiagram(t, 25, 57)
	var err error
	for k := 0; k < 40; k++ {
		p := geom.Pt2(9000+k, float64(3*k%11)+0.1, float64(5*k%13)+0.2)
		d, err = d.WithInsert(p)
		if err != nil {
			t.Fatal(err)
		}
		d, err = d.WithDelete(9000 + k)
		if err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "churned.sky")
	if err := CreateFile(path, d); err != nil {
		t.Fatal(err)
	}
	s, err := OpenMmap(path)
	if err != nil {
		t.Fatalf("persisted maintained snapshot failed to open: %v", err)
	}
	defer s.Close()
	for i := 0; i < d.Grid.Cols(); i++ {
		for j := 0; j < d.Grid.Rows(); j++ {
			got, err := s.Cell(i, j)
			if err != nil {
				t.Fatal(err)
			}
			if !equalI32(got, d.Cell(i, j)) {
				t.Fatalf("cell (%d,%d): stored %v, live %v", i, j, got, d.Cell(i, j))
			}
		}
	}
}

// TestCompactArenaAnswersUnchanged: compaction is answer-preserving and
// actually reclaims the garbage.
func TestCompactArenaAnswersUnchanged(t *testing.T) {
	dm := churnQuadrant(t, buildDiagram(t, 30, 59))
	cd := dm.CompactArena()
	if live, total := cd.ArenaLive(); live != total {
		t.Fatalf("compacted diagram still has garbage: live %d, total %d", live, total)
	}
	if !cd.Equal(dm) {
		t.Fatal("compacted diagram answers differ from the original")
	}
}

// TestEncodeAllocations pins laying a file out and streaming it to the
// Encoder itself plus, for a maintained diagram, one first-use remap array
// — at most two allocations whatever the cell count, since the stream's
// chunk comes from a pool — where the stream writer the encoder replaced
// allocated one slice per label page and copied the table. Under the race
// detector sync.Pool drops a quarter of its Puts, so about one stream in
// four refills the chunk (two allocations); over 100 runs that averages to
// half an allocation per run, below the whole one AllocsPerRun reports.
func TestEncodeAllocations(t *testing.T) {
	for _, n := range []int{20, 60, 150} {
		fresh := buildDiagram(t, n, int64(n))
		maintained := churnQuadrant(t, fresh)
		if e, err := NewEncoder(maintained, 1); err != nil || e.remap == nil {
			t.Fatalf("n=%d: test premise broken: maintained diagram is canonical", n)
		}
		for _, c := range []struct {
			name string
			d    *quaddiag.Diagram
			max  float64
		}{{"fresh", fresh, 1}, {"maintained", maintained, 2}} {
			var size int64
			allocs := testing.AllocsPerRun(100, func() {
				e, err := NewEncoder(c.d, 1)
				if err != nil {
					t.Fatal(err)
				}
				if size, err = e.WriteTo(io.Discard); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > c.max {
				t.Errorf("n=%d %s (%d-byte file, %d cells): %.0f allocations, want <= %.0f",
					n, c.name, size, c.d.Grid.NumCells(), allocs, c.max)
			}
		}
	}
}

func equalI32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
