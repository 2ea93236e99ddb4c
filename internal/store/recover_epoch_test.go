package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/geom"
)

// probeQueries is a deterministic spread of query points for equivalence
// checks between two stores over the same file.
func probeQueries() []geom.Point {
	qs := make([]geom.Point, 0, 200)
	for k := 0; k < 200; k++ {
		qs = append(qs, geom.Pt2(-1, float64(k%101), float64((k*37)%103)))
	}
	return qs
}

// mustAnswerAlike fails unless a and b agree on every probe query.
func mustAnswerAlike(t *testing.T, a, b *Store) {
	t.Helper()
	for k, q := range probeQueries() {
		if ra, rb := a.QueryXY(q.X(), q.Y()), b.QueryXY(q.X(), q.Y()); !equalI32(ra, rb) {
			t.Fatalf("query %d (%v): %v vs %v", k, q.Coords, ra, rb)
		}
	}
}

// readStore parses the file at path from its bytes read into memory — the
// path OpenMmap falls back to where it cannot map.
func readStore(t *testing.T, path string) *Store {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(data)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRecoverThenMmapSalvagedTemp is the Recover/OpenMmap interaction a
// crashed replica-style deployment hits: the only write ever attempted died
// between the temp fsync and the rename, Recover salvages the complete temp
// into place, and the serving path then memory-maps the salvaged file. The
// mapped store must carry the generation's epoch and answer exactly like the
// file's bytes parsed in memory.
func TestRecoverThenMmapSalvagedTemp(t *testing.T) {
	defer faultinject.Deactivate()
	gen := buildDiagram(t, 40, 81)
	path := filepath.Join(t.TempDir(), "diag.sky")
	if err := faultinject.Activate("store.create.rename=error#1"); err != nil {
		t.Fatal(err)
	}
	if err := CreateFileEpoch(path, gen, 7); err == nil {
		t.Fatal("faulted CreateFileEpoch succeeded")
	}
	faultinject.Deactivate()

	s, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if !samePoints(s, gen) {
		t.Fatal("Recover did not salvage the completed temp generation")
	}
	if got := s.Epoch(); got != 7 {
		t.Fatalf("salvaged epoch = %d, want 7", got)
	}
	s.Close()

	mm, err := OpenMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	if !mm.Mapped() {
		t.Fatal("OpenMmap fell back to reading the file on a platform with mmap")
	}
	if got := mm.Epoch(); got != 7 {
		t.Fatalf("mapped epoch = %d, want 7", got)
	}
	mustAnswerAlike(t, readStore(t, path), mm)
}

// TestRecoverTornTempThenMmapOldGeneration: a rewrite tears mid-page, so the
// published old generation must win. Recover discards the torn temp, and
// OpenMmap of the surviving file serves the old generation at its old epoch
// — never a blend of the two.
func TestRecoverTornTempThenMmapOldGeneration(t *testing.T) {
	defer faultinject.Deactivate()
	oldGen := buildDiagram(t, 30, 82)
	newGen := buildDiagram(t, 45, 83)
	path := filepath.Join(t.TempDir(), "diag.sky")
	if err := CreateFileEpoch(path, oldGen, 3); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Activate("store.write.page=error#1"); err != nil {
		t.Fatal(err)
	}
	if err := CreateFileEpoch(path, newGen, 4); err == nil {
		t.Fatal("faulted rewrite succeeded")
	}
	faultinject.Deactivate()

	s, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if !samePoints(s, oldGen) {
		t.Fatal("Recover served something other than the intact old generation")
	}
	if got := s.Epoch(); got != 3 {
		t.Fatalf("recovered epoch = %d, want 3", got)
	}
	s.Close()
	if _, err := os.Stat(path + TempSuffix); !os.IsNotExist(err) {
		t.Fatal("torn temp still present after Recover")
	}

	mm, err := OpenMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	if !samePoints(mm, oldGen) || mm.Epoch() != 3 {
		t.Fatalf("mapped store serves epoch %d with %d points, want old generation at 3",
			mm.Epoch(), len(mm.Points()))
	}
	mustAnswerAlike(t, readStore(t, path), mm)
}

// TestEpochRoundTripAndByteFidelity pins the replication protocol's carrier:
// the epoch stamped at write is readable through both ways to open a file
// (mapped, and parsed from bytes in memory), WriteEpoch and CreateFileEpoch
// emit identical bytes, and WithBytes lends a byte-identical snapshot — what
// lets a replica relay a file it never built.
func TestEpochRoundTripAndByteFidelity(t *testing.T) {
	d := buildDiagram(t, 25, 84)
	var buf bytes.Buffer
	if err := WriteEpoch(&buf, d, 42); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "diag.sky")
	if err := CreateFileEpoch(path, d, 42); err != nil {
		t.Fatal(err)
	}
	disk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(disk, buf.Bytes()) {
		t.Fatal("CreateFileEpoch and WriteEpoch disagree on bytes")
	}

	mm, err := OpenMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	mem, err := New(disk)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Store{"OpenMmap": mm, "New": mem} {
		if got := s.Epoch(); got != 42 {
			t.Fatalf("%s: epoch = %d, want 42", name, got)
		}
		if err := s.WithBytes(func(data []byte) error {
			if !bytes.Equal(data, disk) {
				t.Errorf("%s: WithBytes lent %d bytes, not the original snapshot", name, len(data))
			}
			return nil
		}); err != nil {
			t.Fatalf("%s: WithBytes: %v", name, err)
		}
	}
}

// TestPreEpochFilesReadAsEpochZero: a file written without an epoch must
// report epoch 0 — the "no generation" value replicas treat as always-stale —
// whether it is mapped or parsed from bytes in memory.
func TestPreEpochFilesReadAsEpochZero(t *testing.T) {
	d := buildDiagram(t, 20, 85)
	var plain bytes.Buffer
	if err := WriteEpoch(&plain, d, 0); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "plain.sky")
	if err := os.WriteFile(path, plain.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	mm, err := OpenMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	mem, err := New(plain.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Store{"OpenMmap": mm, "New": mem} {
		if got := s.Epoch(); got != 0 {
			t.Fatalf("%s: epochless file: epoch = %d, want 0", name, got)
		}
	}
}
