package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dyndiag"
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
	qs := probeQueries()
	ra, err := a.QueryBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.QueryBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	for k := range qs {
		if !equalI32(ra[k], rb[k]) {
			t.Fatalf("query %d (%v): %v vs %v", k, qs[k].Coords, ra[k], rb[k])
		}
	}
}

// TestRecoverThenMmapSalvagedTemp is the Recover/OpenMmap interaction a
// crashed replica-style deployment hits: the only write ever attempted died
// between the temp fsync and the rename, Recover salvages the complete temp
// into place, and the serving path then memory-maps the salvaged file. The
// mapped store must carry the generation's epoch and answer exactly like the
// ReadAt store.
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
		t.Fatal("OpenMmap fell back to ReadAt on a platform with mmap")
	}
	if got := mm.Epoch(); got != 7 {
		t.Fatalf("mapped epoch = %d, want 7", got)
	}
	rd, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	mustAnswerAlike(t, rd, mm)
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
	rd, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	mustAnswerAlike(t, rd, mm)
}

// TestEpochRoundTripAndByteFidelity pins the replication protocol's carrier:
// the epoch stamped at write is readable through every open path (ReadAt,
// mmap, in-memory), WriteEpoch and CreateFileEpoch emit identical bytes, and
// WithBytes lends a byte-identical snapshot — what lets a replica relay a
// file it never built.
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

	rd, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	mm, err := OpenMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	mem, err := New(bytes.NewReader(disk), DefaultCacheSize)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Store{"Open": rd, "OpenMmap": mm, "New": mem} {
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

	// Dynamic kind carries the epoch the same way.
	dd, err := dyndiag.BuildScanning(d.Points)
	if err != nil {
		t.Fatal(err)
	}
	var dbuf bytes.Buffer
	if err := WriteDynamicEpoch(&dbuf, dd, 9); err != nil {
		t.Fatal(err)
	}
	ds, err := New(bytes.NewReader(dbuf.Bytes()), DefaultCacheSize)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Kind() != "dynamic" || ds.Epoch() != 9 {
		t.Fatalf("dynamic roundtrip: kind %q epoch %d, want dynamic 9", ds.Kind(), ds.Epoch())
	}
}

// TestPreEpochFilesReadAsEpochZero: files written before the epoch field
// existed (and current files written without one) must report epoch 0 — the
// "no generation" value replicas treat as always-stale.
func TestPreEpochFilesReadAsEpochZero(t *testing.T) {
	d := buildDiagram(t, 20, 85)

	// Current format, epochless Write.
	var cur bytes.Buffer
	if err := Write(&cur, d); err != nil {
		t.Fatal(err)
	}
	s, err := New(bytes.NewReader(cur.Bytes()), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Epoch(); got != 0 {
		t.Fatalf("epochless current-format file: epoch = %d, want 0", got)
	}

	// Version 2: cell payloads plus trailer, no epoch field at all.
	pts, cells := d.Export()
	var v2 bytes.Buffer
	if err := writeLegacyCells(&v2, pts, cells, d.Grid.Cols(), d.Grid.Rows(), kindQuadrant); err != nil {
		t.Fatal(err)
	}
	s2, err := New(bytes.NewReader(v2.Bytes()), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Epoch(); got != 0 {
		t.Fatalf("version-2 file: epoch = %d, want 0", got)
	}

	// Version 1: no trailer either.
	v1 := append([]byte(nil), v2.Bytes()...)
	v1 = v1[:len(v1)-trailerSize]
	binary.BigEndian.PutUint32(v1[8:], 1)
	s1, err := New(bytes.NewReader(v1), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := s1.Epoch(); got != 0 {
		t.Fatalf("version-1 file: epoch = %d, want 0", got)
	}
}
