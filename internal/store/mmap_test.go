package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dyndiag"
	"repro/internal/geom"
)

// TestMmapServesIdenticalAnswers: a mapped store must answer exactly like
// the ReadAt store over every cell, Query, QueryXY, and QueryBatch — and on
// this platform it must actually be mapped, not silently falling back.
func TestMmapServesIdenticalAnswers(t *testing.T) {
	d := buildDiagram(t, 60, 61)
	path := filepath.Join(t.TempDir(), "diag.sky")
	if err := CreateFile(path, d); err != nil {
		t.Fatal(err)
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
	if !mm.Mapped() {
		t.Fatal("OpenMmap fell back to ReadAt on a platform with mmap")
	}
	if mm.Kind() != "quadrant" {
		t.Fatalf("Kind = %q, want quadrant", mm.Kind())
	}
	for i := 0; i < d.Grid.Cols(); i++ {
		for j := 0; j < d.Grid.Rows(); j++ {
			a, err := rd.Cell(i, j)
			if err != nil {
				t.Fatal(err)
			}
			b, err := mm.Cell(i, j)
			if err != nil {
				t.Fatal(err)
			}
			if !equalI32(a, b) {
				t.Fatalf("cell (%d,%d): ReadAt %v, mmap %v", i, j, a, b)
			}
		}
	}
	qs := make([]geom.Point, 0, 200)
	for k := 0; k < 200; k++ {
		qs = append(qs, geom.Pt2(-1, float64(k%101), float64((k*37)%103)))
	}
	ra, err := rd.QueryBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := mm.QueryBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	for k := range qs {
		if !equalI32(ra[k], rb[k]) {
			t.Fatalf("batch query %d: ReadAt %v, mmap %v", k, ra[k], rb[k])
		}
		if got := mm.QueryXY(qs[k].X(), qs[k].Y()); !equalI32(got, ra[k]) {
			t.Fatalf("QueryXY %d: mmap %v, want %v", k, got, ra[k])
		}
	}
}

// TestMmapQueryXYZeroAllocs pins the mapped hot path: point location via the
// rank tables plus a label load from the map allocates nothing.
func TestMmapQueryXYZeroAllocs(t *testing.T) {
	d := buildDiagram(t, 80, 67)
	path := filepath.Join(t.TempDir(), "diag.sky")
	if err := CreateFile(path, d); err != nil {
		t.Fatal(err)
	}
	mm, err := OpenMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	if !mm.Mapped() {
		t.Skip("mmap unavailable")
	}
	allocs := testing.AllocsPerRun(300, func() {
		mm.QueryXY(13.7, 91.2)
		mm.QueryXY(-5, 4)
		mm.QueryXY(1e9, 1e9)
	})
	if allocs != 0 {
		t.Fatalf("mapped QueryXY: %v allocs/op, want 0", allocs)
	}
}

// TestMmapDynamicKind: the dynamic-kind store serves identically mapped.
func TestMmapDynamicKind(t *testing.T) {
	pts := buildDiagram(t, 10, 71).Points
	d, err := dyndiag.BuildScanning(pts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dyn.sky")
	if err := CreateFileDynamic(path, d); err != nil {
		t.Fatal(err)
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
	if mm.Kind() != "dynamic" {
		t.Fatalf("Kind = %q, want dynamic", mm.Kind())
	}
	for k := 0; k < 300; k++ {
		x, y := float64(k%113)*0.9, float64((k*41)%127)*0.8
		a, err := rd.Query(geom.Pt2(-1, x, y))
		if err != nil {
			t.Fatal(err)
		}
		if b := mm.QueryXY(x, y); !equalI32(a, b) {
			t.Fatalf("dynamic query (%v,%v): ReadAt %v, mmap %v", x, y, a, b)
		}
	}
}

// TestMmapEquivalenceOverCorruptionMatrix runs OpenMmap against the same
// torn-write and bit-rot matrix the ReadAt path is hardened against: for
// every truncation point and every probed single-byte flip, OpenMmap must
// reach the same accept/reject verdict as Open — mapped serving must not
// widen the corruption acceptance surface by a single byte.
func TestMmapEquivalenceOverCorruptionMatrix(t *testing.T) {
	gen := buildDiagram(t, 15, 73)
	path := filepath.Join(t.TempDir(), "diag.sky")
	if err := CreateFile(path, gen); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	check := func(name string, b []byte) {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		so, oerr := Open(p)
		sm, merr := OpenMmap(p)
		if (oerr == nil) != (merr == nil) {
			t.Fatalf("%s: Open err %v, OpenMmap err %v — verdicts diverge", name, oerr, merr)
		}
		if so != nil {
			so.Close()
		}
		if sm != nil {
			sm.Close()
		}
	}

	// Torn writes: every ~97th truncation point.
	stride := len(raw)/97 + 1
	for cut := 0; cut < len(raw); cut += stride {
		check(fmt.Sprintf("cut%d.sky", cut), raw[:cut])
	}
	// Bit rot: every ~101st offset plus the structural landmarks.
	stride = len(raw)/101 + 1
	offsets := []int{0, 8, 11, headerSize, len(raw) - trailerSize, len(raw) - 1}
	for off := stride; off < len(raw); off += stride {
		offsets = append(offsets, off)
	}
	for _, off := range offsets {
		rotted := append([]byte(nil), raw...)
		rotted[off] ^= 0x01
		check(fmt.Sprintf("rot%d.sky", off), rotted)
	}
	// The pristine file must open in both modes.
	check("pristine.sky", raw)
}

// TestOpenMmapErrorPathsDoNotLeakFDs extends the fd-leak audit to OpenMmap:
// every rejection (corrupt header, bad trailer, truncation) must unmap and
// close on the way out.
func TestOpenMmapErrorPathsDoNotLeakFDs(t *testing.T) {
	d := buildDiagram(t, 20, 79)
	dir := t.TempDir()
	good := filepath.Join(dir, "good.sky")
	if err := CreateFile(good, d); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.sky")
	rotted := append([]byte(nil), raw...)
	rotted[len(rotted)/2] ^= 0x01
	if err := os.WriteFile(bad, rotted, 0o644); err != nil {
		t.Fatal(err)
	}
	short := filepath.Join(dir, "short.sky")
	if err := os.WriteFile(short, raw[:headerSize/2], 0o644); err != nil {
		t.Fatal(err)
	}

	before := openFDs(t)
	for i := 0; i < 200; i++ {
		if _, err := OpenMmap(bad); err == nil {
			t.Fatal("corrupt file mapped cleanly")
		}
		if _, err := OpenMmap(short); err == nil {
			t.Fatal("truncated file mapped cleanly")
		}
		if _, err := OpenMmap(filepath.Join(dir, "missing.sky")); err == nil {
			t.Fatal("missing file mapped cleanly")
		}
	}
	// Successful opens must also release everything on Close.
	for i := 0; i < 50; i++ {
		s, err := OpenMmap(good)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if after := openFDs(t); after > before+2 {
		t.Fatalf("fd leak: %d open before, %d after", before, after)
	}
}

// TestWithBytesLendsMappingUntilClose: a mapped store lends its mapping
// itself — no copy — and Close waits for every borrower and every Acquire
// hold to end before unmapping; once Close has begun, Acquire fails, so a
// reader that has not yet started cannot reach a mapping about to go. A
// ReadAt store lends a copy.
func TestWithBytesLendsMappingUntilClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "diag.sky")
	if err := CreateFileEpoch(path, buildDiagram(t, 40, 65), 9); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if err := rd.WithBytes(func(data []byte) error {
		if !bytes.Equal(data, want) {
			t.Error("ReadAt store lent bytes that differ from its file")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	mm, err := OpenMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	if !mm.Acquire() {
		t.Fatal("Acquire failed on an open store")
	}
	borrowed, release := make(chan struct{}), make(chan struct{})
	lent := make(chan error, 1)
	go func() {
		lent <- mm.WithBytes(func(data []byte) error {
			if &data[0] != &mm.mapped[0] {
				t.Error("mapped store lent a copy, not its mapping")
			}
			close(borrowed)
			<-release
			// Close is waiting on this reader: the mapping is still there.
			if !bytes.Equal(data, want) {
				t.Error("mapping changed under a borrower")
			}
			return nil
		})
	}()
	<-borrowed
	closed := make(chan error, 1)
	go func() { closed <- mm.Close() }()
	waitClosing := time.Now().Add(5 * time.Second)
	for !mm.closing.Load() && time.Now().Before(waitClosing) {
		time.Sleep(time.Millisecond)
	}
	if mm.Acquire() {
		t.Fatal("Acquire succeeded after Close began")
	}
	close(release)
	if err := <-lent; err != nil {
		t.Fatal(err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while an Acquire hold was still open")
	case <-time.After(20 * time.Millisecond):
	}
	mm.Release()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
}
