package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/geom"
)

// TestMmapServesIdenticalAnswers: a mapped store must answer exactly like
// the same file's bytes parsed in memory — the parse OpenMmap falls back to
// — over every cell and QueryXY, and on this platform it must actually be
// mapped, not silently falling back.
func TestMmapServesIdenticalAnswers(t *testing.T) {
	d := buildDiagram(t, 60, 61)
	path := filepath.Join(t.TempDir(), "diag.sky")
	if err := CreateFile(path, d); err != nil {
		t.Fatal(err)
	}
	rd := readStore(t, path)
	mm, err := OpenMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	if !mm.Mapped() {
		t.Fatal("OpenMmap fell back to reading the file on a platform with mmap")
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
				t.Fatalf("cell (%d,%d): in memory %v, mmap %v", i, j, a, b)
			}
		}
	}
	for k, q := range probeQueries() {
		want := rd.QueryXY(q.X(), q.Y())
		if !equalI32(want, d.Query(q)) {
			t.Fatalf("query %d: in memory %v, diagram %v", k, want, d.Query(q))
		}
		if got := mm.QueryXY(q.X(), q.Y()); !equalI32(got, want) {
			t.Fatalf("QueryXY %d: mmap %v, want %v", k, got, want)
		}
	}
}

// TestMmapQueryXYZeroAllocs pins the mapped hot path: point location via the
// rank tables, a label load from the map and the answer's ids decoded from
// the mapped arena into a buffer with the capacity allocate nothing.
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
	// AppendQueryXY, as a server answers: into a buffer with the capacity.
	dst := make([]int32, 0, len(d.Points))
	allocs := testing.AllocsPerRun(300, func() {
		dst = mm.AppendQueryXY(dst[:0], 13.7, 91.2)
		dst = mm.AppendQueryXY(dst[:0], -5, 4)
		dst = mm.AppendQueryXY(dst[:0], 1e9, 1e9)
	})
	if allocs != 0 {
		t.Fatalf("mapped AppendQueryXY: %v allocs/op, want 0", allocs)
	}
	if got, want := mm.AppendQueryXY(dst[:0], 13.7, 91.2), mm.QueryXY(13.7, 91.2); !equalI32(got, want) {
		t.Fatalf("AppendQueryXY = %v, QueryXY = %v", got, want)
	}
}

// TestMmapEquivalenceOverCorruptionMatrix runs OpenMmap against the
// torn-write and bit-rot matrix: for every truncation point and every probed
// single-byte flip, OpenMmap must reach the same accept/reject verdict as
// New on the same bytes in memory — mapped serving must not widen the
// corruption acceptance surface by a single byte.
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
		_, nerr := New(b)
		sm, merr := OpenMmap(p)
		if (nerr == nil) != (merr == nil) {
			t.Fatalf("%s: New err %v, OpenMmap err %v — verdicts diverge", name, nerr, merr)
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
// itself — no copy — and Close does not wait for borrowers or Acquire
// holds: it returns at once, the mapping stays readable and mapped while
// any hold is open, and the Release that ends the last hold unmaps it. Once
// Close has begun, Acquire fails, so a reader that has not yet started
// cannot reach a mapping about to go. A store over bytes in memory lends
// those bytes.
func TestWithBytesLendsMappingUntilClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "diag.sky")
	if err := CreateFileEpoch(path, buildDiagram(t, 40, 65), 9); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := New(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.WithBytes(func(data []byte) error {
		if &data[0] != &want[0] {
			t.Error("in-memory store lent a copy, not its bytes")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	mm, err := OpenMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	if !mm.Mapped() {
		t.Skip("mmap unavailable")
	}
	if !mm.Acquire() {
		t.Fatal("Acquire failed on an open store")
	}
	borrowed, release := make(chan struct{}), make(chan struct{})
	lent := make(chan error, 1)
	go func() {
		lent <- mm.WithBytes(func(data []byte) error {
			if &data[0] != &mm.data[0] {
				t.Error("mapped store lent a copy, not its mapping")
			}
			close(borrowed)
			<-release
			// Close has returned, but this hold keeps the mapping.
			if !bytes.Equal(data, want) {
				t.Error("mapping changed under a borrower")
			}
			return nil
		})
	}()
	<-borrowed
	if err := mm.Close(); err != nil {
		t.Fatal(err)
	}
	if mm.Acquire() {
		t.Fatal("Acquire succeeded after Close began")
	}
	if mm.unmapped.Load() {
		t.Fatal("Close unmapped while a borrower and an Acquire hold were open")
	}
	close(release)
	if err := <-lent; err != nil {
		t.Fatal(err)
	}
	if mm.unmapped.Load() {
		t.Fatal("the borrower unmapped while an Acquire hold was still open")
	}
	if !bytes.Equal(mm.data, want) {
		t.Fatal("mapping unreadable while an Acquire hold is open")
	}
	mm.Release()
	if !mm.unmapped.Load() {
		t.Fatal("the final Release did not unmap the closed store")
	}
}

// TestBorrowerReadsAfterCloseReturns: a relay streaming a mapped snapshot to
// a slow peer may still be reading the bytes WithBytes lent it long after
// the replica swapped a newer store in and closed this one. Close must
// return without waiting for it, and the borrower must read intact bytes
// after Close has returned.
func TestBorrowerReadsAfterCloseReturns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "diag.sky")
	if err := CreateFileEpoch(path, buildDiagram(t, 40, 66), 4); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mm, err := OpenMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	borrowed, closed := make(chan struct{}), make(chan struct{})
	lent := make(chan error, 1)
	go func() {
		lent <- mm.WithBytes(func(data []byte) error {
			close(borrowed)
			<-closed
			if !bytes.Equal(data, want) {
				return fmt.Errorf("borrowed bytes changed after Close returned")
			}
			return nil
		})
	}()
	<-borrowed
	if err := mm.Close(); err != nil {
		t.Fatal(err)
	}
	close(closed)
	if err := <-lent; err != nil {
		t.Fatal(err)
	}
}

// TestCloseRacingReleasesUnmaps: when Close and the release of the last
// hold race, one of them must see the other and unmap — a lost handoff
// would leak the mapping — and readers holding the store keep reading
// intact answers until they release. Half the readers answer with QueryXY,
// half with AppendQueryXY into a reused buffer, as a server does; both copy
// the answer out of the mapping.
func TestCloseRacingReleasesUnmaps(t *testing.T) {
	d := buildDiagram(t, 30, 68)
	path := filepath.Join(t.TempDir(), "diag.sky")
	if err := CreateFile(path, d); err != nil {
		t.Fatal(err)
	}
	want := d.Query(geom.Pt2(-1, 40, 60))
	for round := 0; round < 30; round++ {
		mm, err := OpenMmap(path)
		if err != nil {
			t.Fatal(err)
		}
		if !mm.Mapped() {
			t.Skip("mmap unavailable")
		}
		// Close once every reader is looping, so holds are open when it
		// looks and the last one usually ends after it.
		var wg, looping sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			looping.Add(1)
			go func() {
				defer wg.Done()
				var buf []int32
				for k := 0; mm.Acquire(); k++ {
					var got []int32
					if g%2 == 0 {
						got = mm.QueryXY(40, 60)
					} else {
						buf = mm.AppendQueryXY(buf[:0], 40, 60)
						got = buf
					}
					mm.Release()
					if k == 0 {
						looping.Done()
					}
					if !equalI32(got, want) {
						t.Errorf("round %d: held store answered %v, want %v", round, got, want)
						return
					}
				}
			}()
		}
		looping.Wait()
		if err := mm.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if !mm.unmapped.Load() {
			t.Fatalf("round %d: closed store still mapped after every hold ended", round)
		}
	}
}
