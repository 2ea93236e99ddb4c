package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/quaddiag"
)

// putTrailer re-seals a doctored file: it ends buf with the trailer magic
// and the CRC32 of every byte before it, as the encoder does.
func putTrailer(buf []byte) {
	n := len(buf) - trailerSize
	copy(buf[n:], trailerMagic)
	binary.BigEndian.PutUint32(buf[n+8:], crc32.ChecksumIEEE(buf[:n]))
}

func buildDiagram(t testing.TB, n int, seed int64) *quaddiag.Diagram {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt2(i, rng.Float64()*100, rng.Float64()*100)
	}
	pts = dataset.GeneralPosition(pts)
	d, err := quaddiag.BuildScanning(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// fileBytes returns d's file stamped with epoch, as WriteEpoch streams it.
func fileBytes(tb testing.TB, d *quaddiag.Diagram, epoch uint64) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteEpoch(&buf, d, epoch); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTripQueries(t *testing.T) {
	d := buildDiagram(t, 60, 1)
	var buf bytes.Buffer
	if err := WriteEpoch(&buf, d, 0); err != nil {
		t.Fatal(err)
	}
	s, err := New(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if s.NumCells() != d.Grid.NumCells() {
		t.Fatalf("NumCells = %d, want %d", s.NumCells(), d.Grid.NumCells())
	}
	if len(s.Points()) != len(d.Points) {
		t.Fatal("points lost")
	}
	// Every cell matches.
	for i := 0; i < d.Grid.Cols(); i++ {
		for j := 0; j < d.Grid.Rows(); j++ {
			got, err := s.Cell(i, j)
			if err != nil {
				t.Fatal(err)
			}
			want := d.Cell(i, j)
			if len(got) != len(want) {
				t.Fatalf("cell (%d,%d): %v vs %v", i, j, got, want)
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("cell (%d,%d): %v vs %v", i, j, got, want)
				}
			}
		}
	}
	// Random point queries match the in-memory diagram.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		q := geom.Pt2(-1, rng.Float64()*140-20, rng.Float64()*140-20)
		got := s.QueryXY(q.X(), q.Y())
		want := d.Query(q)
		if len(got) != len(want) {
			t.Fatalf("q=%v: %v vs %v", q, got, want)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	d := buildDiagram(t, 25, 3)
	path := filepath.Join(t.TempDir(), "diag.sky")
	if err := CreateFile(path, d); err != nil {
		t.Fatal(err)
	}
	s, err := OpenMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := s.QueryXY(10.5, 10.5)
	want := d.Query(geom.Pt2(-1, 10.5, 10.5))
	if len(got) != len(want) {
		t.Fatalf("file query %v, want %v", got, want)
	}
	if _, err := OpenMmap(filepath.Join(t.TempDir(), "missing.sky")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: want os.ErrNotExist, got %v", err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	d := buildDiagram(t, 40, 4)
	var buf bytes.Buffer
	if err := WriteEpoch(&buf, d, 0); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Bad magic.
	bad := append([]byte(nil), raw...)
	bad[0] ^= 0xFF
	if _, err := New(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: want ErrCorrupt, got %v", err)
	}

	// Flip one byte inside the last label page: the full-file trailer
	// checksum catches it at open.
	be := binary.BigEndian
	numPages := int(be.Uint64(raw[36:]))
	arenaOff := int(be.Uint64(raw[52:])) + numPages*labelPageSize
	bad = append([]byte(nil), raw...)
	bad[arenaOff-labelPageSize+1] ^= 0x01
	if _, err := New(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped byte: want ErrCorrupt at open, got %v", err)
	}

	// Flip one byte in the arena section and reseal the trailer: the
	// arena's own checksum still catches it at open.
	bad = append([]byte(nil), raw...)
	bad[arenaOff+9] ^= 0x01 // first offsets word
	putTrailer(bad)
	if _, err := New(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted arena: want ErrCorrupt at open, got %v", err)
	}

	// Truncated file: the trailer is gone, so it fails at open.
	if _, err := New(raw[:40]); err == nil {
		t.Fatal("truncated header must fail")
	}
	if _, err := New(raw[:len(raw)-8]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated file: want ErrCorrupt, got %v", err)
	}
}

func TestCellRangeErrors(t *testing.T) {
	d := buildDiagram(t, 10, 5)
	var buf bytes.Buffer
	if err := WriteEpoch(&buf, d, 0); err != nil {
		t.Fatal(err)
	}
	s, err := New(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cell(-1, 0); err == nil {
		t.Fatal("negative index must fail")
	}
	if _, err := s.Cell(s.cols, 0); err == nil {
		t.Fatal("overflow index must fail")
	}
}

func TestConcurrentReaders(t *testing.T) {
	d := buildDiagram(t, 50, 6)
	var buf bytes.Buffer
	if err := WriteEpoch(&buf, d, 0); err != nil {
		t.Fatal(err)
	}
	s, err := New(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < 200; k++ {
				q := geom.Pt2(-1, rng.Float64()*120-10, rng.Float64()*120-10)
				got := s.QueryXY(q.X(), q.Y())
				if want := d.Query(q); !equalI32(got, want) {
					errs <- fmt.Errorf("q=%v: got %v want %v", q, got, want)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestEmptyDiagramRejected(t *testing.T) {
	// A diagram always has at least one cell, but Write guards anyway.
	var buf bytes.Buffer
	d, err := quaddiag.BuildBaseline(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteEpoch(&buf, d, 0); err != nil {
		t.Fatal(err) // one empty cell is fine
	}
	s, err := New(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	ids, err := s.Cell(0, 0)
	if err != nil || len(ids) != 0 {
		t.Fatalf("empty diagram cell = %v, %v", ids, err)
	}
}

func TestCorruptHeaderCountsRejectedBeforeAllocation(t *testing.T) {
	d := buildDiagram(t, 30, 9)
	var buf bytes.Buffer
	if err := WriteEpoch(&buf, d, 0); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	be := binary.BigEndian
	// Each mutation reseals the trailer, so the header checks themselves —
	// not the checksum that runs before them — must reject it.
	corrupt := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), raw...)
		mutate(b)
		putTrailer(b)
		return b
	}

	// A header claiming 2^40 points would allocate ~24 TB before PR 2; it
	// must instead be rejected against the file size before any buffer is
	// sized from it. (If this regresses, the test OOMs rather than failing
	// politely — that is the point.)
	huge := corrupt(func(b []byte) { be.PutUint64(b[16:], 1<<40) })
	if _, err := New(huge); err == nil {
		t.Fatal("huge numPoints must fail")
	}

	// Huge cols/rows imply a huge page index; reject before allocating it.
	hugeGrid := corrupt(func(b []byte) {
		be.PutUint32(b[24:], 1<<20)
		be.PutUint32(b[28:], 1<<20)
		be.PutUint64(b[36:], (1<<40+CellsPerPage-1)/CellsPerPage)
	})
	if _, err := New(hugeGrid); err == nil {
		t.Fatal("huge grid must fail")
	}

	// Page count inconsistent with cols*rows.
	badPages := corrupt(func(b []byte) { be.PutUint64(b[36:], 1<<30) })
	if _, err := New(badPages); err == nil {
		t.Fatal("inconsistent page count must fail")
	}

	// Index offset pointing past the end of the file.
	badIndex := corrupt(func(b []byte) { be.PutUint64(b[44:], uint64(len(raw))) })
	if _, err := New(badIndex); err == nil {
		t.Fatal("out-of-range index offset must fail")
	}

	// The unmodified file still opens.
	if _, err := New(raw); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentDistinctPages reads random cells on every page from many
// goroutines at once. Run under -race (as CI does) this asserts the
// lock-free read path, hold counting included, is clean.
func TestConcurrentDistinctPages(t *testing.T) {
	d := buildDiagram(t, 80, 10) // 81x81 grid: ~26 pages
	var buf bytes.Buffer
	if err := WriteEpoch(&buf, d, 0); err != nil {
		t.Fatal(err)
	}
	s, err := New(buf.Bytes()) // thrashing cache
	if err != nil {
		t.Fatal(err)
	}
	cells := s.NumCells()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < 300; k++ {
				cell := rng.Intn(cells)
				i, j := cell/s.rows, cell%s.rows
				got, err := s.Cell(i, j)
				if err != nil {
					errs <- err
					return
				}
				want := d.Cell(i, j)
				if len(got) != len(want) {
					errs <- fmt.Errorf("cell (%d,%d): got %v want %v", i, j, got, want)
					return
				}
				for x := range want {
					if got[x] != want[x] {
						errs <- fmt.Errorf("cell (%d,%d): got %v want %v", i, j, got, want)
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestUnsupportedVersionsRefused pins the one-format contract: a file that
// differs from a valid one only in its version field — the trailer CRC
// recomputed, so the checksum cannot be what rejects it — is refused by
// New, OpenMmap and NewManifest alike, with an unsupported-version error
// that does not claim the file is corrupt.
func TestUnsupportedVersionsRefused(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEpoch(&buf, buildDiagram(t, 20, 85), 5); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, v := range []uint32{1, 2, 3, 5} {
		b := append([]byte(nil), buf.Bytes()...)
		binary.BigEndian.PutUint32(b[8:], v)
		putTrailer(b)
		path := filepath.Join(dir, fmt.Sprintf("v%d.sky", v))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, nerr := New(b)
		_, merr := OpenMmap(path)
		_, ferr := NewManifest(b)
		for name, err := range map[string]error{"New": nerr, "OpenMmap": merr, "NewManifest": ferr} {
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unsupported version %d", v)) {
				t.Fatalf("version %d: %s: want an unsupported-version error, got %v", v, name, err)
			}
			if errors.Is(err, ErrCorrupt) {
				t.Fatalf("version %d: %s: unsupported version classified as corruption: %v", v, name, err)
			}
		}
	}
	if _, err := New(buf.Bytes()); err != nil {
		t.Fatalf("the version-%d original must open: %v", version, err)
	}
}
