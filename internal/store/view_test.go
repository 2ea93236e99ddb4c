package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/quaddiag"
)

// arenaSection returns where a valid file's arena section starts and where
// its CRC lies, from the header's page count and pages offset and the
// arena's own counts.
func arenaSection(data []byte) (off, crcOff int) {
	be := binary.BigEndian
	off = int(be.Uint64(data[52:])) + int(be.Uint64(data[36:]))*labelPageSize
	numResults, numIDs := int(be.Uint32(data[off:])), int(be.Uint32(data[off+4:]))
	return off, off + 8 + 4*(numResults+1) + 4*numIDs
}

// maintainedFile encodes a diagram of n points after a few maintained
// writes, so its table went through copy-on-write and first-use remapping.
func maintainedFile(tb testing.TB, n int, seed int64) []byte {
	tb.Helper()
	return fileBytes(tb, churnQuadrant(tb, buildDiagram(tb, n, seed)), 1)
}

// TestNewReadsArenaInPlace pins the open path to a view over the file: New
// checks the arena section where it lies and keeps it as a slice of the
// file, so opening a maintained n=150 file allocates only the points and
// the rank tables. Those are 16.4 kB, 12% of the file's 134 kB arena
// section, where an open that decodes the arena allocates it all again.
func TestNewReadsArenaInPlace(t *testing.T) {
	data := maintainedFile(t, 150, 150)
	off, crcOff := arenaSection(data)
	arena := uint64(crcOff + 4 - off)
	least := uint64(1<<63 - 1)
	var before, after runtime.MemStats
	for k := 0; k < 5; k++ {
		runtime.ReadMemStats(&before)
		s, err := New(data)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(s)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least*100 >= arena*15 {
		t.Fatalf("New allocated %d bytes for a %d-byte arena section (%d-byte file), want < 15%%",
			least, arena, len(data))
	}
}

// storeMutation applies one fuzz input to a valid file: keep truncates it
// to its first keep bytes (keep past the end keeps it whole), and each
// 5-byte record of flips XORs its last byte into the byte at its first
// four's big-endian offset, modulo the length. The arena section's CRC, if
// the cut left it in place, and the trailer CRC are then recomputed, so a
// mutation reaches New's structural checks instead of its checksums.
func storeMutation(raw []byte, keep uint32, flips []byte) []byte {
	b := append([]byte(nil), raw[:min(int(keep), len(raw))]...)
	for ; len(flips) >= 5 && len(b) > 0; flips = flips[5:] {
		b[int(binary.BigEndian.Uint32(flips)%uint32(len(b)))] ^= flips[4]
	}
	if off, crcOff := arenaSection(raw); crcOff+4 <= len(b)-trailerSize {
		binary.BigEndian.PutUint32(b[crcOff:], crc32.ChecksumIEEE(b[off:crcOff]))
	}
	if len(b) >= trailerSize {
		putTrailer(b)
	}
	return b
}

// flip is one storeMutation record: XOR mask into the byte at off.
func flip(off int, mask byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(off)), mask)
}

// FuzzStoreNew drives the one parser the read path trusts: every offset New
// accepts is later indexed in the file's bytes. Each input mutates a valid
// maintained file (storeMutation), and New must either refuse it — with
// ErrCorrupt or an unsupported-version error — or return a store whose
// every cell answers through Cell and AppendQueryXY without panicking. A
// Cell that refuses a label naming no result must say ErrCorrupt, and
// AppendQueryXY must answer what Cell answers for the cell it locates.
func FuzzStoreNew(f *testing.F) {
	raw := maintainedFile(f, 15, 73)
	whole := uint32(len(raw))
	// TestMmapEquivalenceOverCorruptionMatrix's torn writes and bit rot.
	stride := len(raw)/97 + 1
	for cut := 0; cut < len(raw); cut += stride {
		f.Add(uint32(cut), []byte(nil))
	}
	stride = len(raw)/101 + 1
	offsets := []int{0, 8, 11, headerSize, len(raw) - trailerSize, len(raw) - 1}
	for off := stride; off < len(raw); off += stride {
		offsets = append(offsets, off)
	}
	for _, off := range offsets {
		f.Add(whole, flip(off, 0x01))
	}
	f.Add(whole, []byte(nil))
	// Past the CRCs: a second offset above the third (decreasing offsets),
	// a last offset one off the id count, and a first label past the
	// results.
	arenaOff, crcOff := arenaSection(raw)
	numIDs := int(binary.BigEndian.Uint32(raw[arenaOff+4:]))
	f.Add(whole, flip(arenaOff+12, 0x80))
	f.Add(whole, flip(crcOff-4*numIDs-1, 0x01))
	f.Add(whole, flip(int(binary.BigEndian.Uint64(raw[52:])), 0x80))

	f.Fuzz(func(t *testing.T, keep uint32, flips []byte) {
		s, err := New(storeMutation(raw, keep, flips))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !strings.Contains(err.Error(), "unsupported version") {
				t.Fatalf("New refused with an error that is neither ErrCorrupt nor an unsupported version: %v", err)
			}
			return
		}
		cells := make([][]int32, s.NumCells())
		for i := 0; i < s.cols; i++ {
			for j := 0; j < s.rows; j++ {
				ids, err := s.Cell(i, j)
				if err != nil && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Cell(%d,%d): %v", i, j, err)
				}
				cells[i*s.rows+j] = ids
			}
		}
		// Probe every line, every gap between lines and both outsides, so
		// every column and row is located at least once.
		var xs, ys []float64
		for _, p := range s.Points() {
			xs, ys = append(xs, p.X()), append(ys, p.Y())
		}
		var dst []int32
		for _, x := range probes(xs) {
			for _, y := range probes(ys) {
				dst = s.AppendQueryXY(dst[:0], x, y)
				if want := cells[s.xrank.Rank(x)*s.rows+s.yrank.Rank(y)]; !slices.Equal(dst, want) {
					t.Fatalf("AppendQueryXY(%v, %v) = %v, Cell = %v", x, y, dst, want)
				}
			}
		}
	})
}

// probes returns each distinct value of vs, the midpoints between
// neighbours, and a value below and above them all.
func probes(vs []float64) []float64 {
	slices.Sort(vs)
	vs = slices.Compact(vs)
	if len(vs) == 0 {
		return []float64{0}
	}
	out := []float64{vs[0] - 1, vs[len(vs)-1] + 1}
	for k, v := range vs {
		out = append(out, v)
		if k > 0 {
			out = append(out, vs[k-1]+(v-vs[k-1])/2)
		}
	}
	return out
}

// BenchmarkQueryStore times the lookup every replica, relay and serve-from
// node answers with: AppendQueryXY on a mapped n=400 file into one reused
// buffer, over a probe walk covering many cells.
func BenchmarkQueryStore(b *testing.B) {
	path := filepath.Join(b.TempDir(), "diag.sky")
	if err := CreateFile(path, buildDiagram(b, 400, 23)); err != nil {
		b.Fatal(err)
	}
	s, err := OpenMmap(path)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if !s.Mapped() {
		b.Log("mmap unavailable: serving the file read into memory")
	}
	dst := make([]int32, 0, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	x, y := 0.0, 100.0
	for i := 0; i < b.N; i++ {
		dst = s.AppendQueryXY(dst[:0], x, y)
		x += 3.7
		if x > 100 {
			x -= 100
		}
		y -= 4.1
		if y < 0 {
			y += 100
		}
	}
}

// TestNewRefusesMeaninglessPoints: a CRC-clean file whose points do not
// mean a dataset is ErrCorrupt at open. Each case writes one bad point
// record into a maintained n=15 file and reseals the trailer: a non-finite
// coordinate (the grid would gain a NaN or infinite line the labels were
// not computed for), a duplicate id, and an id outside int32 (it would
// alias another id in the server's int32-keyed maps).
func TestNewRefusesMeaninglessPoints(t *testing.T) {
	raw := maintainedFile(t, 15, 73)
	const recordSize = 8 + 8*2
	rec := func(b []byte, i int) []byte { return b[headerSize+i*recordSize:] }
	be := binary.BigEndian
	cases := []struct {
		name, want string
		spoil      func(b []byte)
	}{
		{"NaN x", "non-finite", func(b []byte) { be.PutUint64(rec(b, 3)[8:], math.Float64bits(math.NaN())) }},
		{"+Inf y", "non-finite", func(b []byte) { be.PutUint64(rec(b, 7)[16:], math.Float64bits(math.Inf(1))) }},
		{"-Inf x", "non-finite", func(b []byte) { be.PutUint64(rec(b, 14)[8:], math.Float64bits(math.Inf(-1))) }},
		{"duplicate id", "duplicate point id", func(b []byte) { copy(rec(b, 9)[:8], rec(b, 2)[:8]) }},
		{"id outside int32", "outside int32", func(b []byte) { be.PutUint64(rec(b, 5), be.Uint64(rec(b, 5))+1<<32) }},
		{"negative id outside int32", "outside int32", func(b []byte) {
			id := int64(math.MinInt32) - 1
			be.PutUint64(rec(b, 0), uint64(id))
		}},
	}
	if _, err := New(raw); err != nil {
		t.Fatalf("the unspoilt file: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := slices.Clone(raw)
			tc.spoil(b)
			putTrailer(b)
			if _, err := New(b); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New = %v, want ErrCorrupt naming %q", err, tc.want)
			}
		})
	}
}

// unorderedPoints returns a copy of the file raw, which holds its points in
// id order, with every point record moved one place on (the last to the
// front) and the trailer resealed: a file like those a v4 writer that kept
// insertion order wrote.
func unorderedPoints(raw []byte) []byte {
	const recordSize = 8 + 8*2
	b := slices.Clone(raw)
	n := int(binary.BigEndian.Uint64(raw[16:]))
	for i := 0; i < n; i++ {
		copy(b[headerSize+(i+1)%n*recordSize:][:recordSize], raw[headerSize+i*recordSize:])
	}
	putTrailer(b)
	return b
}

// TestUnorderedPointsFileOpensInIDOrder pins the upgrade path of a v4 file
// whose points are not in id order, as every file written from unsorted
// input, or after inserting an id below a live one, was before the writer
// kept points ordered: New and OpenMmap accept it, serve its points in id
// order, and answer every cell as the ordered file does. A duplicate id in
// such a file is still ErrCorrupt.
func TestUnorderedPointsFileOpensInIDOrder(t *testing.T) {
	ordered := maintainedFile(t, 40, 19)
	unordered := unorderedPoints(ordered)
	if slices.Equal(ordered, unordered) {
		t.Fatal("test premise broken: the permuted file is the ordered one")
	}
	want, err := New(ordered)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "unordered.sky")
	if err := os.WriteFile(path, unordered, 0o644); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	read, err := New(unordered)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Store{"New": read, "OpenMmap": mapped} {
		if !slices.EqualFunc(s.Points(), want.Points(), func(a, b geom.Point) bool {
			return a.ID == b.ID && slices.Equal(a.Coords, b.Coords)
		}) {
			t.Fatalf("%s: points %v, want the ordered file's %v", name, s.Points(), want.Points())
		}
		for c := 0; c < want.NumCells(); c++ {
			i, j := c/want.rows, c%want.rows
			got, err := s.Cell(i, j)
			if err != nil {
				t.Fatal(err)
			}
			if w, _ := want.Cell(i, j); !slices.Equal(got, w) {
				t.Fatalf("%s: cell (%d,%d) = %v, want %v", name, i, j, got, w)
			}
		}
	}

	dup := slices.Clone(unordered)
	const recordSize = 8 + 8*2
	copy(dup[headerSize+9*recordSize:][:8], dup[headerSize+2*recordSize:][:8])
	putTrailer(dup)
	if _, err := New(dup); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "duplicate point id") {
		t.Fatalf("New of an unordered file with a duplicate id = %v, want ErrCorrupt", err)
	}
}

// TestSamePointSetSameBytes pins the claim that the file is a function of
// the point set: two histories that reach one set — inserting a and b in
// either order, and each inserting an id below every live one and
// replacing a point in the middle of the id range — encode byte for byte
// alike, with and without CompactArena, and like a fresh build of the set
// from its points in reverse order.
func TestSamePointSetSameBytes(t *testing.T) {
	var pts []geom.Point
	for _, p := range buildDiagram(t, 40, 5).Points {
		pts = append(pts, geom.Pt2(p.ID+100, p.X(), p.Y()))
	}
	base, err := quaddiag.BuildScanning(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, b := geom.Pt2(1000, 41.125, 12.375), geom.Pt2(117, 7.0625, 63.8125)
	low := geom.Pt2(3, 55.5625, 2.9375)
	apply := func(ops ...func(*quaddiag.Diagram) (*quaddiag.Diagram, error)) *quaddiag.Diagram {
		t.Helper()
		d := base
		for _, op := range ops {
			if d, err = op(d); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	insert := func(p geom.Point) func(*quaddiag.Diagram) (*quaddiag.Diagram, error) {
		return func(d *quaddiag.Diagram) (*quaddiag.Diagram, error) { return d.WithInsert(p) }
	}
	del := func(d *quaddiag.Diagram) (*quaddiag.Diagram, error) { return d.WithDelete(117) }
	one := apply(insert(a), del, insert(b), insert(low))
	other := apply(insert(low), del, insert(b), insert(a))
	reversed := slices.Clone(one.Points)
	slices.Reverse(reversed)
	fresh, err := quaddiag.BuildScanning(reversed, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := fileBytes(t, one, 9)
	for name, d := range map[string]*quaddiag.Diagram{
		"other order": other, "compacted": one.CompactArena(),
		"other order compacted": other.CompactArena(), "fresh build": fresh,
	} {
		if got := fileBytes(t, d, 9); !slices.Equal(got, wantBytes) {
			diff := 0
			for k := range min(len(got), len(wantBytes)) {
				if got[k] != wantBytes[k] {
					diff++
				}
			}
			t.Fatalf("%s: %d of %d bytes differ (lengths %d, %d)", name, diff, len(wantBytes), len(got), len(wantBytes))
		}
	}
}
