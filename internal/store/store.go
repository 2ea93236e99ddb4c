// Package store persists the quadrant skyline diagram in one binary file
// format and serves point-location queries straight from a file's bytes —
// the deployment shape of a precomputation structure: build once on a beefy
// machine, ship the file, and answer queries on small ones with no build or
// materialization step.
//
// File layout (all integers big-endian), format version 4:
//
//	header   magic "SKYDSTO1", version, dim, #points, cols, rows,
//	         cellsPerPage, #pages, index offset, pages offset, kind (1,
//	         quadrant: the one kind), epoch, 8 reserved zero bytes — 80
//	         bytes
//	points   id:int64, coords: dim × float64  (grid lines are rebuilt from
//	         these on open, exactly as the in-memory constructors do)
//	index    per page: offset:uint64, length:uint32, crc32:uint32
//	pages    each page: cellsPerPage interned result labels (uint32,
//	         0xFFFFFFFF for padding past the last cell) — fixed
//	         4·cellsPerPage bytes per page, back to back
//	arena    the interned CSR result table shared by every cell:
//	         #results:uint32, #ids:uint32, offsets: (#results+1) × uint32,
//	         ids: #ids × uint32, crc32 of the section
//	trailer  magic "SKYDEND1", crc32 of every preceding byte
//
// The epoch is a replication generation: a monotonically increasing
// snapshot number assigned by the builder that published the file. Replicas
// negotiate snapshot transfers by epoch (fetch only when the builder is
// ahead) and routers use it to measure staleness; Epoch returns it, and the
// trailer CRC covers it like every other header byte, so a flipped epoch is
// ErrCorrupt, not a silent time warp. Files of any other version are
// refused, and a header naming another kind is ErrCorrupt.
//
// A Store is a view over one byte slice holding a whole file. New parses
// it in place: it verifies the trailer CRC before trusting any header
// field, bounds every header-declared count by the slice before sizing
// anything from it, and checks the arena's own CRC and its offsets where
// they lie, so a torn write or a flipped bit anywhere is ErrCorrupt at open
// instead of a wrong skyline later. Label pages and the arena are read
// straight from the slice; only the points are decoded, and checked to mean
// a dataset (finite coordinates, distinct int32 ids), and the grid lines
// rebuilt from them. Point location is O(1) via rank tables over those
// lines, and AppendQueryXY decodes the answer's ids from the arena into the
// caller's buffer with zero allocations.
//
// OpenMmap serves a file from a read-only memory map, or, where the
// platform has no mmap or the map fails, from the whole file read into
// memory; either way the bytes go through New. Close never unmaps under a
// reader: the last hold to end does.
//
// An Encoder writes a diagram's file sequentially, in file order, through
// one small chunk: every section's offset follows from the counts before
// the first byte, so a writer, a manifest (Encoder.Manifest) or a delta
// (DeltaWriter) takes a file of any size without holding it. CreateFile
// is crash-safe: it streams to a temporary file in the target's directory,
// fsyncs it, renames it into place, and fsyncs the directory, so a crash at
// any instant leaves either the previous generation or the new one — never
// a torn file under the target name. CreateFileFrom publishes a file the
// caller streams the same way, opening it before the rename, so a file that
// does not open or that the caller refuses never replaces the published
// one. Recover opens a path after a suspected crash, salvaging a
// completed-but-unrenamed generation and discarding torn temporaries.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/quaddiag"
)

const (
	magic   = "SKYDSTO1"
	version = 4
	// headerSize covers the fixed fields, the epoch (uint64) and 8 reserved
	// zero bytes.
	headerSize   = 80
	indexEntrySz = 16
	// trailerMagic ends every file, followed by a CRC32 of all preceding
	// bytes.
	trailerMagic = "SKYDEND1"
	trailerSize  = 12
	// labelPageSize is the fixed size of a label page.
	labelPageSize = 4 * CellsPerPage
	// noCell pads label pages past the diagram's last cell.
	noCell = 0xFFFFFFFF
	// CellsPerPage is the number of cell labels per page (1 KiB pages).
	CellsPerPage = 256
)

// ErrCorrupt marks a file whose bytes are structurally or checksum-wise
// wrong: torn writes, flipped bits, truncation. I/O failures (a file that
// cannot be opened or read) are returned as-is and do NOT wrap ErrCorrupt,
// so callers can tell a poisoned file (rebuild or restore it) from a flaky
// disk (retry). Neither does a file of another format version.
var ErrCorrupt = errors.New("store: corrupt file")

// kindQuadrant is the diagram kind in every file's header, the only kind
// this package reads or writes.
const kindQuadrant = 1

// TempSuffix is appended to the target path for the intermediate file
// CreateFile writes before the atomic rename. Recover knows to look for it.
const TempSuffix = ".tmp"

// CreateFile writes the diagram to path atomically: the bytes go to a
// temporary file in the same directory, which is fsynced and then renamed
// over path, followed by a directory fsync. A crash (or injected fault) at
// any step leaves path holding either its previous contents or the complete
// new file — never a torn mix. A torn temporary may remain; CreateFile
// overwrites it on the next attempt and Recover discards it.
func CreateFile(path string, d *quaddiag.Diagram) error {
	return CreateFileEpoch(path, d, 0)
}

// CreateFileEpoch is CreateFile with a replication epoch stamped into the
// header. The file streams from the diagram into the temporary file.
func CreateFileEpoch(path string, d *quaddiag.Diagram, epoch uint64) error {
	e, err := NewEncoder(d, epoch)
	if err != nil {
		return err
	}
	return e.CreateFile(path)
}

// CreateFile writes the encoder's file to path atomically, as the package's
// CreateFile does, streaming it into the temporary file.
func (e *Encoder) CreateFile(path string) error {
	return createFile(path, e.writeFile, nil)
}

// CreateFileFrom is CreateFile for a file the caller streams, such as a
// download: write puts the complete file into the temporary file, which is
// fsynced, then opened (OpenMmap) and passed to accept before it is renamed
// over path. A temporary that does not open, or that accept refuses, is
// deleted, so path only ever holds a file that opened and was accepted. On
// success the opened store is returned; it serves the file now at path. On
// any error no store is returned, though after a failed directory fsync
// path already holds the new file.
func CreateFileFrom(path string, write func(io.Writer) error, accept func(*Store) error) (*Store, error) {
	var st *Store
	err := createFile(path, write, func(tmp string) error {
		s, err := OpenMmap(tmp)
		if err == nil {
			if err = accept(s); err == nil {
				st = s
				return nil
			}
			s.Close()
		}
		// Deleted so Recover never salvages it; one that survives a failed
		// removal is overwritten by the next publish.
		_ = os.Remove(tmp)
		return err
	})
	if err != nil && st != nil {
		st.Close()
		st = nil
	}
	return st, err
}

// createFile runs write against a temporary file beside path, fsyncs it,
// lets check (when non-nil) vet the complete temporary, renames it over
// path and fsyncs the directory, hitting a store.create.* failpoint before
// each step but the check.
func createFile(path string, write func(io.Writer) error, check func(tmp string) error) error {
	tmp := path + TempSuffix
	if err := faultinject.Hit("store.create.create"); err != nil {
		return fmt.Errorf("store: create %s: %w", tmp, err)
	}
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := faultinject.Hit("store.create.sync"); err != nil {
		f.Close()
		return fmt.Errorf("store: fsync %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if check != nil {
		if err := check(tmp); err != nil {
			return err
		}
	}
	if err := faultinject.Hit("store.create.rename"); err != nil {
		return fmt.Errorf("store: rename %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if err := faultinject.Hit("store.create.dirsync"); err != nil {
		return fmt.Errorf("store: sync dir of %s: %w", path, err)
	}
	return syncDir(filepath.Dir(path))
}

// pageTearer passes a file's bytes on to w and hits the store.write.page
// failpoint once per label page, in file order. When it fires, only the
// bytes before that page reach w — the torn prefix a crash mid-write leaves
// behind — and the injected error is returned. Every writer of a file to a
// destination (WriteEpoch, CreateFile*) writes through one.
type pageTearer struct {
	w   io.Writer
	off int64 // bytes passed on so far
	// page is the offset of the next label page to hit the failpoint for,
	// end the offset past the last one.
	page, end int64
}

func (t *pageTearer) Write(p []byte) (int, error) {
	for ; t.page < t.end && t.page < t.off+int64(len(p)); t.page += labelPageSize {
		if err := faultinject.Hit("store.write.page"); err != nil {
			// The torn prefix; a crash has no error to report for it.
			n, _ := t.w.Write(p[:t.page-t.off])
			t.off += int64(n)
			return n, err
		}
	}
	n, err := t.w.Write(p)
	t.off += int64(n)
	return n, err
}

// syncDir fsyncs a directory so a completed rename survives power loss.
// Filesystems that refuse to fsync directories are tolerated: the rename
// itself is still atomic, only its durability window widens.
func syncDir(dir string) error {
	df, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer df.Close()
	_ = df.Sync()
	return nil
}

// Recover opens the diagram at path after a suspected crash. If path opens
// cleanly it wins and any leftover temporary is deleted. If path is corrupt
// or missing but a complete temporary from an interrupted CreateFile exists,
// that newer generation is renamed into place and served. A torn temporary
// is deleted. When neither generation is usable, the original open error is
// returned (wrapping ErrCorrupt when the file is damaged rather than
// unreadable).
func Recover(path string) (*Store, error) {
	tmp := path + TempSuffix
	s, err := OpenMmap(path)
	if err == nil {
		_ = os.Remove(tmp)
		return s, nil
	}
	if ts, terr := OpenMmap(tmp); terr == nil {
		// The temp is a complete, checksum-clean generation: the crash hit
		// between the data fsync and the rename. Finish the job.
		ts.Close()
		if rerr := os.Rename(tmp, path); rerr != nil {
			return nil, rerr
		}
		if serr := syncDir(filepath.Dir(path)); serr != nil {
			return nil, serr
		}
		return OpenMmap(path)
	}
	_ = os.Remove(tmp)
	return nil, err
}

// Store serves queries from one diagram file's bytes. It holds only the
// points, the rank tables and the bytes: labels and results are read from
// the file where they lie.
type Store struct {
	// data is the whole file: a read-only memory map when mapped is set,
	// otherwise memory the garbage collector owns. It never changes after
	// New.
	data   []byte
	mapped bool

	cols, rows int
	// epoch is the replication generation stamped by the builder that
	// published this snapshot.
	epoch uint64
	// labels is the label-page section of data: one uint32 label per cell,
	// row-major, then padding.
	labels []byte
	// xrank/yrank are O(1) point-location tables over the grid lines (see
	// grid.Rank), so a query is two array loads plus a label indirection.
	xrank, yrank *grid.Rank
	points       []geom.Point
	// offsets and ids are the arena section's interned result table, read in
	// place: (#results+1) big-endian uint32 offsets, then the big-endian ids
	// they index. Label l names ids[4*offsets[l]:4*offsets[l+1]].
	offsets, ids []byte

	// active counts holds on data: Acquire holds and in-flight reads, plus
	// closed once Close has begun, so a hold and Close's mark change in one
	// atomic word. A replica closes the store it swapped out while
	// stragglers may still read its mapping, so Close unmaps only when no
	// hold is open, and otherwise the read or Release that ends the last
	// hold, leaving active at exactly closed, unmaps.
	active atomic.Int64
	// closing makes a second Close a no-op.
	closing atomic.Bool
	// unmapped makes the unmap happen exactly once.
	unmapped atomic.Bool
}

// OpenMmap opens a diagram file for serving. It maps the file read-only and
// closes the descriptor (the mapping outlives it); where the platform has
// no mmap or the map fails, it reads the whole file into memory instead.
// Either way the bytes are parsed and verified by New, so the two modes
// answer identically and reject exactly the same files. Mapped reports
// which mode is active.
//
// The store.open.read failpoint is hit once, before the file is mapped or
// read.
func OpenMmap(path string) (*Store, error) {
	if err := faultinject.Hit("store.open.read"); err != nil {
		return nil, fmt.Errorf("store: read %s: %w", path, err)
	}
	data, err := mmapFile(path)
	mapped := err == nil
	if !mapped {
		if data, err = os.ReadFile(path); err != nil {
			return nil, err
		}
	}
	s, err := New(data)
	if err != nil {
		if mapped {
			_ = munmapFile(data)
		}
		return nil, err
	}
	s.mapped = mapped
	return s, nil
}

// checkHead checks what every reader of a store file checks first: that
// data can hold a header and a trailer, starts with the magic, and declares
// the one format version this package reads. Another version is refused
// with an error that does not wrap ErrCorrupt.
func checkHead(data []byte) error {
	if len(data) < headerSize+trailerSize {
		return fmt.Errorf("%w: %d bytes is too small for a store file", ErrCorrupt, len(data))
	}
	if string(data[:8]) != magic {
		return fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:8])
	}
	if v := binary.BigEndian.Uint32(data[8:]); v != version {
		return fmt.Errorf("store: unsupported version %d (want %d)", v, version)
	}
	return nil
}

// New parses a complete store file and serves queries from it. The Store
// keeps data, reading label pages and the arena in place, so the caller
// must not modify it afterwards. The trailer CRC is verified before any
// header field is trusted, and every header-declared count is bounded by
// len(data) before anything is sized from it.
func New(data []byte) (*Store, error) {
	if err := checkHead(data); err != nil {
		return nil, err
	}
	be := binary.BigEndian
	end := len(data) - trailerSize
	if string(data[end:end+8]) != trailerMagic {
		return nil, fmt.Errorf("%w: missing trailer (torn write?)", ErrCorrupt)
	}
	if crc32.ChecksumIEEE(data[:end]) != be.Uint32(data[end+8:]) {
		return nil, fmt.Errorf("%w: full-file checksum mismatch", ErrCorrupt)
	}
	s := &Store{
		data:  data,
		cols:  int(be.Uint32(data[24:])),
		rows:  int(be.Uint32(data[28:])),
		epoch: be.Uint64(data[64:]),
	}
	if k := be.Uint32(data[60:]); k != kindQuadrant {
		return nil, fmt.Errorf("%w: unknown diagram kind %d", ErrCorrupt, k)
	}
	if cpp := be.Uint32(data[32:]); cpp != CellsPerPage {
		return nil, fmt.Errorf("%w: header: %d cells per page, want %d", ErrCorrupt, cpp, CellsPerPage)
	}
	if dim := be.Uint32(data[12:]); s.cols <= 0 || s.rows <= 0 || dim != 2 {
		return nil, fmt.Errorf("%w: header: cols=%d rows=%d dim=%d", ErrCorrupt, s.cols, s.rows, dim)
	}
	if int64(s.cols)*int64(s.rows) > math.MaxInt32 {
		return nil, fmt.Errorf("%w: header: %dx%d cells", ErrCorrupt, s.cols, s.rows)
	}
	numPages := (s.cols*s.rows + CellsPerPage - 1) / CellsPerPage
	if n := be.Uint64(data[36:]); n != uint64(numPages) {
		return nil, fmt.Errorf("%w: header claims %d pages for %d cells", ErrCorrupt, n, s.cols*s.rows)
	}
	// The sections follow one another with no gaps, so every offset is
	// implied by the counts; the header's copies must agree.
	const recordSize = 8 + 8*2
	numPoints := be.Uint64(data[16:])
	if numPoints > uint64(end)/recordSize {
		return nil, fmt.Errorf("%w: header claims %d points but the file holds %d bytes", ErrCorrupt, numPoints, len(data))
	}
	indexOff := int64(headerSize) + int64(numPoints)*recordSize
	pagesOff := indexOff + int64(numPages)*indexEntrySz
	arenaOff := pagesOff + int64(numPages)*labelPageSize
	if be.Uint64(data[44:]) != uint64(indexOff) || be.Uint64(data[52:]) != uint64(pagesOff) {
		return nil, fmt.Errorf("%w: header section offsets %d/%d, want %d/%d",
			ErrCorrupt, be.Uint64(data[44:]), be.Uint64(data[52:]), indexOff, pagesOff)
	}
	if arenaOff+8 > int64(end) {
		return nil, fmt.Errorf("%w: %d label pages overrun the %d-byte file", ErrCorrupt, numPages, len(data))
	}
	for pg := 0; pg < numPages; pg++ {
		e := data[int(indexOff)+pg*indexEntrySz:]
		if be.Uint64(e) != uint64(pagesOff)+uint64(pg)*labelPageSize || be.Uint32(e[8:]) != labelPageSize {
			return nil, fmt.Errorf("%w: label page %d is %d bytes at offset %d (want %d at %d)", ErrCorrupt,
				pg, be.Uint32(e[8:]), be.Uint64(e), labelPageSize, uint64(pagesOff)+uint64(pg)*labelPageSize)
		}
	}
	s.labels = data[pagesOff:arenaOff]
	if err := s.parseArena(data[arenaOff:end]); err != nil {
		return nil, err
	}

	// The points must mean a dataset: finite coordinates and distinct int32
	// ids (a wider id would alias another in every int32 result). They are
	// served in id order: a file whose ids ascend strictly, as every file
	// this package writes does, is checked for that in the same pass that
	// reads it, which is also the duplicate check; any other file (an older
	// writer's) is sorted once here.
	s.points = make([]geom.Point, numPoints)
	coords := make([]float64, 2*numPoints)
	ascending := true
	for i := range s.points {
		rec := data[headerSize+i*recordSize:]
		c := coords[2*i : 2*i+2 : 2*i+2]
		c[0] = math.Float64frombits(be.Uint64(rec[8:]))
		c[1] = math.Float64frombits(be.Uint64(rec[16:]))
		id := int64(be.Uint64(rec))
		if id != int64(int32(id)) {
			return nil, fmt.Errorf("%w: point %d: id %d outside int32", ErrCorrupt, i, id)
		}
		if math.IsNaN(c[0]) || math.IsInf(c[0], 0) || math.IsNaN(c[1]) || math.IsInf(c[1], 0) {
			return nil, fmt.Errorf("%w: point %d (id %d): non-finite coordinate %v", ErrCorrupt, i, id, c)
		}
		s.points[i] = geom.Point{ID: int(id), Coords: c}
		ascending = ascending && (i == 0 || s.points[i-1].ID < s.points[i].ID)
	}
	if !ascending {
		s.points = geom.ByID(s.points)
		for i := 1; i < len(s.points); i++ {
			if s.points[i].ID == s.points[i-1].ID {
				return nil, fmt.Errorf("%w: duplicate point id %d", ErrCorrupt, s.points[i].ID)
			}
		}
	}
	g := grid.NewGrid(s.points)
	if g.Cols() != s.cols || g.Rows() != s.rows {
		return nil, fmt.Errorf("%w: points imply a %dx%d grid, header says %dx%d",
			ErrCorrupt, g.Cols(), g.Rows(), s.cols, s.rows)
	}
	s.xrank, s.yrank = g.Ranks()
	return s, nil
}

// parseArena bounds and CRC-checks the arena section (its own trailing CRC
// included) and checks its offsets where they lie: the first is 0, none
// decreases, and the last equals the id count, so every result a label
// names lies inside the ids. It keeps the offsets and ids as subslices of
// sec and allocates nothing.
func (s *Store) parseArena(sec []byte) error {
	be := binary.BigEndian
	numResults, numIDs := uint64(be.Uint32(sec)), uint64(be.Uint32(sec[4:]))
	// At most one result per cell.
	if numResults > uint64(s.cols)*uint64(s.rows)+1 {
		return fmt.Errorf("%w: arena claims %d results for %d cells", ErrCorrupt, numResults, s.cols*s.rows)
	}
	idsOff := 8 + 4*(numResults+1)
	crcOff := idsOff + 4*numIDs
	if crcOff+4 != uint64(len(sec)) {
		return fmt.Errorf("%w: arena of %d results and %d ids is %d bytes, not %d",
			ErrCorrupt, numResults, numIDs, crcOff+4, len(sec))
	}
	if crc32.ChecksumIEEE(sec[:crcOff]) != be.Uint32(sec[crcOff:]) {
		return fmt.Errorf("%w: arena checksum mismatch", ErrCorrupt)
	}
	offsets := sec[8:idsOff]
	last := be.Uint32(offsets)
	ok := last == 0
	for o := 4; ok && o < len(offsets); o += 4 {
		v := be.Uint32(offsets[o:])
		ok, last = v >= last, v
	}
	if !ok || uint64(last) != numIDs {
		return fmt.Errorf("%w: arena offsets are not a valid CSR table", ErrCorrupt)
	}
	s.offsets, s.ids = offsets, sec[idsOff:crcOff]
	return nil
}

// Close releases the store. A mapped store is unmapped at once when no
// hold is open — and Close returns the unmap's result — or otherwise by the
// read or Release that ends the last hold, so a replica may swap a newer
// snapshot in and close this one while stragglers still read it: Close
// never waits for them, and they never read an unmapped page. Acquire fails
// once Close has begun.
func (s *Store) Close() error {
	if s.closing.Swap(true) || s.active.Add(closed) != closed {
		return nil
	}
	return s.unmap()
}

// closed is the mark Close adds to Store.active, above any count of holds.
const closed = 1 << 40

// unmap releases a mapped store's mapping, once.
func (s *Store) unmap() error {
	if !s.mapped || !s.unmapped.CompareAndSwap(false, true) {
		return nil
	}
	return munmapFile(s.data)
}

// Points returns the stored dataset in ascending id order, whatever order
// the file holds it in. The caller must not modify it.
func (s *Store) Points() []geom.Point { return s.points }

// NumCells returns the diagram size.
func (s *Store) NumCells() int { return s.cols * s.rows }

// Epoch returns the replication epoch stamped by the builder that published
// this snapshot.
func (s *Store) Epoch() uint64 { return s.epoch }

// Acquire holds the store against Close's unmap until the matching Release,
// and reports false — holding nothing — once Close has begun. A reader that
// got the store from a snapshot another goroutine may retire (swap out,
// then Close) must acquire it before touching it: a read that merely
// started before Close could otherwise reach the store after the unmap.
// Close marks the same counter the holds use, so an acquire either is
// counted before Close marks it or sees the mark.
func (s *Store) Acquire() bool {
	if s.active.Add(1) >= closed {
		s.Release()
		return false
	}
	return true
}

// Release ends a hold taken by Acquire. When it ends the last hold on a
// closed store, it unmaps the store. Ending the last hold and seeing the
// mark is one atomic step: with a separate flag, a Release could count
// zero holds, a new Acquire succeed, and the Release then see Close's flag
// and unmap under the new hold.
func (s *Store) Release() {
	if s.active.Add(-1) == closed {
		_ = s.unmap()
	}
}

// WithBytes calls fn with the complete file bytes — what a relay serves,
// hashes and patches against — counted as a hold for as long as fn runs,
// so the bytes stay readable until fn returns even when Close is called
// meanwhile. fn must neither modify nor retain the slice. Like a query,
// WithBytes does not refuse a store whose Close has begun; callers that
// may race Close hold Acquire around it.
func (s *Store) WithBytes(fn func(data []byte) error) error {
	s.active.Add(1)
	defer s.Release()
	return fn(s.data)
}

// Size returns the length of the store's file in bytes.
func (s *Store) Size() int64 { return int64(len(s.data)) }

// WriteTo writes the store's file to w straight from its bytes, holding
// them as WithBytes does. It implements io.WriterTo.
func (s *Store) WriteTo(w io.Writer) (int64, error) {
	var n int
	err := s.WithBytes(func(data []byte) (err error) {
		n, err = w.Write(data)
		return err
	})
	return int64(n), err
}

// Manifest returns the delta manifest of the store's file.
func (s *Store) Manifest() (*Manifest, error) {
	var m *Manifest
	err := s.WithBytes(func(data []byte) (err error) {
		m, err = NewManifest(data)
		return err
	})
	return m, err
}

// Mapped reports whether the store serves from a memory map rather than
// from the file read into memory.
func (s *Store) Mapped() bool { return s.mapped }

// QueryXY answers a skyline query into a fresh slice, as AppendQueryXY
// answers it. A nil result means an empty skyline.
func (s *Store) QueryXY(x, y float64) []int32 { return s.AppendQueryXY(nil, x, y) }

// AppendQueryXY appends the answer to the skyline query (x, y) to dst and
// returns the extended slice — the serving hot path: two rank-table loads, a
// label load from the file's bytes, and the result's ids decoded from the
// arena into dst, with no lock. The whole copy reads the file's bytes, so it
// runs under a hold. Once dst has the capacity it performs zero allocations.
func (s *Store) AppendQueryXY(dst []int32, x, y float64) []int32 {
	s.active.Add(1)
	defer s.Release()
	dst, _ = s.appendResult(dst, s.xrank.Rank(x)*s.rows+s.yrank.Rank(y))
	return dst
}

// Cell returns the result of cell (i, j) in a fresh slice.
func (s *Store) Cell(i, j int) ([]int32, error) {
	if i < 0 || j < 0 || i >= s.cols || j >= s.rows {
		return nil, fmt.Errorf("store: cell (%d,%d) out of range %dx%d", i, j, s.cols, s.rows)
	}
	s.active.Add(1)
	defer s.Release()
	ids, ok := s.appendResult(nil, i*s.rows+j)
	if !ok {
		return nil, fmt.Errorf("%w: cell (%d,%d) has no result label", ErrCorrupt, i, j)
	}
	return ids, nil
}

// appendResult appends the result a cell's label names to dst, reporting
// false for a label that names no result (padding or damage). The caller
// holds the store.
func (s *Store) appendResult(dst []int32, cell int) ([]int32, bool) {
	be := binary.BigEndian
	label := be.Uint32(s.labels[4*cell:])
	if label >= uint32(len(s.offsets)/4-1) {
		return dst, false
	}
	off := s.offsets[4*int(label):]
	lo, hi := be.Uint32(off), be.Uint32(off[4:])
	ids := s.ids[4*int(lo) : 4*int(hi)]
	dst = slices.Grow(dst, len(ids)/4)
	for ; len(ids) >= 4; ids = ids[4:] {
		dst = append(dst, int32(be.Uint32(ids)))
	}
	return dst, true
}
