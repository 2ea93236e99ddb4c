// Package store persists skyline diagrams in a paged binary file and serves
// point-location queries from disk through a small LRU page cache — the
// deployment shape of a precomputation structure: build once on a beefy
// machine, ship the file, query it on small ones without loading the whole
// diagram into memory.
//
// File layout (all integers big-endian), format version 4:
//
//	header   magic "SKYDSTO1", version, dim, #points, cols, rows,
//	         cellsPerPage, #pages, section offsets, epoch
//	points   id:int64, coords: dim × float64  (grid lines are rebuilt from
//	         these on open, exactly as the in-memory constructors do)
//	index    per page: offset:uint64, length:uint32, crc32:uint32
//	pages    each page: cellsPerPage interned result labels (uint32,
//	         0xFFFFFFFF for padding past the last cell) — fixed
//	         4·cellsPerPage bytes per page
//	arena    the interned CSR result table shared by every cell:
//	         #results:uint32, #ids:uint32, offsets: (#results+1) × uint32,
//	         ids: #ids × uint32, crc32 of the section
//	trailer  magic "SKYDEND1", crc32 of every preceding byte
//
// The arena is loaded (and checksummed) once at open; label pages go through
// the page cache, and Cell resolves a label to a subslice of the arena — no
// per-cell [][]int32 is ever materialized, and a cache-hit read allocates
// nothing. Earlier formats still open read-compatibly: version 3 is version 4
// minus the epoch field (a 64-byte header, epoch reads as 0), and version 2
// (plus the trailer-less version 1) pages carry per-cell id payloads which
// are decoded per read, exactly as before.
//
// Version 4 widens the header to 80 bytes and stamps the file with a
// replication epoch: a monotonically increasing snapshot generation assigned
// by the builder that published the file. Replicas negotiate snapshot
// transfers by epoch (fetch only when the builder is ahead) and routers use
// it to measure staleness; Epoch returns it, and the whole-file trailer CRC
// covers it like every other header byte, so a flipped epoch is ErrCorrupt,
// not a silent time warp.
//
// Every page is CRC-checked on load, and opening a version-2+ file of known
// size verifies the full-file checksum trailer first, so silent corruption —
// including a torn write that stopped mid-file — turns into ErrCorrupt
// instead of a wrong skyline.
//
// OpenMmap serves the same file zero-copy from a read-only memory map: label
// pages become subslices of the map (no cache, no lock, no per-read CRC —
// the trailer verification at open covers them), point location is O(1) via
// rank tables over the rebuilt grid lines, and QueryXY answers with zero
// allocations. That makes a persisted v3 file directly servable: a replica
// maps it and answers queries with no build and no materialization step.
//
// Encode lays a diagram's whole file out in one buffer of exactly its size;
// every writer is Encode plus a write of those bytes. CreateFile is
// crash-safe: it writes to a temporary file in the target's directory,
// fsyncs it, renames it into place, and fsyncs the directory, so a crash at
// any instant leaves either the previous generation or the new one — never
// a torn file under the target name. WriteFile does the same for bytes a
// caller already holds, so an epoch encoded once can be served, hashed and
// checkpointed from the same buffer. Recover opens a path after a suspected
// crash, salvaging a completed-but-unrenamed generation and discarding torn
// temporaries.
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dyndiag"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/quaddiag"
	"repro/internal/resultset"
)

const (
	magic   = "SKYDSTO1"
	version = 4
	// versionNoEpoch is the epoch-less CSR format: identical to version 4
	// except for the shorter header. Still opened (epoch reads as 0).
	versionNoEpoch = 3
	// versionLegacyCells is the last format whose pages carry per-cell id
	// payloads instead of labels; kept writable so the read-compat promise
	// stays executable in tests.
	versionLegacyCells = 2
	headerSize         = 64
	// headerSizeV4 adds the epoch (uint64) plus 8 reserved zero bytes.
	headerSizeV4 = 80
	indexEntrySz = 16
	// trailerMagic ends every version-2+ file, followed by a CRC32 of all
	// preceding bytes.
	trailerMagic = "SKYDEND1"
	trailerSize  = 12
	// labelPageSize is the fixed size of a version-3+ label page.
	labelPageSize = 4 * CellsPerPage
	// noCell pads label pages past the diagram's last cell.
	noCell = 0xFFFFFFFF
	// CellsPerPage balances page size (decode cost) against index size.
	CellsPerPage = 256
	// DefaultCacheSize is the number of decoded pages kept in memory.
	DefaultCacheSize = 64
)

// ErrCorrupt marks a file whose bytes are structurally or checksum-wise
// wrong: torn writes, flipped bits, truncation. I/O failures (a ReadAt
// error) are returned as-is and do NOT wrap ErrCorrupt, so callers can tell
// a poisoned file (rebuild or restore it) from a flaky disk (retry).
var ErrCorrupt = errors.New("store: corrupt file")

// Diagram kinds stored in the header.
const (
	kindQuadrant = 1
	kindDynamic  = 2
)

// Write serialises a quadrant diagram to w in the current (version 4,
// interned CSR) format with epoch 0 (an unversioned snapshot).
func Write(w io.Writer, d *quaddiag.Diagram) error {
	return WriteEpoch(w, d, 0)
}

// WriteEpoch is Write with an explicit replication epoch stamped into the
// header — the builder's snapshot generation, negotiated by replicas.
func WriteEpoch(w io.Writer, d *quaddiag.Diagram, epoch uint64) error {
	data, err := Encode(d, epoch)
	if err != nil {
		return err
	}
	return writeFile(w, data)
}

// WriteDynamic serialises a dynamic diagram to w. The subcell grid is
// rebuilt deterministically from the points on open, exactly like the cell
// grid of the quadrant form.
func WriteDynamic(w io.Writer, d *dyndiag.Diagram) error {
	return WriteDynamicEpoch(w, d, 0)
}

// WriteDynamicEpoch is WriteDynamic with an explicit replication epoch.
func WriteDynamicEpoch(w io.Writer, d *dyndiag.Diagram, epoch uint64) error {
	data, err := EncodeDynamic(d, epoch)
	if err != nil {
		return err
	}
	return writeFile(w, data)
}

// Encode returns the complete version-4 file of a quadrant diagram, stamped
// with a replication epoch: the exact bytes Write, CreateFile and a
// replica's download carry. The result is a fresh buffer the caller owns.
func Encode(d *quaddiag.Diagram, epoch uint64) ([]byte, error) {
	labels, table := d.ExportCSR()
	return encode(d.Points, labels, table, d.Grid.Cols(), d.Grid.Rows(), kindQuadrant, epoch)
}

// EncodeDynamic is Encode for a dynamic diagram.
func EncodeDynamic(d *dyndiag.Diagram, epoch uint64) ([]byte, error) {
	labels, table := d.ExportCSR()
	return encode(d.Points, labels, table, d.Sub.Cols(), d.Sub.Rows(), kindDynamic, epoch)
}

// canonicalCSR reports whether labels reference every table result exactly
// in first-appearance order — the shape a fresh build's freeze produces. A
// maintained (copy-on-write updated) diagram fails this: its arena carries
// garbage results no cell references anymore, and its labels are not in
// first-use order.
func canonicalCSR(labels []uint32, table *resultset.Table) bool {
	next := uint32(0)
	for _, l := range labels {
		if l == next {
			next++
		} else if l > next {
			return false
		}
	}
	return int(next) == table.NumResults()
}

// encode lays out the whole version-4 file — header, points, page index,
// fixed-size label pages, arena, trailer — in one buffer of exactly the
// file's size: every section's size is known before the first byte is
// written, so label pages and their index CRCs are written in place.
//
// The file is canonical: labels are numbered in first-use order over the
// cells and the arena holds exactly the results some cell references, in
// that order. A fresh build's table already is (canonicalCSR) and is copied
// verbatim. A maintained one is put into that order as it is written,
// through a first-use remap array of one uint32 per table result — never a
// re-freeze or an intermediate copy of the table — so persisting a
// maintained snapshot produces the bytes a from-scratch rebuild would, and
// never writes maintenance garbage (whose result count can exceed the cell
// count and would be rejected as corrupt on open). The remap and the file
// buffer are the only allocations.
func encode(pts []geom.Point, labels []uint32, table *resultset.Table, cols, rows, kind int, epoch uint64) ([]byte, error) {
	if len(labels) == 0 {
		return nil, fmt.Errorf("store: diagram has no cells")
	}
	// remap[l] is old label l's canonical label + 1 (0: no cell uses it);
	// nil when the table is canonical already.
	var remap []uint32
	numResults, numIDs := table.NumResults(), table.ArenaLen()
	if !canonicalCSR(labels, table) {
		remap = make([]uint32, table.NumResults())
		numResults, numIDs = 0, 0
		for _, l := range labels {
			if remap[l] == 0 {
				numResults++
				remap[l] = uint32(numResults)
				numIDs += table.Len(l)
			}
		}
	}
	numPages := (len(labels) + CellsPerPage - 1) / CellsPerPage
	indexOff := headLen(version, pts)
	pagesOff := indexOff + numPages*indexEntrySz
	arenaOff := pagesOff + numPages*labelPageSize
	idsOff := arenaOff + 8 + 4*(numResults+1)
	arenaEnd := idsOff + 4*numIDs
	buf := make([]byte, arenaEnd+4+trailerSize)
	putHead(buf, version, pts, cols, rows, numPages, kind, epoch)

	be := binary.BigEndian
	cells := buf[pagesOff:arenaOff]
	for i, l := range labels {
		if remap != nil {
			l = remap[l] - 1
		}
		be.PutUint32(cells[4*i:], l)
	}
	for i := len(labels); i < numPages*CellsPerPage; i++ {
		be.PutUint32(cells[4*i:], noCell)
	}
	for pg := 0; pg < numPages; pg++ {
		off := pagesOff + pg*labelPageSize
		putIndexEntry(buf[indexOff+pg*indexEntrySz:], buf[off:off+labelPageSize], off)
	}

	// Arena: #results, #ids, offsets, ids, section crc32.
	be.PutUint32(buf[arenaOff:], uint32(numResults))
	be.PutUint32(buf[arenaOff+4:], uint32(numIDs))
	offs, ids := buf[arenaOff+8:idsOff], buf[idsOff:arenaEnd]
	if remap == nil {
		for i, o := range table.Offsets() {
			be.PutUint32(offs[4*i:], o)
		}
		for i, id := range table.IDs() {
			be.PutUint32(ids[4*i:], uint32(id))
		}
	} else {
		// Labels were numbered in first-use order, so a second pass over the
		// cells meets each result's first use exactly when its new label
		// comes up next. offs[0] is already 0.
		next, n := uint32(1), 0
		for _, l := range labels {
			if remap[l] != next {
				continue
			}
			for _, id := range table.Result(l) {
				be.PutUint32(ids[4*n:], uint32(id))
				n++
			}
			be.PutUint32(offs[4*next:], uint32(n))
			if next++; int(next) > numResults {
				break
			}
		}
	}
	be.PutUint32(buf[arenaEnd:], crc32.ChecksumIEEE(buf[arenaOff:arenaEnd]))
	putTrailer(buf)
	return buf, nil
}

// writeLegacyCells writes the version-2 cell-payload format. Production code
// always writes version 4; this path keeps the "old files still open"
// promise executable in tests.
func writeLegacyCells(w io.Writer, pts []geom.Point, cells [][]int32, cols, rows, kind int) error {
	if len(cells) == 0 {
		return fmt.Errorf("store: diagram has no cells")
	}
	numPages := (len(cells) + CellsPerPage - 1) / CellsPerPage
	pages := make([][]byte, numPages)
	indexOff := headLen(versionLegacyCells, pts)
	size := indexOff + numPages*indexEntrySz + trailerSize
	for pg := range pages {
		pages[pg] = encodePage(cells[pg*CellsPerPage : min((pg+1)*CellsPerPage, len(cells))])
		size += len(pages[pg])
	}
	buf := make([]byte, size)
	putHead(buf, versionLegacyCells, pts, cols, rows, numPages, kind, 0)
	off := indexOff + numPages*indexEntrySz
	for pg, page := range pages {
		copy(buf[off:], page)
		putIndexEntry(buf[indexOff+pg*indexEntrySz:], page, off)
		off += len(page)
	}
	putTrailer(buf)
	return writeFile(w, buf)
}

// headLen is the size of the header plus the points section of a format
// version: the page index starts there.
func headLen(v int, pts []geom.Point) int {
	return headerSizeFor(v) + len(pts)*(8+8*dimOf(pts))
}

// putHead writes the header and the points section at the front of buf.
// Version 4 appends the epoch and 8 reserved zero bytes to the header;
// every earlier field sits at the same offset in all versions.
func putHead(buf []byte, v int, pts []geom.Point, cols, rows, numPages, kind int, epoch uint64) {
	be := binary.BigEndian
	indexOff := headLen(v, pts)
	copy(buf[0:8], magic)
	be.PutUint32(buf[8:], uint32(v))
	be.PutUint32(buf[12:], uint32(dimOf(pts)))
	be.PutUint64(buf[16:], uint64(len(pts)))
	be.PutUint32(buf[24:], uint32(cols))
	be.PutUint32(buf[28:], uint32(rows))
	be.PutUint32(buf[32:], CellsPerPage)
	be.PutUint64(buf[36:], uint64(numPages))
	be.PutUint64(buf[44:], uint64(indexOff))
	be.PutUint64(buf[52:], uint64(indexOff+numPages*indexEntrySz))
	be.PutUint32(buf[60:], uint32(kind))
	if v >= 4 {
		be.PutUint64(buf[64:], epoch)
	}
	off := headerSizeFor(v)
	for _, p := range pts {
		be.PutUint64(buf[off:], uint64(int64(p.ID)))
		off += 8
		for _, c := range p.Coords {
			be.PutUint64(buf[off:], math.Float64bits(c))
			off += 8
		}
	}
}

// putIndexEntry writes one page index entry: offset, length, crc32.
func putIndexEntry(e, page []byte, off int) {
	be := binary.BigEndian
	be.PutUint64(e, uint64(off))
	be.PutUint32(e[8:], uint32(len(page)))
	be.PutUint32(e[12:], crc32.ChecksumIEEE(page))
}

// putTrailer ends buf with the trailer magic and the CRC32 of every byte
// before it.
func putTrailer(buf []byte) {
	n := len(buf) - trailerSize
	copy(buf[n:], trailerMagic)
	binary.BigEndian.PutUint32(buf[n+8:], crc32.ChecksumIEEE(buf[:n]))
}

// writeFile writes a complete encoded file to w. The store.write.page
// failpoint is hit once per page, in file order; when it fires, only the
// bytes before that page reach w — the torn prefix a crash mid-write leaves
// behind — and the injected error is returned.
func writeFile(w io.Writer, data []byte) error {
	be := binary.BigEndian
	if len(data) < headerSize || string(data[:8]) != magic {
		return fmt.Errorf("store: write: not an encoded store file")
	}
	size := uint64(len(data))
	numPages, indexOff := be.Uint64(data[36:]), be.Uint64(data[44:])
	if indexOff > size || numPages > (size-indexOff)/indexEntrySz {
		return fmt.Errorf("store: write: page index outside the %d-byte file", size)
	}
	for pg := uint64(0); pg < numPages; pg++ {
		if err := faultinject.Hit("store.write.page"); err != nil {
			// The torn prefix; a crash has no error to report for it.
			_, _ = w.Write(data[:min(be.Uint64(data[indexOff+pg*indexEntrySz:]), size)])
			return err
		}
	}
	_, err := w.Write(data)
	return err
}

// headerSizeFor returns the on-disk header size of a format version: 80
// bytes from version 4 (epoch + reserved), 64 before.
func headerSizeFor(v int) int {
	if v >= 4 {
		return headerSizeV4
	}
	return headerSize
}

func dimOf(pts []geom.Point) int {
	if len(pts) == 0 {
		return 2
	}
	return pts[0].Dim()
}

// encodePage lays out up to CellsPerPage cells: local offset table, then
// payloads.
func encodePage(cells [][]int32) []byte {
	be := binary.BigEndian
	headSize := 4 * CellsPerPage
	size := headSize
	for _, c := range cells {
		size += 4 + 4*len(c)
	}
	page := make([]byte, size)
	off := headSize
	for k := 0; k < CellsPerPage; k++ {
		if k < len(cells) {
			be.PutUint32(page[4*k:], uint32(off))
			c := cells[k]
			be.PutUint32(page[off:], uint32(len(c)))
			off += 4
			for _, id := range c {
				be.PutUint32(page[off:], uint32(id))
				off += 4
			}
		} else {
			be.PutUint32(page[4*k:], 0xFFFFFFFF) // no such cell
		}
	}
	return page
}

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
// header.
func CreateFileEpoch(path string, d *quaddiag.Diagram, epoch uint64) error {
	data, err := Encode(d, epoch)
	if err != nil {
		return err
	}
	return WriteFile(path, data)
}

// CreateFileDynamic is CreateFile for a dynamic diagram.
func CreateFileDynamic(path string, d *dyndiag.Diagram) error {
	data, err := EncodeDynamic(d, 0)
	if err != nil {
		return err
	}
	return WriteFile(path, data)
}

// WriteFile publishes an encoded file (Encode's output) at path with
// CreateFile's atomic temp+fsync+rename: a caller that already holds an
// epoch's bytes persists them without encoding again.
func WriteFile(path string, data []byte) error {
	tmp := path + TempSuffix
	if err := faultinject.Hit("store.create.create"); err != nil {
		return fmt.Errorf("store: create %s: %w", tmp, err)
	}
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := writeFile(f, data); err != nil {
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
	s, err := Open(path)
	if err == nil {
		_ = os.Remove(tmp)
		return s, nil
	}
	if ts, terr := Open(tmp); terr == nil {
		// The temp is a complete, checksum-clean generation: the crash hit
		// between the data fsync and the rename. Finish the job.
		ts.Close()
		if rerr := os.Rename(tmp, path); rerr != nil {
			return nil, rerr
		}
		if serr := syncDir(filepath.Dir(path)); serr != nil {
			return nil, serr
		}
		return Open(path)
	}
	_ = os.Remove(tmp)
	return nil, err
}

// Store serves queries from a diagram file.
type Store struct {
	r      io.ReaderAt
	closer io.Closer

	version    int
	dim        int
	kind       int
	cols, rows int
	numPages   int
	// epoch is the replication generation stamped by the builder that
	// published this snapshot (version 4+; 0 for earlier formats).
	epoch uint64
	// size is the file length in bytes when it was known at open, -1
	// otherwise; WithBytes needs it to lend the whole file to a relay.
	size      int64
	pageIndex []pageMeta
	xs, ys    []float64
	// xrank/yrank are O(1) point-location tables over xs/ys (see grid.Rank),
	// so a stored-diagram query is two array loads plus a label indirection.
	xrank, yrank *grid.Rank
	points       []geom.Point
	// table is the interned result arena, loaded eagerly for version-3
	// files; Cell resolves a page's label into it without copying.
	table *resultset.Table

	// mapped, when non-nil, is the read-only memory map of the whole file
	// (OpenMmap). Pages are served as subslices of it — no cache, no mutex,
	// no per-read CRC: the whole-file trailer checksum was verified at open,
	// which transitively covers every page. Only set for version >= 2 files
	// (version 1 has no trailer, so it keeps the per-page-CRC cache path).
	mapped   []byte
	unmapper func([]byte) error

	// active counts in-flight readers so Close can drain them before
	// unmapping: a replica that swapped in a newer snapshot closes the old
	// store while stragglers may still be reading mapped label pages, and
	// unmapping under a reader would fault.
	active atomic.Int64
	// closing is set when Close begins, before it drains active; Acquire
	// fails from then on.
	closing atomic.Bool

	mu      sync.Mutex
	cache   *pageCache
	loading map[int]*pageLoad // per-page singleflight for cache misses
}

// pageLoad is one in-flight page read; concurrent readers of the same page
// wait on done instead of issuing a duplicate disk read.
type pageLoad struct {
	done chan struct{}
	page []byte
	err  error
}

type pageMeta struct {
	off    uint64
	length uint32
	crc    uint32
}

// Open maps a diagram file for querying with the default cache size. The
// file's real size is always known here, so version-2 files get their
// whole-file checksum trailer verified before the first query.
func Open(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	s, err := NewSized(f, DefaultCacheSize, fi.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	s.closer = f
	return s, nil
}

// OpenMmap opens a diagram file for zero-copy serving from a read-only
// memory map: label pages are returned as subslices of the map, with no
// page cache, no lock, and no per-read checksum — the whole-file trailer is
// verified once here, which transitively covers every page. The arena and
// points are still decoded once at open (the file is big-endian, so the
// int32 arena cannot be aliased on little-endian hosts; it is small next to
// the label pages).
//
// Fallback behavior: on platforms without mmap, on any map failure, or for
// version-1 files (no trailer, so mapped pages would skip CRC verification),
// OpenMmap degrades to the ReadAt page-cache path of Open — same answers,
// same corruption detection. No file descriptor leaks on any error path;
// Mapped reports which mode is active.
func OpenMmap(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	data, merr := mmapFile(f, fi.Size())
	if merr != nil {
		s, err := NewSized(f, DefaultCacheSize, fi.Size())
		if err != nil {
			f.Close()
			return nil, err
		}
		s.closer = f
		return s, nil
	}
	s, err := NewSized(bytes.NewReader(data), DefaultCacheSize, fi.Size())
	if err != nil {
		_ = munmapFile(data)
		f.Close()
		return nil, err
	}
	if s.version < versionLegacyCells {
		// No trailer to vouch for the map: keep the per-page-CRC path.
		_ = munmapFile(data)
		s, err = NewSized(f, DefaultCacheSize, fi.Size())
		if err != nil {
			f.Close()
			return nil, err
		}
		s.closer = f
		return s, nil
	}
	s.mapped, s.unmapper = data, munmapFile
	s.closer = f
	return s, nil
}

// New builds a Store over any ReaderAt (a file, an mmap, a byte slice via
// bytes.NewReader). When the reader can report its size — os.File via Stat,
// bytes.Reader and strings.Reader via Size — the header's declared point and
// page counts are validated against it before any buffer is allocated, so a
// corrupt or malicious header fails fast instead of triggering a multi-GB
// allocation. For readers of unknown size, use NewSized with an explicit
// hint to get the same protection.
func New(r io.ReaderAt, cacheSize int) (*Store, error) {
	size := int64(-1)
	switch sr := r.(type) {
	case interface{ Stat() (os.FileInfo, error) }:
		if fi, err := sr.Stat(); err == nil {
			size = fi.Size()
		}
	case interface{ Size() int64 }:
		size = sr.Size()
	}
	return NewSized(r, cacheSize, size)
}

// NewSized is New with an explicit reader size in bytes, bounding every
// header-derived allocation. size < 0 means unknown (no size validation
// beyond the structural header checks).
func NewSized(r io.ReaderAt, cacheSize int, size int64) (*Store, error) {
	var hdr [headerSize]byte
	if err := faultinject.Hit("store.ReadAt"); err != nil {
		return nil, fmt.Errorf("store: read header: %w", err)
	}
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("store: read header: %w", err)
	}
	if string(hdr[0:8]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, hdr[0:8])
	}
	be := binary.BigEndian
	v := be.Uint32(hdr[8:])
	if v != 1 && v != versionLegacyCells && v != versionNoEpoch && v != version {
		return nil, fmt.Errorf("store: unsupported version %d", v)
	}
	// Version-2 files carry a whole-file checksum trailer; verifying it up
	// front turns any torn or bit-flipped region — even one no query would
	// touch for days — into an immediate ErrCorrupt. Requires a known size;
	// for size-unknown readers the per-page CRCs remain the only guard.
	if v >= 2 && size >= 0 {
		if err := verifyTrailer(r, size); err != nil {
			return nil, err
		}
	}
	s := &Store{
		r:       r,
		version: int(v),
		dim:     int(be.Uint32(hdr[12:])),
		cols:    int(be.Uint32(hdr[24:])),
		rows:    int(be.Uint32(hdr[28:])),
		kind:    int(be.Uint32(hdr[60:])),
		size:    size,
	}
	hdrSize := headerSizeFor(s.version)
	if s.version >= 4 {
		// The epoch lives in the header extension; read it separately so
		// shorter-headered versions never over-read.
		var ext [headerSizeV4 - headerSize]byte
		if err := faultinject.Hit("store.ReadAt"); err != nil {
			return nil, fmt.Errorf("store: read header: %w", err)
		}
		if _, err := r.ReadAt(ext[:], headerSize); err != nil {
			return nil, fmt.Errorf("store: read header: %w", err)
		}
		s.epoch = be.Uint64(ext[0:])
	}
	if s.kind != kindQuadrant && s.kind != kindDynamic {
		return nil, fmt.Errorf("%w: unknown diagram kind %d", ErrCorrupt, s.kind)
	}
	numPoints64 := be.Uint64(hdr[16:])
	cpp := int(be.Uint32(hdr[32:]))
	if cpp != CellsPerPage {
		return nil, fmt.Errorf("store: page shape %d not supported (want %d)", cpp, CellsPerPage)
	}
	numPages64 := be.Uint64(hdr[36:])
	indexOffset := int64(be.Uint64(hdr[44:]))
	if s.cols <= 0 || s.rows <= 0 || s.dim != 2 {
		return nil, fmt.Errorf("%w: header: cols=%d rows=%d dim=%d", ErrCorrupt, s.cols, s.rows, s.dim)
	}
	// Bound every header-declared count BEFORE sizing a buffer from it: a
	// corrupt header must fail cheaply, not allocate multi-GB slices that
	// only a later CRC or grid check would reject.
	if int64(s.cols)*int64(s.rows) > math.MaxInt32 {
		return nil, fmt.Errorf("%w: header: %dx%d cells", ErrCorrupt, s.cols, s.rows)
	}
	wantPages := (s.cols*s.rows + CellsPerPage - 1) / CellsPerPage
	if numPages64 != uint64(wantPages) {
		return nil, fmt.Errorf("%w: header claims %d pages for %d cells", ErrCorrupt, numPages64, s.cols*s.rows)
	}
	s.numPages = wantPages
	recordSize := int64(8 + 8*s.dim)
	if numPoints64 > uint64((math.MaxInt64-int64(hdrSize))/recordSize) {
		return nil, fmt.Errorf("%w: header: %d points", ErrCorrupt, numPoints64)
	}
	pointsBytes := int64(numPoints64) * recordSize
	// The writer lays the index immediately after the points, so the two
	// header fields must agree — a cheap structural check that catches a
	// corrupted point count even when the reader size is unknown.
	if indexOffset != int64(hdrSize)+pointsBytes {
		return nil, fmt.Errorf("%w: header claims %d points but index offset %d (want %d)",
			ErrCorrupt, numPoints64, indexOffset, int64(hdrSize)+pointsBytes)
	}
	if size >= 0 {
		if int64(hdrSize)+pointsBytes > size {
			return nil, fmt.Errorf("%w: header claims %d points (%d bytes) but reader holds %d bytes",
				ErrCorrupt, numPoints64, pointsBytes, size)
		}
		indexBytes := int64(s.numPages) * indexEntrySz
		if indexOffset < int64(hdrSize) || indexOffset > size-indexBytes {
			return nil, fmt.Errorf("%w: header claims a %d-byte page index at offset %d but reader holds %d bytes",
				ErrCorrupt, indexBytes, indexOffset, size)
		}
	}
	numPoints := int(numPoints64)

	// Points.
	ptsBuf := make([]byte, pointsBytes)
	if err := faultinject.Hit("store.ReadAt"); err != nil {
		return nil, fmt.Errorf("store: read points: %w", err)
	}
	if _, err := r.ReadAt(ptsBuf, int64(hdrSize)); err != nil {
		return nil, fmt.Errorf("store: read points: %w", err)
	}
	s.points = make([]geom.Point, numPoints)
	off := 0
	for i := 0; i < numPoints; i++ {
		id := int64(be.Uint64(ptsBuf[off:]))
		off += 8
		coords := make([]float64, s.dim)
		for a := 0; a < s.dim; a++ {
			coords[a] = math.Float64frombits(be.Uint64(ptsBuf[off:]))
			off += 8
		}
		s.points[i] = geom.Point{ID: int(id), Coords: coords}
	}
	if s.kind == kindDynamic {
		sg := grid.NewSubGrid(s.points)
		if sg.Cols() != s.cols || sg.Rows() != s.rows {
			return nil, fmt.Errorf("%w: points imply a %dx%d subgrid, header says %dx%d",
				ErrCorrupt, sg.Cols(), sg.Rows(), s.cols, s.rows)
		}
		s.xs = make([]float64, len(sg.XLines))
		for i, l := range sg.XLines {
			s.xs[i] = l.V
		}
		s.ys = make([]float64, len(sg.YLines))
		for i, l := range sg.YLines {
			s.ys[i] = l.V
		}
	} else {
		g := grid.NewGrid(s.points)
		if g.Cols() != s.cols || g.Rows() != s.rows {
			return nil, fmt.Errorf("%w: points imply a %dx%d grid, header says %dx%d",
				ErrCorrupt, g.Cols(), g.Rows(), s.cols, s.rows)
		}
		s.xs, s.ys = g.Xs, g.Ys
	}
	s.xrank, s.yrank = grid.NewRank(s.xs), grid.NewRank(s.ys)

	// Page index.
	idxBuf := make([]byte, s.numPages*indexEntrySz)
	if err := faultinject.Hit("store.ReadAt"); err != nil {
		return nil, fmt.Errorf("store: read index: %w", err)
	}
	if _, err := r.ReadAt(idxBuf, indexOffset); err != nil {
		return nil, fmt.Errorf("store: read index: %w", err)
	}
	s.pageIndex = make([]pageMeta, s.numPages)
	for pg := 0; pg < s.numPages; pg++ {
		e := idxBuf[pg*indexEntrySz:]
		s.pageIndex[pg] = pageMeta{
			off:    be.Uint64(e),
			length: be.Uint32(e[8:]),
			crc:    be.Uint32(e[12:]),
		}
	}
	if size >= 0 {
		for pg, meta := range s.pageIndex {
			if meta.off > uint64(size) || uint64(meta.length) > uint64(size)-meta.off {
				return nil, fmt.Errorf("%w: page %d (%d bytes at offset %d) overruns the %d-byte reader",
					ErrCorrupt, pg, meta.length, meta.off, size)
			}
		}
	}
	if s.version >= 3 {
		// Label pages are fixed-size; anything else is structural damage.
		for pg, meta := range s.pageIndex {
			if meta.length != labelPageSize {
				return nil, fmt.Errorf("%w: label page %d is %d bytes (want %d)",
					ErrCorrupt, pg, meta.length, labelPageSize)
			}
		}
		last := s.pageIndex[s.numPages-1]
		if err := s.loadArena(int64(last.off)+int64(last.length), size, numPoints); err != nil {
			return nil, err
		}
	}
	if cacheSize <= 0 {
		cacheSize = DefaultCacheSize
	}
	s.cache = newPageCache(cacheSize)
	s.loading = make(map[int]*pageLoad)
	return s, nil
}

// loadArena reads, bounds-checks, and CRC-verifies the version-3 arena
// section starting at arenaOff, leaving the interned table in s.table.
func (s *Store) loadArena(arenaOff, size int64, numPoints int) error {
	be := binary.BigEndian
	var head [8]byte
	if err := faultinject.Hit("store.ReadAt"); err != nil {
		return fmt.Errorf("store: read arena: %w", err)
	}
	if _, err := s.r.ReadAt(head[:], arenaOff); err != nil {
		return fmt.Errorf("store: read arena: %w", err)
	}
	numResults := uint64(be.Uint32(head[0:]))
	totalIDs := uint64(be.Uint32(head[4:]))
	// Bound both counts before allocating: at most one result per cell, and
	// every result id names a stored point, so totalIDs ≤ results × points.
	if numResults > uint64(s.cols)*uint64(s.rows)+1 {
		return fmt.Errorf("%w: arena claims %d results for %d cells", ErrCorrupt, numResults, s.cols*s.rows)
	}
	if totalIDs > numResults*uint64(numPoints) {
		return fmt.Errorf("%w: arena claims %d ids for %d results over %d points",
			ErrCorrupt, totalIDs, numResults, numPoints)
	}
	bodyLen := 4*int64(numResults+1) + 4*int64(totalIDs) + 4
	if size >= 0 && arenaOff+8+bodyLen > size-trailerSize {
		return fmt.Errorf("%w: arena (%d bytes at offset %d) overruns the %d-byte reader",
			ErrCorrupt, 8+bodyLen, arenaOff, size)
	}
	body := make([]byte, bodyLen)
	if err := faultinject.Hit("store.ReadAt"); err != nil {
		return fmt.Errorf("store: read arena: %w", err)
	}
	if _, err := s.r.ReadAt(body, arenaOff+8); err != nil {
		return fmt.Errorf("store: read arena: %w", err)
	}
	sum := crc32.ChecksumIEEE(head[:])
	sum = crc32.Update(sum, crc32.IEEETable, body[:bodyLen-4])
	if want := be.Uint32(body[bodyLen-4:]); sum != want {
		return fmt.Errorf("%w: arena checksum mismatch", ErrCorrupt)
	}
	offsets := make([]uint32, numResults+1)
	off := 0
	for i := range offsets {
		offsets[i] = be.Uint32(body[off:])
		off += 4
	}
	ids := make([]int32, totalIDs)
	for i := range ids {
		ids[i] = int32(be.Uint32(body[off:]))
		off += 4
	}
	t, ok := resultset.NewTable(offsets, ids)
	if !ok {
		return fmt.Errorf("%w: arena offsets are not a valid CSR table", ErrCorrupt)
	}
	s.table = t
	return nil
}

// Close releases the memory map (if any) and the underlying file when the
// store owns one. In-flight readers and Acquire holds are drained first
// (bounded wait), so a replica may swap a newer snapshot in and close this
// one while stragglers are still reading mapped pages — they finish against
// the live mapping, then the map is released.
func (s *Store) Close() error {
	s.closing.Store(true)
	// Drain active readers before unmapping. The wait is bounded: queries
	// are microseconds, so exhausting it means a stuck reader — at that
	// point leaking the map briefly beats faulting it.
	for i := 0; s.active.Load() != 0 && i < 4000; i++ {
		time.Sleep(500 * time.Microsecond)
	}
	var err error
	if s.mapped != nil && s.unmapper != nil {
		err = s.unmapper(s.mapped)
		s.mapped = nil
	}
	if s.closer != nil {
		if cerr := s.closer.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Points returns the stored dataset.
func (s *Store) Points() []geom.Point { return s.points }

// NumCells returns the diagram size.
func (s *Store) NumCells() int { return s.cols * s.rows }

// Epoch returns the replication epoch stamped by the builder that published
// this snapshot, or 0 for pre-epoch (version <= 3) files.
func (s *Store) Epoch() uint64 { return s.epoch }

// Acquire holds the store against Close, which waits for the matching
// Release before it unmaps, and reports false — holding nothing — once
// Close has begun. A reader that got the store from a snapshot another
// goroutine may retire (swap out, then Close) must acquire it before
// touching it: a read that merely started before Close could otherwise
// reach the store after the unmap. Close sets its flag before it drains,
// so an acquire either is counted before the drain or sees the flag.
func (s *Store) Acquire() bool {
	s.active.Add(1)
	if s.closing.Load() {
		s.active.Add(-1)
		return false
	}
	return true
}

// Release ends a hold taken by Acquire.
func (s *Store) Release() { s.active.Add(-1) }

// WithBytes calls fn with the complete file bytes — what a relay serves,
// hashes and patches against. A mapped store lends its mapping itself,
// counted as an in-flight reader so Close waits for fn to return before
// unmapping; fn must not retain the slice. A store without a mapping reads
// a fresh copy of its file. Requires the file size to have been known at
// open (Open, OpenMmap, or a sized reader). Like a query, WithBytes does
// not refuse a store whose Close has begun; callers that may race Close
// hold Acquire around it.
func (s *Store) WithBytes(fn func(data []byte) error) error {
	if s.size < 0 {
		return errors.New("store: snapshot size unknown; cannot re-stream")
	}
	s.active.Add(1)
	defer s.active.Add(-1)
	if s.mapped != nil {
		return fn(s.mapped)
	}
	data := make([]byte, s.size)
	if _, err := s.r.ReadAt(data, 0); err != nil {
		return fmt.Errorf("store: read snapshot: %w", err)
	}
	return fn(data)
}

// Kind returns the stored diagram kind, "quadrant" or "dynamic".
func (s *Store) Kind() string {
	if s.kind == kindDynamic {
		return "dynamic"
	}
	return "quadrant"
}

// Mapped reports whether the store serves from a memory map (OpenMmap
// succeeded) rather than the ReadAt page cache.
func (s *Store) Mapped() bool { return s.mapped != nil }

// LocateXY returns the cell indices containing (x, y), O(1) via the rank
// tables. The boundary conventions match the in-memory grids exactly.
func (s *Store) LocateXY(x, y float64) (i, j int) {
	return s.xrank.Rank(x), s.yrank.Rank(y)
}

// Query answers a skyline query from the file.
func (s *Store) Query(q geom.Point) ([]int32, error) {
	i, j := s.LocateXY(q.X(), q.Y())
	return s.Cell(i, j)
}

// QueryXY answers a skyline query without the geom.Point wrapper or an
// error return — the serving hot path. Version-3 stores answer with zero
// allocations (the result aliases the shared arena); on a mapped store the
// whole path is lock-free. A nil result means an empty skyline; read errors
// on the ReadAt path also surface as nil (the paths that can fail per-read
// are exercised through Query/Cell, which report them).
func (s *Store) QueryXY(x, y float64) []int32 {
	s.active.Add(1)
	defer s.active.Add(-1)
	i, j := s.LocateXY(x, y)
	cell := i*s.rows + j
	if s.mapped != nil && s.version >= 3 {
		meta := s.pageIndex[cell/CellsPerPage]
		page := s.mapped[meta.off : meta.off+uint64(meta.length)]
		label := binary.BigEndian.Uint32(page[4*(cell%CellsPerPage):])
		if label == noCell || int(label) >= s.table.NumResults() {
			return nil
		}
		return s.table.Result(label)
	}
	ids, err := s.Cell(i, j)
	if err != nil {
		return nil
	}
	return ids
}

// Cell reads the result of cell (i, j). For version-3 files the returned
// slice aliases the shared arena and must not be modified; earlier formats
// decode a fresh slice from the page payload.
func (s *Store) Cell(i, j int) ([]int32, error) {
	s.active.Add(1)
	defer s.active.Add(-1)
	if i < 0 || j < 0 || i >= s.cols || j >= s.rows {
		return nil, fmt.Errorf("store: cell (%d,%d) out of range %dx%d", i, j, s.cols, s.rows)
	}
	cellIdx := i*s.rows + j
	pg := cellIdx / CellsPerPage
	local := cellIdx % CellsPerPage
	page, err := s.page(pg)
	if err != nil {
		return nil, err
	}
	be := binary.BigEndian
	if s.version >= 3 {
		label := be.Uint32(page[4*local:])
		if label == noCell {
			return nil, fmt.Errorf("store: page %d has no cell %d", pg, local)
		}
		if int(label) >= s.table.NumResults() {
			return nil, fmt.Errorf("%w: cell %d label %d out of range (%d results)",
				ErrCorrupt, cellIdx, label, s.table.NumResults())
		}
		return s.table.Result(label), nil
	}
	off := be.Uint32(page[4*local:])
	if off == 0xFFFFFFFF || int(off)+4 > len(page) {
		return nil, fmt.Errorf("store: page %d has no cell %d", pg, local)
	}
	count := be.Uint32(page[off:])
	if int(off)+4+4*int(count) > len(page) {
		return nil, fmt.Errorf("store: cell %d payload overruns page %d", local, pg)
	}
	ids := make([]int32, count)
	for k := range ids {
		ids[k] = int32(be.Uint32(page[int(off)+4+4*k:]))
	}
	return ids, nil
}

// page returns the decoded page, loading it on a cache miss. The store
// mutex covers only cache bookkeeping: the disk read and CRC verification
// run outside it, so readers of distinct pages proceed concurrently, and a
// per-page singleflight ensures concurrent readers of the SAME page share
// one disk read instead of duplicating it.
func (s *Store) page(pg int) ([]byte, error) {
	if s.mapped != nil {
		meta := s.pageIndex[pg]
		return s.mapped[meta.off : meta.off+uint64(meta.length)], nil
	}
	s.mu.Lock()
	if b, ok := s.cache.get(pg); ok {
		s.mu.Unlock()
		return b, nil
	}
	if l, ok := s.loading[pg]; ok {
		s.mu.Unlock()
		<-l.done
		return l.page, l.err
	}
	l := &pageLoad{done: make(chan struct{})}
	s.loading[pg] = l
	s.mu.Unlock()

	l.page, l.err = s.loadPage(pg)

	s.mu.Lock()
	if l.err == nil {
		s.cache.put(pg, l.page)
	}
	delete(s.loading, pg)
	s.mu.Unlock()
	close(l.done)
	return l.page, l.err
}

// loadPage reads and CRC-verifies one page from the underlying reader.
func (s *Store) loadPage(pg int) ([]byte, error) {
	meta := s.pageIndex[pg]
	buf := make([]byte, meta.length)
	if err := faultinject.Hit("store.page.read"); err != nil {
		return nil, fmt.Errorf("store: read page %d: %w", pg, err)
	}
	if _, err := s.r.ReadAt(buf, int64(meta.off)); err != nil {
		return nil, fmt.Errorf("store: read page %d: %w", pg, err)
	}
	if err := faultinject.Hit("store.page.crc"); err != nil {
		return nil, fmt.Errorf("%w: page %d checksum mismatch (%v)", ErrCorrupt, pg, err)
	}
	if got := crc32.ChecksumIEEE(buf); got != meta.crc {
		return nil, fmt.Errorf("%w: page %d checksum mismatch", ErrCorrupt, pg)
	}
	return buf, nil
}

// verifyTrailer checks a version-2 file's whole-payload checksum against its
// trailer. Checksum or structure problems wrap ErrCorrupt; read failures are
// returned as plain I/O errors.
func verifyTrailer(r io.ReaderAt, size int64) error {
	if size < headerSize+trailerSize {
		return fmt.Errorf("%w: %d bytes is too small for a trailer", ErrCorrupt, size)
	}
	var tr [trailerSize]byte
	if err := faultinject.Hit("store.ReadAt"); err != nil {
		return fmt.Errorf("store: read trailer: %w", err)
	}
	if _, err := r.ReadAt(tr[:], size-trailerSize); err != nil {
		return fmt.Errorf("store: read trailer: %w", err)
	}
	if string(tr[0:8]) != trailerMagic {
		return fmt.Errorf("%w: missing trailer (torn write?)", ErrCorrupt)
	}
	want := binary.BigEndian.Uint32(tr[8:])
	sum := crc32.NewIEEE()
	buf := make([]byte, 256<<10)
	for off := int64(0); off < size-trailerSize; {
		n := int64(len(buf))
		if rest := size - trailerSize - off; rest < n {
			n = rest
		}
		if err := faultinject.Hit("store.ReadAt"); err != nil {
			return fmt.Errorf("store: verify read at %d: %w", off, err)
		}
		if _, err := r.ReadAt(buf[:n], off); err != nil {
			return fmt.Errorf("store: verify read at %d: %w", off, err)
		}
		sum.Write(buf[:n])
		off += n
	}
	if sum.Sum32() != want {
		return fmt.Errorf("%w: full-file checksum mismatch", ErrCorrupt)
	}
	return nil
}

// QueryBatch answers many queries with page-ordered access: queries are
// grouped by the page their cell lives on, so each page is loaded and
// checksummed at most once per batch even when the cache is cold or smaller
// than the working set. Results are returned in input order.
func (s *Store) QueryBatch(qs []geom.Point) ([][]int32, error) {
	type slot struct {
		cell int
		out  int
	}
	byPage := make(map[int][]slot)
	for k, q := range qs {
		i, j := s.LocateXY(q.X(), q.Y())
		cell := i*s.rows + j
		pg := cell / CellsPerPage
		byPage[pg] = append(byPage[pg], slot{cell: cell, out: k})
	}
	pages := make([]int, 0, len(byPage))
	for pg := range byPage {
		pages = append(pages, pg)
	}
	sortInts(pages)
	results := make([][]int32, len(qs))
	for _, pg := range pages {
		for _, sl := range byPage[pg] {
			ids, err := s.Cell(sl.cell/s.rows, sl.cell%s.rows)
			if err != nil {
				return nil, err
			}
			results[sl.out] = ids
		}
	}
	return results, nil
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// CacheStats reports cache effectiveness.
func (s *Store) CacheStats() (hits, misses int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.hits, s.cache.misses
}

// --- LRU page cache ----------------------------------------------------------

type cacheNode struct {
	key        int
	page       []byte
	prev, next *cacheNode
}

type pageCache struct {
	capacity     int
	m            map[int]*cacheNode
	head, tail   *cacheNode // head = most recent
	hits, misses int64
}

func newPageCache(capacity int) *pageCache {
	return &pageCache{capacity: capacity, m: make(map[int]*cacheNode, capacity)}
}

func (c *pageCache) get(key int) ([]byte, bool) {
	n, ok := c.m[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.moveToFront(n)
	return n.page, true
}

func (c *pageCache) put(key int, page []byte) {
	if n, ok := c.m[key]; ok {
		n.page = page
		c.moveToFront(n)
		return
	}
	n := &cacheNode{key: key, page: page}
	c.m[key] = n
	c.pushFront(n)
	if len(c.m) > c.capacity {
		evict := c.tail
		c.unlink(evict)
		delete(c.m, evict.key)
	}
}

func (c *pageCache) pushFront(n *cacheNode) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *pageCache) unlink(n *cacheNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *pageCache) moveToFront(n *cacheNode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}
