package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"repro/internal/geom"
	"repro/internal/quaddiag"
	"repro/internal/resultset"
)

// chunkSize is the buffer a streamed file passes through on its way to a
// writer. It bounds what a publish, a poll or a checkpoint allocates for the
// file's bytes, whatever the file's size.
const chunkSize = 32 << 10

// Encoder streams one diagram's version-4 file in file order. Every
// section's size follows from the diagram's counts, which NewEncoder takes
// in one pass over the cell labels, so the file's size and every offset are
// known before the first byte is written; the index's per-page CRCs come
// from encoding each label page once into page-sized scratch ahead of the
// pages themselves.
//
// The file is canonical: labels are numbered in first-use order over the
// cells and the arena holds exactly the results some cell references, in
// that order. A fresh build's table already is (canonical) and is written
// verbatim. A maintained one is put into that order as it is written,
// through a first-use remap array of one uint32 per table result — never a
// re-freeze or an intermediate copy of the table — so persisting a
// maintained snapshot produces the bytes a from-scratch rebuild would, and
// never writes maintenance garbage (whose result count can exceed the cell
// count and would be rejected as corrupt on open).
//
// The encoder reads the cell labels a page at a time, in file order,
// through the diagram's label tiles (quaddiag.Diagram.CellLabels) into one
// page of scratch each stream holds, so no encode builds a flat label
// array. An Encoder reads the diagram each time it writes, and the diagram
// must not change meanwhile; the diagrams this package encodes never do.
// Once built, an Encoder is never written again: any number of streams may
// run through it at once, each with its own chunk and page scratch.
type Encoder struct {
	quad  *quaddiag.Diagram
	table *resultset.Table // quad.Results()
	// remap[l] is old label l's canonical label + 1 (0: no cell uses it);
	// nil when the table is canonical already.
	remap []uint32
	epoch uint64

	numResults, numIDs, numPages           int
	indexOff, pagesOff, arenaOff, arenaEnd int
}

// NewEncoder prepares the version-4 file of a quadrant diagram stamped with
// a replication epoch: the bytes every writer emits.
func NewEncoder(d *quaddiag.Diagram, epoch uint64) (*Encoder, error) {
	cells := d.Grid.NumCells()
	if cells == 0 {
		return nil, fmt.Errorf("store: diagram has no cells")
	}
	table := d.Results()
	e := &Encoder{
		quad: d, table: table, epoch: epoch,
		numResults: table.NumResults(), numIDs: table.ArenaLen(),
		numPages: (cells + CellsPerPage - 1) / CellsPerPage,
	}
	var page [CellsPerPage]uint32
	if !e.canonical(&page) {
		e.remap = make([]uint32, table.NumResults())
		e.numResults, e.numIDs = 0, 0
		for pg := 0; pg < e.numPages; pg++ {
			for _, l := range e.labels(&page, pg) {
				if e.remap[l] == 0 {
					e.numResults++
					e.remap[l] = uint32(e.numResults)
					e.numIDs += table.Len(l)
				}
			}
		}
	}
	e.indexOff = headerSize + len(d.Points)*(8+8*dimOf(d.Points))
	e.pagesOff = e.indexOff + e.numPages*indexEntrySz
	e.arenaOff = e.pagesOff + e.numPages*labelPageSize
	e.arenaEnd = e.arenaOff + 8 + 4*(e.numResults+1) + 4*e.numIDs
	return e, nil
}

// labels reads the labels of page pg's cells, as the table numbers them,
// into page, the caller's scratch.
func (e *Encoder) labels(page *[CellsPerPage]uint32, pg int) []uint32 {
	return page[:e.quad.CellLabels(page[:], pg*CellsPerPage)]
}

// canonical reports whether the cells reference every table result exactly
// in first-appearance order — the shape a fresh build's freeze produces. A
// maintained (copy-on-write updated) diagram fails this: its arena carries
// garbage results no cell references anymore, and its labels are not in
// first-use order.
func (e *Encoder) canonical(page *[CellsPerPage]uint32) bool {
	next := uint32(0)
	for pg := 0; pg < e.numPages; pg++ {
		for _, l := range e.labels(page, pg) {
			if l == next {
				next++
			} else if l > next {
				return false
			}
		}
	}
	return int(next) == e.table.NumResults()
}

// Size returns the length of the file in bytes.
func (e *Encoder) Size() int64 { return int64(e.arenaEnd + 4 + trailerSize) }

// chunks recycles WriteTo's chunkSize buffers, stored as *[]byte so Put
// does not allocate.
var chunks = sync.Pool{New: func() any {
	b := make([]byte, chunkSize)
	return &b
}}

// WriteTo writes the file to w through one chunkSize buffer, taken from a
// pool. It implements io.WriterTo.
func (e *Encoder) WriteTo(w io.Writer) (int64, error) {
	bp := chunks.Get().(*[]byte)
	fw := fileWriter{w: w, buf: *bp}
	e.emit(&fw)
	chunks.Put(bp)
	return fw.written, fw.err
}

// Manifest returns the file's delta manifest — NewManifest of its bytes —
// hashing the pages as the file streams by instead of holding it.
func (e *Encoder) Manifest() (*Manifest, error) {
	mw := newManifestWriter(e.sections(), e.epoch)
	if _, err := e.WriteTo(mw); err != nil {
		return nil, err
	}
	return mw.manifest()
}

// sections returns the file's delta sections, the split deltaSections reads
// back from the bytes.
func (e *Encoder) sections() [deltaNumSections]deltaSection {
	idsOff := e.arenaOff + 8 + 4*(e.numResults+1)
	bounds := [deltaNumSections + 1]int{0, headerSize, e.indexOff, e.pagesOff, e.arenaOff, idsOff, int(e.Size())}
	var secs [deltaNumSections]deltaSection
	for i := range secs {
		secs[i] = deltaSection{off: int64(bounds[i]), len: int64(bounds[i+1] - bounds[i])}
	}
	return secs
}

// emit writes the whole file through fw in file order: header, points, page
// index, label pages, arena, trailer.
func (e *Encoder) emit(fw *fileWriter) {
	be := binary.BigEndian
	h := fw.room(headerSize)
	clear(h)
	copy(h[0:8], magic)
	be.PutUint32(h[8:], version)
	pts := e.quad.Points
	be.PutUint32(h[12:], uint32(dimOf(pts)))
	be.PutUint64(h[16:], uint64(len(pts)))
	be.PutUint32(h[24:], uint32(e.quad.Grid.Cols()))
	be.PutUint32(h[28:], uint32(e.quad.Grid.Rows()))
	be.PutUint32(h[32:], CellsPerPage)
	be.PutUint64(h[36:], uint64(e.numPages))
	be.PutUint64(h[44:], uint64(e.indexOff))
	be.PutUint64(h[52:], uint64(e.pagesOff))
	be.PutUint32(h[60:], kindQuadrant)
	be.PutUint64(h[64:], e.epoch)
	fw.commit(headerSize)
	for _, p := range pts {
		fw.u64(uint64(int64(p.ID)))
		for _, c := range p.Coords {
			fw.u64(math.Float64bits(c))
		}
	}

	// The index entry of a page carries its CRC: encode the page into the
	// room past the pending bytes, checksum it, and let the entry overwrite
	// it. The page is encoded again, for good, in its own section.
	for pg := 0; pg < e.numPages; pg++ {
		crc := crc32.ChecksumIEEE(e.putPage(fw.room(labelPageSize), &fw.page, pg))
		ent := fw.room(indexEntrySz)
		be.PutUint64(ent, uint64(e.pagesOff+pg*labelPageSize))
		be.PutUint32(ent[8:], labelPageSize)
		be.PutUint32(ent[12:], crc)
		fw.commit(indexEntrySz)
	}
	for pg := 0; pg < e.numPages; pg++ {
		e.putPage(fw.room(labelPageSize), &fw.page, pg)
		fw.commit(labelPageSize)
	}

	// Arena: #results, #ids, offsets, ids, section crc32.
	fw.beginSection()
	fw.u32(uint32(e.numResults))
	fw.u32(uint32(e.numIDs))
	if e.remap == nil {
		putAll(fw, e.table.Offsets())
		putAll(fw, e.table.IDs())
	} else {
		// Labels were numbered in first-use order, so a pass over the cells
		// meets each result's first use exactly when its new label comes up
		// next: one pass writes the offsets, a second the ids.
		fw.u32(0)
		n := uint32(0)
		e.eachFirstUse(&fw.page, func(l uint32) {
			n += uint32(e.table.Len(l))
			fw.u32(n)
		})
		e.eachFirstUse(&fw.page, func(l uint32) { putAll(fw, e.table.Result(l)) })
	}
	fw.u32(fw.endSection())

	crc := fw.sum()
	t := fw.room(trailerSize)
	copy(t, trailerMagic)
	be.PutUint32(t[8:], crc)
	fw.commit(trailerSize)
	fw.flush()
}

// eachFirstUse calls f with every result's label in canonical order: a pass
// over the cells meets each result's first use exactly when its canonical
// label comes up next.
func (e *Encoder) eachFirstUse(page *[CellsPerPage]uint32, f func(l uint32)) {
	next := uint32(1)
	for pg := 0; pg < e.numPages && int(next) <= e.numResults; pg++ {
		for _, l := range e.labels(page, pg) {
			if e.remap[l] == next {
				f(l)
				next++
			}
		}
	}
}

// putPage encodes label page pg into page and returns it, reading the
// labels through scratch.
func (e *Encoder) putPage(page []byte, scratch *[CellsPerPage]uint32, pg int) []byte {
	be := binary.BigEndian
	cells := e.labels(scratch, pg)
	if e.remap == nil {
		for i, l := range cells {
			be.PutUint32(page[4*i:], l)
		}
	} else {
		for i, l := range cells {
			be.PutUint32(page[4*i:], e.remap[l]-1)
		}
	}
	for i := len(cells); i < CellsPerPage; i++ {
		be.PutUint32(page[4*i:], noCell)
	}
	return page
}

// fileWriter emits a file's bytes in order and keeps their CRC32 for the
// arena's and the trailer's checksums. The bytes pass through buf, a chunk
// flushed to w whenever it fills. It is one stream's state, so it holds the
// stream's page of label scratch too.
type fileWriter struct {
	w    io.Writer
	buf  []byte
	page [CellsPerPage]uint32 // scratch for one page of the diagram's labels
	// buf[:n] is pending; buf[:folded] is covered by crc (and by secCRC,
	// in a section). Lengths, not reslices, so that emitting a value
	// writes no pointer.
	n, folded   int
	crc, secCRC uint32
	inSection   bool
	written     int64 // bytes accepted by w
	err         error // the first error from w; later bytes are dropped
}

// room returns the n bytes past the pending ones, flushing first when the
// chunk cannot hold them. Nothing is emitted until commit.
func (fw *fileWriter) room(n int) []byte {
	if fw.n+n > len(fw.buf) {
		fw.flush()
	}
	return fw.buf[fw.n : fw.n+n]
}

// commit emits the first n bytes of the last room.
func (fw *fileWriter) commit(n int) { fw.n += n }

func (fw *fileWriter) u32(v uint32) {
	if fw.n+4 > len(fw.buf) {
		fw.flush()
	}
	binary.BigEndian.PutUint32(fw.buf[fw.n:], v)
	fw.n += 4
}

func (fw *fileWriter) u64(v uint64) {
	if fw.n+8 > len(fw.buf) {
		fw.flush()
	}
	binary.BigEndian.PutUint64(fw.buf[fw.n:], v)
	fw.n += 8
}

// putAll emits vs as big-endian uint32s, a chunk's worth at a time.
func putAll[T int32 | uint32](fw *fileWriter, vs []T) {
	for len(vs) > 0 {
		k := min(len(vs), (len(fw.buf)-fw.n)/4)
		if k == 0 {
			fw.flush()
			continue
		}
		b := fw.buf[fw.n : fw.n+4*k]
		for i, v := range vs[:k] {
			binary.BigEndian.PutUint32(b[4*i:], uint32(v))
		}
		fw.n += 4 * k
		vs = vs[k:]
	}
}

// fold brings the checksums up to the bytes emitted so far.
func (fw *fileWriter) fold() {
	p := fw.buf[fw.folded:fw.n]
	fw.crc = crc32.Update(fw.crc, crc32.IEEETable, p)
	if fw.inSection {
		fw.secCRC = crc32.Update(fw.secCRC, crc32.IEEETable, p)
	}
	fw.folded = fw.n
}

// sum returns the CRC32 of every byte emitted so far.
func (fw *fileWriter) sum() uint32 {
	fw.fold()
	return fw.crc
}

// beginSection starts a section checksum at the next byte emitted.
func (fw *fileWriter) beginSection() {
	fw.fold()
	fw.inSection, fw.secCRC = true, 0
}

// endSection returns the CRC32 of the bytes emitted since beginSection.
func (fw *fileWriter) endSection() uint32 {
	fw.fold()
	fw.inSection = false
	return fw.secCRC
}

// flush hands the pending bytes to w and empties the chunk.
func (fw *fileWriter) flush() {
	fw.fold()
	if fw.err == nil {
		var k int
		k, fw.err = fw.w.Write(fw.buf[:fw.n])
		fw.written += int64(k)
	}
	fw.n, fw.folded = 0, 0
}

// WriteEpoch writes a quadrant diagram's file to w, stamped with a
// replication epoch — the builder's snapshot generation, negotiated by
// replicas.
func WriteEpoch(w io.Writer, d *quaddiag.Diagram, epoch uint64) error {
	e, err := NewEncoder(d, epoch)
	if err != nil {
		return err
	}
	return e.writeFile(w)
}

// writeFile writes the file to w through a pageTearer, so that the
// store.write.page failpoint can tear it.
func (e *Encoder) writeFile(w io.Writer) error {
	_, err := e.WriteTo(&pageTearer{w: w, page: int64(e.pagesOff), end: int64(e.arenaOff)})
	return err
}

func dimOf(pts []geom.Point) int {
	if len(pts) == 0 {
		return 2
	}
	return pts[0].Dim()
}
