// Delta snapshots: page-level diffs between two canonical store files.
//
// The canonical persist (the encoder writes the points in id order, numbers
// labels in first-use order and writes only the results some cell
// references) guarantees that the same point set, its points in id order,
// serializes to the same bytes no matter what maintenance history produced
// it, so a byte diff between two epochs is well-defined. A Manifest
// records per-page hashes of one epoch's file; Delta emits only the pages
// whose hash changed between two manifests, plus whatever tail a grown
// section added; ApplyDelta patches a base file into the new file and
// refuses the result unless its whole-file CRC matches the one the encoder
// saw. Each step also runs over a file streamed in order: the manifest as
// an encoder writes the file (Encoder.Manifest), the delta as the file
// passes through a DeltaWriter, and the patched file as ApplyDeltaTo writes
// it out, so none needs a buffer of the whole file.
//
// Pages are hashed per *section* (header, points, index, label pages, arena
// offsets table, arena ids+trailer), not over raw file offsets: a single
// insert grows the points section by one record, which shifts every later
// section by a few bytes. A flat page grid would see every page after that
// shift as changed; a section-relative grid keeps untouched label pages
// byte-aligned with their base-epoch counterparts, which is where the
// dataset-sized bulk of the file lives. The arena is split at the
// offsets/ids boundary for the same reason one level down: interning one new
// result list appends to BOTH arrays, and treating the arena as one section
// would let the 4-byte offsets growth shift the entire ids array — the
// single largest section — off its page grid.
//
// Hash collisions cannot corrupt a replica: a colliding page would be omitted
// from the delta, the patched file's CRC would not match the manifest CRC, and
// ApplyDelta rejects the patch (the caller then falls back to a full fetch).
// A patch that somehow survived ApplyDelta still has to pass the store's own
// CRC trailer at OpenMmap, exactly like a downloaded file.
package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	deltaMagic = "SKYDELT1"
	// DeltaPageSize is the diff granularity in bytes. 4 KiB keeps manifests
	// at ~0.2% of the file (one uint64 hash per page) while a one-cell churn
	// still ships kilobytes, not the dataset.
	DeltaPageSize = 4096

	deltaVersion     = 1
	deltaNumSections = 6
	// deltaHdrSize: magic(8) version(4) from(8) to(8) pageSize(4)
	// baseSize(8) baseCRC(4) newSize(8) newCRC(4) numSections(4)
	// + numSections * (baseOff,baseLen,newOff,newLen)(32) + numChanged(4).
	deltaHdrSize = 8 + 4 + 8 + 8 + 4 + 8 + 4 + 8 + 4 + 4 + deltaNumSections*32 + 4
)

// Manifest is the per-epoch page-hash summary a snapshot publisher retains so
// later requests can be answered with a delta. It holds no file bytes: for a
// 4 KiB page size it costs ~0.2% of the file it describes.
type Manifest struct {
	Epoch uint64 // replication epoch from the header
	Size  int64  // total file size in bytes
	CRC   uint32 // CRC32 (IEEE) of the entire file

	secs   [deltaNumSections]deltaSection
	hashes [deltaNumSections][]uint64
}

type deltaSection struct {
	off int64
	len int64
}

// NewManifest parses the section boundaries out of a serialized store file
// and hashes its pages. A file of another format version is refused, with
// the same unsupported-version error New gives.
func NewManifest(data []byte) (*Manifest, error) {
	secs, epoch, err := deltaSections(data)
	if err != nil {
		return nil, err
	}
	mw := newManifestWriter(secs, epoch)
	mw.Write(data)
	return mw.manifest()
}

// manifestWriter hashes a file's pages as its bytes stream through Write in
// file order, the section boundaries being known up front.
type manifestWriter struct {
	m   *Manifest
	off int64  // bytes written so far
	sec int    // the section off is in
	h   uint64 // FNV-1a of the current page's bytes so far
}

func newManifestWriter(secs [deltaNumSections]deltaSection, epoch uint64) *manifestWriter {
	last := secs[deltaNumSections-1]
	m := &Manifest{Epoch: epoch, Size: last.off + last.len, secs: secs}
	var pages int64
	for _, sec := range secs {
		pages += deltaPageCount(sec.len)
	}
	hashes := make([]uint64, pages)
	for s, sec := range secs {
		n := deltaPageCount(sec.len)
		m.hashes[s], hashes = hashes[:n:n], hashes[n:]
	}
	return &manifestWriter{m: m, h: fnvOffset}
}

// Write hashes p. Bytes past the manifest's size are counted, not hashed,
// and fail manifest.
func (mw *manifestWriter) Write(p []byte) (int, error) {
	mw.m.CRC = crc32.Update(mw.m.CRC, crc32.IEEETable, p)
	n := len(p)
	for len(p) > 0 {
		for mw.sec < deltaNumSections && mw.off == mw.m.secs[mw.sec].off+mw.m.secs[mw.sec].len {
			mw.sec++
		}
		if mw.sec == deltaNumSections {
			mw.off += int64(len(p))
			break
		}
		sec := mw.m.secs[mw.sec]
		rel := mw.off - sec.off
		page := rel / DeltaPageSize
		k := min(int64(len(p)), deltaPageEnd(sec.len, page)-rel)
		mw.h = fnvUpdate(mw.h, p[:k])
		mw.off += k
		p = p[k:]
		if rel+k == deltaPageEnd(sec.len, page) {
			mw.m.hashes[mw.sec][page] = mw.h
			mw.h = fnvOffset
		}
	}
	return n, nil
}

// manifest returns the manifest once exactly the file's bytes were written.
func (mw *manifestWriter) manifest() (*Manifest, error) {
	if mw.off != mw.m.Size {
		return nil, fmt.Errorf("store: manifest: %d bytes written for a %d-byte file", mw.off, mw.m.Size)
	}
	return mw.m, nil
}

// deltaSections splits a store file into the six delta sections:
// header | points | index | label pages | arena offsets | arena ids+trailer.
func deltaSections(data []byte) (secs [deltaNumSections]deltaSection, epoch uint64, err error) {
	if err := checkHead(data); err != nil {
		return secs, 0, err
	}
	be := binary.BigEndian
	size := int64(len(data))
	numPages := int64(be.Uint64(data[36:]))
	indexOff := int64(be.Uint64(data[44:]))
	pagesOff := int64(be.Uint64(data[52:]))
	arenaOff := pagesOff + numPages*labelPageSize
	if k := be.Uint32(data[60:]); k != kindQuadrant {
		return secs, 0, fmt.Errorf("%w: delta: unknown kind %d", ErrCorrupt, k)
	}
	epoch = be.Uint64(data[64:])
	// The arena opens with #results, #ids; the offsets table (#results+1
	// uint32s) follows, then the ids array. Splitting there keeps an appended
	// result from shifting the ids array off its page grid.
	if arenaOff < 0 || arenaOff+8 > size {
		return secs, 0, fmt.Errorf("%w: delta: arena offset %d outside %d-byte file", ErrCorrupt, arenaOff, size)
	}
	idsOff := arenaOff + 8 + 4*(int64(be.Uint32(data[arenaOff:]))+1)
	bounds := [deltaNumSections + 1]int64{0, headerSize, indexOff, pagesOff, arenaOff, idsOff, size}
	for i := 0; i < deltaNumSections; i++ {
		if bounds[i+1] < bounds[i] || bounds[i+1] > size {
			return secs, 0, fmt.Errorf("%w: delta: section bounds %v out of order for %d-byte file", ErrCorrupt, bounds, size)
		}
		secs[i] = deltaSection{off: bounds[i], len: bounds[i+1] - bounds[i]}
	}
	return secs, epoch, nil
}

func deltaPageCount(secLen int64) int64 {
	return (secLen + DeltaPageSize - 1) / DeltaPageSize
}

// deltaPageEnd returns the exclusive end offset (section-relative) of page p.
func deltaPageEnd(secLen, p int64) int64 {
	end := (p + 1) * DeltaPageSize
	if end > secLen {
		end = secLen
	}
	return end
}

// Page hashes are FNV-1a 64 — cheap, and any collision is caught by the
// whole-file CRC check in ApplyDelta.
const fnvOffset = 14695981039346656037

// fnvUpdate continues an FNV-1a 64 hash over b.
func fnvUpdate(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// Delta encodes the patch that turns base's file into cur's file, where data
// is cur's complete serialized bytes (the encoder needs the actual changed
// page contents, not just their hashes), and must be the file cur describes.
// The caller decides whether the result is worth shipping: a near-total
// rewrite can come out larger than the full file.
func Delta(base, cur *Manifest, data []byte) ([]byte, error) {
	dw := NewDeltaWriter(base, cur)
	dw.Write(data)
	return dw.Bytes()
}

// DeltaWriter builds the delta from base's file to cur's while cur's file
// streams through Write in file order, keeping only the pages the two
// manifests mark as changed. Its one buffer is the delta itself, allocated
// at the first Write, so Len — known from the manifests alone — can decide
// whether the delta is worth building before anything is allocated. Bytes
// checks the streamed bytes against cur's size and CRC, so a delta is only
// ever built from the file cur was hashed from.
type DeltaWriter struct {
	base, cur *Manifest
	size      int64
	out       []byte // nil until the first Write
	// changes are cur's changed pages in file order; next is the first one
	// the stream has not yet passed.
	changes []deltaChange
	next    int
	off     int64 // bytes written so far
	crc     uint32
}

// deltaChange is one changed page: its section and page number, its byte
// range in cur's file, and where its payload goes in the delta.
type deltaChange struct {
	sec                   int
	page, start, end, pos int64
}

// NewDeltaWriter lays out the delta from base to cur.
func NewDeltaWriter(base, cur *Manifest) *DeltaWriter {
	dw := &DeltaWriter{base: base, cur: cur, size: deltaHdrSize}
	for s := 0; s < deltaNumSections; s++ {
		cs, bs := cur.secs[s], base.secs[s]
		for p := int64(0); p < deltaPageCount(cs.len); p++ {
			curLen := deltaPageEnd(cs.len, p) - p*DeltaPageSize
			same := p < int64(len(base.hashes[s])) &&
				deltaPageEnd(bs.len, p)-p*DeltaPageSize == curLen &&
				base.hashes[s][p] == cur.hashes[s][p]
			if !same {
				start := cs.off + p*DeltaPageSize
				dw.changes = append(dw.changes, deltaChange{s, p, start, start + curLen, dw.size + 12})
				dw.size += 12 + curLen
			}
		}
	}
	return dw
}

// Len returns the length of the delta in bytes.
func (dw *DeltaWriter) Len() int { return int(dw.size) }

// alloc allocates the delta and writes everything but the pages' payloads,
// which arrive with the stream.
func (dw *DeltaWriter) alloc() {
	be := binary.BigEndian
	base, cur := dw.base, dw.cur
	out := make([]byte, 0, dw.size)
	out = append(out, deltaMagic...)
	out = be.AppendUint32(out, deltaVersion)
	out = be.AppendUint64(out, base.Epoch)
	out = be.AppendUint64(out, cur.Epoch)
	out = be.AppendUint32(out, DeltaPageSize)
	out = be.AppendUint64(out, uint64(base.Size))
	out = be.AppendUint32(out, base.CRC)
	out = be.AppendUint64(out, uint64(cur.Size))
	out = be.AppendUint32(out, cur.CRC)
	out = be.AppendUint32(out, deltaNumSections)
	for s := 0; s < deltaNumSections; s++ {
		out = be.AppendUint64(out, uint64(base.secs[s].off))
		out = be.AppendUint64(out, uint64(base.secs[s].len))
		out = be.AppendUint64(out, uint64(cur.secs[s].off))
		out = be.AppendUint64(out, uint64(cur.secs[s].len))
	}
	out = be.AppendUint32(out, uint32(len(dw.changes)))
	out = out[:dw.size]
	for _, c := range dw.changes {
		be.PutUint32(out[c.pos-12:], uint32(c.sec))
		be.PutUint64(out[c.pos-8:], uint64(c.page))
	}
	dw.out = out
}

// Write takes the next bytes of cur's file, copying those of changed pages
// into the delta. It never fails.
func (dw *DeltaWriter) Write(p []byte) (int, error) {
	if dw.out == nil {
		dw.alloc()
	}
	dw.crc = crc32.Update(dw.crc, crc32.IEEETable, p)
	start, end := dw.off, dw.off+int64(len(p))
	for ; dw.next < len(dw.changes); dw.next++ {
		c := dw.changes[dw.next]
		if lo, hi := max(c.start, start), min(c.end, end); lo < hi {
			copy(dw.out[c.pos+lo-c.start:], p[lo-start:hi-start])
		}
		if c.end > end {
			break
		}
	}
	dw.off = end
	return len(p), nil
}

// Bytes returns the delta once all of cur's file has been written, or an
// error when the bytes written are not the file cur describes: a delta from
// other bytes than the ones hashed could not patch into them.
func (dw *DeltaWriter) Bytes() ([]byte, error) {
	if dw.off != dw.cur.Size {
		return nil, fmt.Errorf("store: delta: current bytes are %d, manifest says %d", dw.off, dw.cur.Size)
	}
	if dw.crc != dw.cur.CRC {
		return nil, fmt.Errorf("store: delta: current bytes have crc %08x, manifest says %08x", dw.crc, dw.cur.CRC)
	}
	if dw.out == nil {
		dw.alloc()
	}
	return dw.out, nil
}

// IsDelta reports whether body starts with the delta wire magic.
func IsDelta(body []byte) bool {
	return len(body) >= 8 && string(body[0:8]) == deltaMagic
}

// ApplyDelta patches base (the replica's cached file bytes) with a delta body
// and returns the new file bytes: ApplyDeltaTo into a buffer of exactly the
// new file's size. Every failure mode — wrong base, torn body, bit flip
// anywhere, hash collision in the encoder — surfaces as an error here: the
// final whole-file CRC comparison is the catch-all. The returned bytes still
// carry the store's own CRC trailer, so OpenMmap re-verifies them
// independently after the caller persists the patch.
func ApplyDelta(base, delta []byte) ([]byte, error) {
	p, err := readDelta(base, delta)
	if err != nil {
		return nil, err
	}
	out := bytes.NewBuffer(make([]byte, 0, p.newSize))
	if err := p.writeTo(out); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// ApplyDeltaTo writes the file that delta patches base into to w, in file
// order, straight from base and from the delta's pages, so it holds no copy
// of the file; it keeps a running CRC of what it writes. It refuses what
// ApplyDelta refuses, with an error wrapping ErrCorrupt, but it may find a
// damaged change list, and always finds a CRC mismatch, only after writing
// some of the file: on any error, what w received must be discarded. Errors
// from w are returned as they are.
func ApplyDeltaTo(w io.Writer, base, delta []byte) error {
	p, err := readDelta(base, delta)
	if err != nil {
		return err
	}
	return p.writeTo(w)
}

// patch is a delta whose header has been checked against its base.
type patch struct {
	base, delta       []byte
	newSize           int64
	newCRC            uint32
	baseSecs, newSecs [deltaNumSections]deltaSection
	numChanged        int64
	changesOff        int64 // where the change list starts in delta
}

// readDelta checks a delta's header: its shape, its base's size and CRC, and
// a section table that tiles the new file in order.
func readDelta(base, delta []byte) (patch, error) {
	be := binary.BigEndian
	if len(delta) < deltaHdrSize {
		return patch{}, fmt.Errorf("%w: delta: truncated header (%d bytes)", ErrCorrupt, len(delta))
	}
	if !IsDelta(delta) {
		return patch{}, fmt.Errorf("%w: delta: bad magic %q", ErrCorrupt, delta[0:8])
	}
	off := int64(8)
	get32 := func() uint32 { v := be.Uint32(delta[off:]); off += 4; return v }
	get64 := func() uint64 { v := be.Uint64(delta[off:]); off += 8; return v }

	if v := get32(); v != deltaVersion {
		return patch{}, fmt.Errorf("%w: delta: unsupported version %d", ErrCorrupt, v)
	}
	get64() // fromEpoch: informational; the base CRC below is the real guard
	get64() // toEpoch: read back by the caller from the patched header
	pageSize := int64(get32())
	baseSize := int64(get64())
	baseCRC := get32()
	p := patch{base: base, delta: delta, newSize: int64(get64()), newCRC: get32()}
	numSections := get32()
	if pageSize != DeltaPageSize || numSections != deltaNumSections {
		return patch{}, fmt.Errorf("%w: delta: bad shape (pageSize=%d sections=%d)", ErrCorrupt, pageSize, numSections)
	}
	if int64(len(base)) != baseSize || crc32.ChecksumIEEE(base) != baseCRC {
		return patch{}, fmt.Errorf("%w: delta: base file does not match (have %d bytes, delta expects %d crc %08x)",
			ErrCorrupt, len(base), baseSize, baseCRC)
	}
	// Every byte of a patched file comes from the base or from the delta.
	if p.newSize < 0 || p.newSize > baseSize+int64(len(delta)) {
		return patch{}, fmt.Errorf("%w: delta: implausible new size %d", ErrCorrupt, p.newSize)
	}

	var end int64
	for s := 0; s < deltaNumSections; s++ {
		bs := deltaSection{off: int64(get64()), len: int64(get64())}
		ns := deltaSection{off: int64(get64()), len: int64(get64())}
		if bs.off < 0 || bs.len < 0 || bs.off > baseSize || bs.len > baseSize-bs.off ||
			ns.off != end || ns.len < 0 || ns.len > p.newSize-end {
			return patch{}, fmt.Errorf("%w: delta: section %d out of bounds", ErrCorrupt, s)
		}
		p.baseSecs[s], p.newSecs[s] = bs, ns
		end += ns.len
	}
	if end != p.newSize {
		return patch{}, fmt.Errorf("%w: delta: sections cover %d of %d bytes", ErrCorrupt, end, p.newSize)
	}
	p.numChanged = int64(get32())
	p.changesOff = off
	return p, nil
}

// writeTo writes the patched file to w section by section: each changed
// page from the delta, the bytes between them from the base's section.
func (p *patch) writeTo(w io.Writer) error {
	be := binary.BigEndian
	var crc uint32
	emit := func(b []byte) error {
		crc = crc32.Update(crc, crc32.IEEETable, b)
		_, err := w.Write(b)
		return err
	}
	// copyBase writes bytes [from, to) of new section s from the base's
	// section s. Delta ships every page that reaches past the base section's
	// end, so a delta leaving such bytes uncovered is damaged.
	copyBase := func(s int, from, to int64) error {
		if from == to {
			return nil
		}
		bs := p.baseSecs[s]
		if to > bs.len {
			return fmt.Errorf("%w: delta: bytes %d-%d of section %d are in neither the base nor the delta",
				ErrCorrupt, max(from, bs.len), to, s)
		}
		return emit(p.base[bs.off+from : bs.off+to])
	}

	delta, off, i := p.delta, p.changesOff, int64(0)
	for s := 0; s < deltaNumSections; s++ {
		sec, pos := p.newSecs[s], int64(0)
		for ; i < p.numChanged; i++ {
			if off+12 > int64(len(delta)) {
				return fmt.Errorf("%w: delta: truncated at change %d/%d", ErrCorrupt, i, p.numChanged)
			}
			cs, pg := int64(be.Uint32(delta[off:])), int64(be.Uint64(delta[off+4:]))
			if cs < int64(s) || cs >= deltaNumSections {
				return fmt.Errorf("%w: delta: change %d names section %d after section %d", ErrCorrupt, i, cs, s)
			}
			if cs > int64(s) {
				break
			}
			if pg < 0 || pg >= deltaPageCount(sec.len) || pg*DeltaPageSize < pos {
				return fmt.Errorf("%w: delta: change %d page %d outside section %d or out of order", ErrCorrupt, i, pg, s)
			}
			start, end := pg*DeltaPageSize, deltaPageEnd(sec.len, pg)
			if off+12+(end-start) > int64(len(delta)) {
				return fmt.Errorf("%w: delta: truncated page payload at change %d/%d", ErrCorrupt, i, p.numChanged)
			}
			if err := copyBase(s, pos, start); err != nil {
				return err
			}
			if err := emit(delta[off+12 : off+12+(end-start)]); err != nil {
				return err
			}
			off += 12 + end - start
			pos = end
		}
		if err := copyBase(s, pos, sec.len); err != nil {
			return err
		}
	}
	if off != int64(len(delta)) {
		return fmt.Errorf("%w: delta: %d trailing bytes", ErrCorrupt, int64(len(delta))-off)
	}
	if crc != p.newCRC {
		return fmt.Errorf("%w: delta: patched file crc mismatch (want %08x got %08x)", ErrCorrupt, p.newCRC, crc)
	}
	return nil
}
