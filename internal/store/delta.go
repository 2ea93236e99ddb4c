// Delta snapshots: page-level diffs between two canonical store files.
//
// The canonical persist (the encoder numbers labels in first-use order and
// writes only the results some cell references) guarantees that the same
// point set serializes to the same bytes no matter what maintenance history
// produced it, so a byte diff between two epochs is well-defined. A Manifest
// records per-page hashes of one epoch's file; Delta emits only the pages
// whose hash changed between two manifests, plus whatever tail a grown
// section added; ApplyDelta patches a base file into the new file and
// refuses the result unless its whole-file CRC matches the one the encoder
// saw.
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
	"encoding/binary"
	"fmt"
	"hash/crc32"
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
	Kind  string // "quadrant" or "dynamic"
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
	secs, kind, epoch, err := deltaSections(data)
	if err != nil {
		return nil, err
	}
	m := &Manifest{
		Epoch: epoch,
		Kind:  kind,
		Size:  int64(len(data)),
		CRC:   crc32.ChecksumIEEE(data),
		secs:  secs,
	}
	for s, sec := range secs {
		n := deltaPageCount(sec.len)
		m.hashes[s] = make([]uint64, n)
		for p := int64(0); p < n; p++ {
			m.hashes[s][p] = deltaPageHash(data[sec.off+p*DeltaPageSize : sec.off+deltaPageEnd(sec.len, p)])
		}
	}
	return m, nil
}

// deltaSections splits a store file into the six delta sections:
// header | points | index | label pages | arena offsets | arena ids+trailer.
func deltaSections(data []byte) (secs [deltaNumSections]deltaSection, kind string, epoch uint64, err error) {
	if err := checkHead(data); err != nil {
		return secs, "", 0, err
	}
	be := binary.BigEndian
	size := int64(len(data))
	numPages := int64(be.Uint64(data[36:]))
	indexOff := int64(be.Uint64(data[44:]))
	pagesOff := int64(be.Uint64(data[52:]))
	arenaOff := pagesOff + numPages*labelPageSize
	switch int(be.Uint32(data[60:])) {
	case kindQuadrant:
		kind = "quadrant"
	case kindDynamic:
		kind = "dynamic"
	default:
		return secs, "", 0, fmt.Errorf("%w: delta: unknown kind %d", ErrCorrupt, be.Uint32(data[60:]))
	}
	epoch = be.Uint64(data[64:])
	// The arena opens with #results, #ids; the offsets table (#results+1
	// uint32s) follows, then the ids array. Splitting there keeps an appended
	// result from shifting the ids array off its page grid.
	if arenaOff < 0 || arenaOff+8 > size {
		return secs, "", 0, fmt.Errorf("%w: delta: arena offset %d outside %d-byte file", ErrCorrupt, arenaOff, size)
	}
	idsOff := arenaOff + 8 + 4*(int64(be.Uint32(data[arenaOff:]))+1)
	bounds := [deltaNumSections + 1]int64{0, headerSize, indexOff, pagesOff, arenaOff, idsOff, size}
	for i := 0; i < deltaNumSections; i++ {
		if bounds[i+1] < bounds[i] || bounds[i+1] > size {
			return secs, "", 0, fmt.Errorf("%w: delta: section bounds %v out of order for %d-byte file", ErrCorrupt, bounds, size)
		}
		secs[i] = deltaSection{off: bounds[i], len: bounds[i+1] - bounds[i]}
	}
	return secs, kind, epoch, nil
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

// deltaPageHash is FNV-1a 64 — cheap, and any collision is caught by the
// whole-file CRC check in ApplyDelta.
func deltaPageHash(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// Delta encodes the patch that turns base's file into cur's file, where data
// is cur's complete serialized bytes (the encoder needs the actual changed
// page contents, not just their hashes). The two manifests must describe the
// same diagram kind. The caller decides whether the result is worth shipping:
// a near-total rewrite can come out larger than the full file.
func Delta(base, cur *Manifest, data []byte) ([]byte, error) {
	if base == nil || cur == nil {
		return nil, fmt.Errorf("store: delta: nil manifest")
	}
	if base.Kind != cur.Kind {
		return nil, fmt.Errorf("store: delta: kind changed %s -> %s", base.Kind, cur.Kind)
	}
	if int64(len(data)) != cur.Size {
		return nil, fmt.Errorf("store: delta: current bytes are %d, manifest says %d", len(data), cur.Size)
	}

	type change struct {
		sec  int
		page int64
	}
	var changed []change
	var payload int64
	for s := 0; s < deltaNumSections; s++ {
		cs, bs := cur.secs[s], base.secs[s]
		for p := int64(0); p < deltaPageCount(cs.len); p++ {
			curLen := deltaPageEnd(cs.len, p) - p*DeltaPageSize
			same := p < int64(len(base.hashes[s])) &&
				deltaPageEnd(bs.len, p)-p*DeltaPageSize == curLen &&
				base.hashes[s][p] == cur.hashes[s][p]
			if !same {
				changed = append(changed, change{s, p})
				payload += curLen
			}
		}
	}

	be := binary.BigEndian
	out := make([]byte, 0, int64(deltaHdrSize)+int64(len(changed))*12+payload)
	var buf [8]byte
	put32 := func(v uint32) { be.PutUint32(buf[:4], v); out = append(out, buf[:4]...) }
	put64 := func(v uint64) { be.PutUint64(buf[:], v); out = append(out, buf[:8]...) }

	out = append(out, deltaMagic...)
	put32(deltaVersion)
	put64(base.Epoch)
	put64(cur.Epoch)
	put32(DeltaPageSize)
	put64(uint64(base.Size))
	put32(base.CRC)
	put64(uint64(cur.Size))
	put32(cur.CRC)
	put32(deltaNumSections)
	for s := 0; s < deltaNumSections; s++ {
		put64(uint64(base.secs[s].off))
		put64(uint64(base.secs[s].len))
		put64(uint64(cur.secs[s].off))
		put64(uint64(cur.secs[s].len))
	}
	put32(uint32(len(changed)))
	for _, c := range changed {
		sec := cur.secs[c.sec]
		start := sec.off + c.page*DeltaPageSize
		end := sec.off + deltaPageEnd(sec.len, c.page)
		put32(uint32(c.sec))
		put64(uint64(c.page))
		out = append(out, data[start:end]...)
	}
	return out, nil
}

// IsDelta reports whether body starts with the delta wire magic.
func IsDelta(body []byte) bool {
	return len(body) >= 8 && string(body[0:8]) == deltaMagic
}

// ApplyDelta patches base (the replica's cached file bytes) with a delta body
// and returns the new file bytes. Every failure mode — wrong base, torn body,
// bit flip anywhere, hash collision in the encoder — surfaces as an error
// here: the final whole-file CRC comparison is the catch-all. The returned
// bytes still carry the store's own CRC trailer, so OpenMmap re-verifies them
// independently after the caller persists the patch.
func ApplyDelta(base, delta []byte) ([]byte, error) {
	be := binary.BigEndian
	if len(delta) < deltaHdrSize {
		return nil, fmt.Errorf("%w: delta: truncated header (%d bytes)", ErrCorrupt, len(delta))
	}
	if !IsDelta(delta) {
		return nil, fmt.Errorf("%w: delta: bad magic %q", ErrCorrupt, delta[0:8])
	}
	off := int64(8)
	get32 := func() uint32 { v := be.Uint32(delta[off:]); off += 4; return v }
	get64 := func() uint64 { v := be.Uint64(delta[off:]); off += 8; return v }

	if v := get32(); v != deltaVersion {
		return nil, fmt.Errorf("%w: delta: unsupported version %d", ErrCorrupt, v)
	}
	get64() // fromEpoch: informational; the base CRC below is the real guard
	get64() // toEpoch: read back by the caller from the patched header
	pageSize := int64(get32())
	baseSize := int64(get64())
	baseCRC := get32()
	newSize := int64(get64())
	newCRC := get32()
	numSections := get32()
	if pageSize != DeltaPageSize || numSections != deltaNumSections {
		return nil, fmt.Errorf("%w: delta: bad shape (pageSize=%d sections=%d)", ErrCorrupt, pageSize, numSections)
	}
	if int64(len(base)) != baseSize || crc32.ChecksumIEEE(base) != baseCRC {
		return nil, fmt.Errorf("%w: delta: base file does not match (have %d bytes, delta expects %d crc %08x)",
			ErrCorrupt, len(base), baseSize, baseCRC)
	}
	const maxDeltaFile = 1 << 40
	if newSize < 0 || newSize > maxDeltaFile {
		return nil, fmt.Errorf("%w: delta: implausible new size %d", ErrCorrupt, newSize)
	}

	var baseSecs, newSecs [deltaNumSections]deltaSection
	for s := 0; s < deltaNumSections; s++ {
		baseSecs[s] = deltaSection{off: int64(get64()), len: int64(get64())}
		newSecs[s] = deltaSection{off: int64(get64()), len: int64(get64())}
		if baseSecs[s].off < 0 || baseSecs[s].len < 0 || baseSecs[s].off+baseSecs[s].len > baseSize ||
			newSecs[s].off < 0 || newSecs[s].len < 0 || newSecs[s].off+newSecs[s].len > newSize {
			return nil, fmt.Errorf("%w: delta: section %d out of bounds", ErrCorrupt, s)
		}
	}

	out := make([]byte, newSize)
	for s := 0; s < deltaNumSections; s++ {
		n := baseSecs[s].len
		if newSecs[s].len < n {
			n = newSecs[s].len
		}
		copy(out[newSecs[s].off:newSecs[s].off+n], base[baseSecs[s].off:baseSecs[s].off+n])
	}

	numChanged := int64(get32())
	for i := int64(0); i < numChanged; i++ {
		if off+12 > int64(len(delta)) {
			return nil, fmt.Errorf("%w: delta: truncated at change %d/%d", ErrCorrupt, i, numChanged)
		}
		s := int64(get32())
		p := int64(get64())
		if s < 0 || s >= deltaNumSections {
			return nil, fmt.Errorf("%w: delta: change %d names section %d", ErrCorrupt, i, s)
		}
		sec := newSecs[s]
		if p < 0 || p >= deltaPageCount(sec.len) {
			return nil, fmt.Errorf("%w: delta: change %d page %d outside section %d", ErrCorrupt, i, p, s)
		}
		start := sec.off + p*pageSize
		end := sec.off + deltaPageEnd(sec.len, p)
		if off+(end-start) > int64(len(delta)) {
			return nil, fmt.Errorf("%w: delta: truncated page payload at change %d/%d", ErrCorrupt, i, numChanged)
		}
		copy(out[start:end], delta[off:off+(end-start)])
		off += end - start
	}
	if off != int64(len(delta)) {
		return nil, fmt.Errorf("%w: delta: %d trailing bytes", ErrCorrupt, int64(len(delta))-off)
	}
	if crc32.ChecksumIEEE(out) != newCRC {
		return nil, fmt.Errorf("%w: delta: patched file crc mismatch (want %08x got %08x)",
			ErrCorrupt, newCRC, crc32.ChecksumIEEE(out))
	}
	return out, nil
}
