package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/quaddiag"
)

// serializeEpoch builds the quadrant diagram for pts and returns its
// canonical file bytes stamped with epoch — exactly what a full
// /v1/snapshot stream carries.
func serializeEpoch(t testing.TB, pts []geom.Point, epoch uint64) []byte {
	t.Helper()
	d, err := quaddiag.BuildScanning(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEpoch(&buf, d, epoch); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// patchBetween encodes the delta from base bytes to cur bytes and applies it
// back, asserting byte equivalence with the full serialization.
func patchBetween(t testing.TB, base, cur []byte) []byte {
	t.Helper()
	bm, err := NewManifest(base)
	if err != nil {
		t.Fatalf("base manifest: %v", err)
	}
	cm, err := NewManifest(cur)
	if err != nil {
		t.Fatalf("cur manifest: %v", err)
	}
	delta, err := Delta(bm, cm, cur)
	if err != nil {
		t.Fatalf("encode delta: %v", err)
	}
	if !IsDelta(delta) {
		t.Fatalf("delta body does not carry the delta magic")
	}
	patched, err := ApplyDelta(base, delta)
	if err != nil {
		t.Fatalf("apply delta: %v", err)
	}
	if !bytes.Equal(patched, cur) {
		t.Fatalf("patched bytes differ from full serialization (%d vs %d bytes)",
			len(patched), len(cur))
	}
	return delta
}

func TestManifestSectionsCoverFile(t *testing.T) {
	d := buildDiagram(t, 40, 21)
	var buf bytes.Buffer
	if err := WriteEpoch(&buf, d, 7); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	m, err := NewManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 7 {
		t.Fatalf("manifest epoch = %d, want 7", m.Epoch)
	}
	if m.Size != int64(len(data)) {
		t.Fatalf("manifest size = %d, want %d", m.Size, len(data))
	}
	var covered int64
	prevEnd := int64(0)
	for s := 0; s < deltaNumSections; s++ {
		if m.secs[s].off != prevEnd {
			t.Fatalf("section %d starts at %d, previous ended at %d", s, m.secs[s].off, prevEnd)
		}
		if got, want := int64(len(m.hashes[s])), deltaPageCount(m.secs[s].len); got != want {
			t.Fatalf("section %d has %d page hashes, want %d", s, got, want)
		}
		covered += m.secs[s].len
		prevEnd = m.secs[s].off + m.secs[s].len
	}
	if covered != m.Size {
		t.Fatalf("sections cover %d of %d bytes", covered, m.Size)
	}
}

// TestDeltaEpochOnlyChange pins the best case: the same point set
// republished under a new epoch differs only in the header page, so the
// delta is a small constant regardless of dataset size.
func TestDeltaEpochOnlyChange(t *testing.T) {
	pts := churnBase(t, 80, 31)
	a := serializeEpoch(t, pts, 1)
	b := serializeEpoch(t, pts, 2)
	delta := patchBetween(t, a, b)
	if max := deltaHdrSize + 12 + DeltaPageSize; len(delta) > max {
		t.Fatalf("epoch-only delta is %d bytes, want <= %d (one changed page)", len(delta), max)
	}
}

func churnBase(t testing.TB, n int, seed int64) []geom.Point {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt2(i, rng.Float64()*100, rng.Float64()*100)
	}
	return dataset.GeneralPosition(pts)
}

// TestDeltaRandomChurnChain applies a random op chain — fresh-coordinate
// inserts (grid reshape), duplicate-coordinate inserts (grid stable),
// deletes — and asserts at every epoch that patching the previous file
// yields byte-identical output to the full serialization, both for
// consecutive epochs and for a laggard patching across several epochs.
func TestDeltaRandomChurnChain(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	pts := churnBase(t, 60, 41)
	files := [][]byte{serializeEpoch(t, pts, 1)}
	nextID := 10_000
	for step := 0; step < 12; step++ {
		switch op := rng.Intn(3); {
		case op == 0 && len(pts) > 10: // delete a random point
			i := rng.Intn(len(pts))
			pts = append(pts[:i:i], pts[i+1:]...)
		case op == 1: // insert reusing existing coordinate values
			x := pts[rng.Intn(len(pts))].Coords[0]
			y := pts[rng.Intn(len(pts))].Coords[1]
			pts = append(pts, geom.Pt2(nextID, x, y))
			nextID++
		default: // insert at fresh coordinates
			pts = append(pts, geom.Pt2(nextID, rng.Float64()*100, rng.Float64()*100))
			nextID++
		}
		files = append(files, serializeEpoch(t, pts, uint64(len(files)+1)))
		cur := files[len(files)-1]
		patchBetween(t, files[len(files)-2], cur) // one epoch behind
		if len(files) > 4 {
			patchBetween(t, files[len(files)-5], cur) // laggard, 4 epochs behind
		}
	}
}

func TestApplyDeltaWrongBaseRefused(t *testing.T) {
	a1 := serializeEpoch(t, churnBase(t, 40, 61), 1)
	a2 := serializeEpoch(t, append(churnBase(t, 40, 61), geom.Pt2(999, 3, 4)), 2)
	other := serializeEpoch(t, churnBase(t, 40, 62), 1)
	delta := patchBetween(t, a1, a2)
	if _, err := ApplyDelta(other, delta); err == nil {
		t.Fatal("patch against the wrong base must refuse")
	}
	// A truncated base (torn cache file) must refuse too.
	if _, err := ApplyDelta(a1[:len(a1)-3], delta); err == nil {
		t.Fatal("patch against a truncated base must refuse")
	}
}

// corruptionFixture is one real delta body with its base and target: an
// insert at existing coordinates over a 50-point file.
func corruptionFixture(t testing.TB) (base, cur, delta []byte) {
	pts := churnBase(t, 50, 71)
	base = serializeEpoch(t, pts, 1)
	cur = serializeEpoch(t, append(pts, geom.Pt2(5000, pts[3].Coords[0], pts[9].Coords[1])), 2)
	return base, cur, patchBetween(t, base, cur)
}

// deltaCorruptions returns the mutations of a delta body the corruption
// matrix applies: truncation at every ~97th offset, and a bit flip at every
// ~101st offset plus the structural landmarks.
func deltaCorruptions(delta []byte) (names []string, bodies [][]byte) {
	stride := len(delta)/97 + 1
	for cut := 0; cut < len(delta); cut += stride {
		names = append(names, fmt.Sprintf("cut%d", cut))
		bodies = append(bodies, delta[:cut])
	}
	stride = len(delta)/101 + 1
	offsets := []int{0, 8, 11, 20, 31, 43, 55, deltaHdrSize - 1, len(delta) - 1}
	for off := stride; off < len(delta); off += stride {
		offsets = append(offsets, off)
	}
	for _, off := range offsets {
		if off < 0 || off >= len(delta) {
			continue
		}
		rotted := append([]byte(nil), delta...)
		rotted[off] ^= 0x01
		names = append(names, fmt.Sprintf("rot%d", off))
		bodies = append(bodies, rotted)
	}
	return names, bodies
}

// checkPatch applies a possibly corrupt delta through ApplyDelta and
// ApplyDeltaTo: both must refuse it with ErrCorrupt, or both patch base into
// exactly cur.
func checkPatch(t *testing.T, name string, base, cur, delta []byte) {
	t.Helper()
	patched, err := ApplyDelta(base, delta)
	var streamed bytes.Buffer
	errTo := ApplyDeltaTo(&streamed, base, delta)
	switch {
	case (err == nil) != (errTo == nil):
		t.Fatalf("%s: ApplyDelta err %v, ApplyDeltaTo err %v", name, err, errTo)
	case err != nil:
		if !errors.Is(err, ErrCorrupt) || !errors.Is(errTo, ErrCorrupt) {
			t.Fatalf("%s: refused without ErrCorrupt: %v / %v", name, err, errTo)
		}
	case !bytes.Equal(patched, cur) || !bytes.Equal(streamed.Bytes(), cur):
		t.Fatalf("%s: corrupt delta accepted AND patched to wrong bytes", name)
	}
}

// TestDeltaCorruptionMatrix subjects one real delta body to the same
// treatment the store file gets: truncations and bit flips
// (deltaCorruptions). Every mutation must either be rejected by ApplyDelta
// and ApplyDeltaTo or (if the flip is semantically inert) still patch to the
// exact full-file bytes — a corrupt patch can never produce wrong served
// bytes.
func TestDeltaCorruptionMatrix(t *testing.T) {
	base, cur, delta := corruptionFixture(t)
	names, bodies := deltaCorruptions(delta)
	for i, mutated := range bodies {
		checkPatch(t, names[i], base, cur, mutated)
	}
	// And the pristine delta still applies.
	if _, err := ApplyDelta(base, delta); err != nil {
		t.Fatalf("pristine delta rejected: %v", err)
	}
}

// FuzzApplyDelta mutates a delta body applied to a fixed base: the result
// must be ErrCorrupt or exactly the target bytes, through ApplyDelta and
// ApplyDeltaTo alike, and nothing may panic. The corruption matrix's
// mutations seed it.
func FuzzApplyDelta(f *testing.F) {
	base, cur, delta := corruptionFixture(f)
	f.Add(delta)
	_, bodies := deltaCorruptions(delta)
	for _, b := range bodies {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, mutated []byte) {
		checkPatch(t, "fuzzed delta", base, cur, mutated)
	})
}

// TestDeltaLegacyVersionNotEligible pins that pre-v4 files refuse manifest
// construction instead of producing undefined section boundaries. Only the
// version field differs from a valid file: the trailer CRC is recomputed.
func TestDeltaLegacyVersionNotEligible(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEpoch(&buf, buildDiagram(t, 20, 81), 0); err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint32{1, 2, 3} {
		b := append([]byte(nil), buf.Bytes()...)
		binary.BigEndian.PutUint32(b[8:], v)
		putTrailer(b)
		if _, err := NewManifest(b); err == nil {
			t.Fatalf("version %d file must not be delta-eligible", v)
		}
	}
	if _, err := NewManifest(buf.Bytes()); err != nil {
		t.Fatalf("the version-%d original must be delta-eligible: %v", version, err)
	}
}
