package store

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/quaddiag"
)

// Streaming equivalence: every sink a streamed file passes through — the
// manifest hasher, the delta writer, a patch written by ApplyDeltaTo —
// yields what the in-memory functions give for the file's bytes.

// streamCase is one file to stream, with an earlier file for a delta base.
type streamCase struct {
	name string
	enc  *Encoder
	base []byte
}

func streamCases(t *testing.T) []streamCase {
	t.Helper()
	var cases []streamCase
	quad := func(d *quaddiag.Diagram, epoch uint64) *Encoder {
		e, err := NewEncoder(d, epoch)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	for _, n := range []int{20, 60, 150} {
		fresh := buildDiagram(t, n, int64(n))
		maintained := churnQuadrant(t, fresh)
		freshEnc, maintainedEnc := quad(fresh, 1), quad(maintained, 2)
		if maintainedEnc.remap == nil {
			t.Fatalf("n=%d: test premise broken: maintained diagram is canonical", n)
		}
		cases = append(cases,
			streamCase{"fresh", freshEnc, fileBytes(t, maintained, 2)},
			streamCase{"maintained", maintainedEnc, fileBytes(t, fresh, 1)})
	}
	return cases
}

// chop writes data to w in pieces of random sizes, from one byte to a few
// pages, so sinks see page and section boundaries fall anywhere in a write.
func chop(t *testing.T, w io.Writer, data []byte, rng *rand.Rand) {
	t.Helper()
	for len(data) > 0 {
		k := min(len(data), 1+rng.Intn(3*DeltaPageSize))
		if _, err := w.Write(data[:k]); err != nil {
			t.Fatal(err)
		}
		data = data[k:]
	}
}

// TestStreamingMatchesInMemory pins each streamed form to its in-memory
// counterpart over fresh and maintained diagrams at several n: WriteTo
// emits Size bytes, Encoder.Manifest is NewManifest of those bytes, a
// DeltaWriter fed the stream returns Delta's bytes, and ApplyDeltaTo
// writes exactly what ApplyDelta returns. Store.WriteTo and Store.Manifest
// match too, and the sinks give the same results whatever the sizes of the
// writes that feed them.
func TestStreamingMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range streamCases(t) {
		var got bytes.Buffer
		n, err := c.enc.WriteTo(&got)
		if err != nil || n != int64(got.Len()) || c.enc.Size() != n {
			t.Fatalf("%s (%d bytes): WriteTo wrote %d bytes, Size %d, err %v", c.name, got.Len(), n, c.enc.Size(), err)
		}
		want := got.Bytes()

		wantM, err := NewManifest(want)
		if err != nil {
			t.Fatal(err)
		}
		gotM, err := c.enc.Manifest()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotM, wantM) {
			t.Fatalf("%s: streamed manifest differs from NewManifest of the bytes", c.name)
		}
		mw := newManifestWriter(c.enc.sections(), c.enc.epoch)
		chop(t, mw, want, rng)
		if m, err := mw.manifest(); err != nil || !reflect.DeepEqual(m, wantM) {
			t.Fatalf("%s: manifest of chopped writes differs (%v)", c.name, err)
		}

		baseM, err := NewManifest(c.base)
		if err != nil {
			t.Fatal(err)
		}
		wantD, err := Delta(baseM, wantM, want)
		if err != nil {
			t.Fatal(err)
		}
		for _, feed := range []func(io.Writer){
			func(w io.Writer) { c.enc.WriteTo(w) },
			func(w io.Writer) { chop(t, w, want, rng) },
		} {
			dw := NewDeltaWriter(baseM, gotM)
			feed(dw)
			gotD, err := dw.Bytes()
			if err != nil || dw.Len() != len(wantD) || !bytes.Equal(gotD, wantD) {
				t.Fatalf("%s: streamed delta (%d bytes, err %v) differs from Delta's %d bytes", c.name, len(gotD), err, len(wantD))
			}
		}

		patched, err := ApplyDelta(c.base, wantD)
		if err != nil || !bytes.Equal(patched, want) {
			t.Fatalf("%s: ApplyDelta: %v", c.name, err)
		}
		var streamed bytes.Buffer
		if err := ApplyDeltaTo(&streamed, c.base, wantD); err != nil || !bytes.Equal(streamed.Bytes(), patched) {
			t.Fatalf("%s: ApplyDeltaTo wrote %d bytes (err %v), ApplyDelta returned %d", c.name, streamed.Len(), err, len(patched))
		}

		s, err := New(want)
		if err != nil {
			t.Fatal(err)
		}
		var relayed bytes.Buffer
		if n, err := s.WriteTo(&relayed); err != nil || n != s.Size() || !bytes.Equal(relayed.Bytes(), want) {
			t.Fatalf("%s: Store.WriteTo wrote %d of %d bytes (err %v)", c.name, n, s.Size(), err)
		}
		if m, err := s.Manifest(); err != nil || !reflect.DeepEqual(m, wantM) {
			t.Fatalf("%s: Store.Manifest differs from NewManifest (%v)", c.name, err)
		}
	}
}

// TestDeltaWriterRefusesOtherBytes: a delta is only built from the bytes
// its current manifest was hashed from — other bytes of the right size, or
// a short stream, are refused instead of yielding a patch that cannot apply.
func TestDeltaWriterRefusesOtherBytes(t *testing.T) {
	pts := churnBase(t, 40, 17)
	base := serializeEpoch(t, pts, 1)
	cur := serializeEpoch(t, append(pts, geom.Pt2(999, 3, 4)), 2)
	bm, err := NewManifest(base)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := NewManifest(cur)
	if err != nil {
		t.Fatal(err)
	}
	other := append([]byte(nil), cur...)
	other[len(other)/2] ^= 0x10
	for name, data := range map[string][]byte{"flipped": other, "short": cur[:len(cur)-1]} {
		if _, err := Delta(bm, cm, data); err == nil {
			t.Fatalf("%s bytes: Delta built a patch from bytes its manifest does not describe", name)
		}
	}
}

// TestApplyDeltaToAllocations pins the replica's patch to no file-sized
// buffer: ApplyDeltaTo writes from the base and the delta as they are and
// allocates at most 64 KiB, the same for an n=150 and an n=400 file.
func TestApplyDeltaToAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an n=400 diagram")
	}
	var allocs []int64
	for _, n := range []int{150, 400} {
		d := buildDiagram(t, n, int64(n))
		maxX, y := -1.0, 0.0
		for _, p := range d.Points {
			if p.Coords[0] > maxX {
				maxX, y = p.Coords[0], p.Coords[1]
			}
		}
		next, err := d.WithInsert(geom.Pt2(9_000_000, maxX+1, y))
		if err != nil {
			t.Fatal(err)
		}
		base, cur := fileBytes(t, d, 1), fileBytes(t, next, 2)
		delta := patchBetween(t, base, cur)
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := ApplyDeltaTo(io.Discard, base, delta); err != nil {
					b.Fatal(err)
				}
			}
		})
		t.Logf("n=%d: %d-byte file, %d-byte delta: %d B/op", n, len(cur), len(delta), r.AllocedBytesPerOp())
		if r.AllocedBytesPerOp() > 64<<10 {
			t.Errorf("n=%d: ApplyDeltaTo allocates %d B/op, want <= 64 KiB", n, r.AllocedBytesPerOp())
		}
		allocs = append(allocs, r.AllocedBytesPerOp())
	}
	if allocs[0] != allocs[1] {
		t.Errorf("ApplyDeltaTo allocates %d B/op at n=150 and %d at n=400: it grows with the file", allocs[0], allocs[1])
	}
}
