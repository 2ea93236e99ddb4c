package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/quaddiag"
)

// samePoints reports whether the store serves exactly the given generation's
// dataset — the identity check the crash tests use to pin "old or new, never
// garbage".
func samePoints(s *Store, d *quaddiag.Diagram) bool {
	if len(s.Points()) != len(d.Points) {
		return false
	}
	ids := make(map[int]bool, len(d.Points))
	for _, p := range d.Points {
		ids[p.ID] = true
	}
	for _, p := range s.Points() {
		if !ids[p.ID] {
			return false
		}
	}
	return true
}

// createSites are every failure site an interrupted CreateFile can die at,
// in write order. store.write.page tears the temp mid-stream; the rest kill
// the create/fsync/rename/dirsync steps around it.
var createSites = []string{
	"store.create.create",
	"store.write.page",
	"store.create.sync",
	"store.create.rename",
	"store.create.dirsync",
}

// TestCrashAtEveryCreateSite is the crash-simulation acceptance test: a new
// generation is written over an existing one by CreateFileEpoch — the
// checkpoint's writer, streaming the file from the diagram — with a fault
// injected at each site in turn, and after every simulated crash OpenMmap
// must yield either the old generation or the new one — never corrupt data.
// store.write.page is injected twice: at the first label page, and at the
// page a seeded draw picks, past the stream's first chunk and not at the
// start of one, so the tear falls inside one of the encoder's writes.
func TestCrashAtEveryCreateSite(t *testing.T) {
	defer faultinject.Deactivate()
	oldGen := buildDiagram(t, 30, 21)
	newGen := buildDiagram(t, 200, 22)
	data := fileBytes(t, newGen, 7)
	pagesOff := int(binary.BigEndian.Uint64(data[52:]))
	if numPages := int(binary.BigEndian.Uint64(data[36:])); pagesOff+numPages*labelPageSize < 3*chunkSize {
		t.Fatalf("test premise broken: label pages end at byte %d, within the first chunks", pagesOff+numPages*labelPageSize)
	}
	// The later tear: the failpoint draws once per label page from the
	// generator Seed resets, so the first draw under the probability names
	// the page it fires at.
	const seed, prob = 3, 0.02
	rng, later := rand.New(rand.NewSource(seed)), 0
	for rng.Float64() >= prob {
		later++
	}
	laterOff := pagesOff + later*labelPageSize
	var writes writeEnds
	e, err := NewEncoder(newGen, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.WriteTo(&writes); err != nil {
		t.Fatal(err)
	}
	if laterOff <= chunkSize || slices.Contains(writes, laterOff) {
		t.Fatalf("test premise broken: label page %d (byte %d) is in the first chunk or starts one", later, laterOff)
	}
	dir := t.TempDir()

	type fault struct {
		name, spec string
		tornAt     int // bytes a torn temp holds; 0 for the other sites
	}
	var faults []fault
	for _, site := range createSites {
		f := fault{name: site, spec: site + "=error#1"}
		if site == "store.write.page" {
			f.tornAt = pagesOff
		}
		faults = append(faults, f)
	}
	faults = append(faults, fault{"store.write.page-later", fmt.Sprintf("store.write.page=error@%g#1", prob), laterOff})
	for _, f := range faults {
		site, _, _ := strings.Cut(f.spec, "=")
		t.Run(f.name, func(t *testing.T) {
			path := filepath.Join(dir, f.name+".sky")
			faultinject.Deactivate()
			if err := CreateFile(path, oldGen); err != nil {
				t.Fatal(err)
			}
			faultinject.Seed(seed)
			if err := faultinject.Activate(f.spec); err != nil {
				t.Fatal(err)
			}
			err := CreateFileEpoch(path, newGen, 7)
			faultinject.Deactivate()
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("CreateFileEpoch with fault %s: err = %v, want injected", f.spec, err)
			}
			if f.tornAt > 0 {
				// Torn at a label page: the temp holds exactly the bytes
				// before it.
				torn, err := os.ReadFile(path + TempSuffix)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(torn, data[:f.tornAt]) {
					t.Fatalf("torn temp is %d bytes, want the %d bytes before label page %d",
						len(torn), f.tornAt, (f.tornAt-pagesOff)/labelPageSize)
				}
			}
			s, err := OpenMmap(path)
			if err != nil {
				t.Fatalf("OpenMmap after crash at %s: %v", site, err)
			}
			defer s.Close()
			// Rename and dirsync crash after the payload is durable, so
			// either generation is legitimate; everything earlier must have
			// left the old one untouched.
			switch {
			case samePoints(s, oldGen):
			case samePoints(s, newGen):
				if site != "store.create.rename" && site != "store.create.dirsync" {
					t.Fatalf("crash at %s published the new generation early", site)
				}
			default:
				t.Fatalf("crash at %s left garbage under the target name", site)
			}
			// And a clean retry always lands the new generation.
			if err := CreateFileEpoch(path, newGen, 7); err != nil {
				t.Fatal(err)
			}
			s2, err := OpenMmap(path)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if !samePoints(s2, newGen) {
				t.Fatal("clean rewrite did not publish the new generation")
			}
		})
	}
}

// TestCreateFileFromRefusesBeforeRename: a streamed file that does not open
// (torn) or that the caller refuses never replaces the published one and
// leaves no temporary that Recover could later salvage; an accepted one is
// published and served.
func TestCreateFileFromRefusesBeforeRename(t *testing.T) {
	oldGen, newGen := buildDiagram(t, 30, 25), buildDiagram(t, 60, 26)
	data := fileBytes(t, newGen, 2)
	path := filepath.Join(t.TempDir(), "snapshot.sky")
	if err := CreateFileEpoch(path, oldGen, 1); err != nil {
		t.Fatal(err)
	}
	write := func(b []byte) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := w.Write(b)
			return err
		}
	}
	newer := func(s *Store) error {
		if s.Epoch() <= 1 {
			return fmt.Errorf("epoch %d is not newer than 1", s.Epoch())
		}
		return nil
	}
	errRefused := errors.New("refused")
	for _, c := range []struct {
		name    string
		data    []byte
		accept  func(*Store) error
		wantErr error
	}{
		{"torn", data[:len(data)/2], newer, ErrCorrupt},
		{"refused", data, func(*Store) error { return errRefused }, errRefused},
	} {
		st, err := CreateFileFrom(path, write(c.data), c.accept)
		if st != nil || !errors.Is(err, c.wantErr) {
			t.Fatalf("%s: store %v, err %v, want %v", c.name, st, err, c.wantErr)
		}
		if _, err := os.Stat(path + TempSuffix); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s: the temporary is still there (%v)", c.name, err)
		}
		s, err := OpenMmap(path)
		if err != nil {
			t.Fatal(err)
		}
		if !samePoints(s, oldGen) {
			t.Fatalf("%s: the published file changed", c.name)
		}
		s.Close()
	}
	st, err := CreateFileFrom(path, write(data), newer)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Epoch() != 2 || !samePoints(st, newGen) {
		t.Fatalf("accepted store serves epoch %d, want the new generation at 2", st.Epoch())
	}
	s, err := OpenMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !samePoints(s, newGen) {
		t.Fatal("the accepted file is not the one published")
	}
}

// writeEnds records where each write to it ends in the stream.
type writeEnds []int

func (w *writeEnds) Write(p []byte) (int, error) {
	end := len(p)
	if n := len(*w); n > 0 {
		end += (*w)[n-1]
	}
	*w = append(*w, end)
	return len(p), nil
}

// TestRecoverSalvagesCompletedTemp: a first-ever CreateFile that crashes
// between the temp fsync and the rename leaves no published file and a
// complete generation under the temp name. Recover must finish the rename
// and serve it.
func TestRecoverSalvagesCompletedTemp(t *testing.T) {
	defer faultinject.Deactivate()
	gen := buildDiagram(t, 35, 24)
	path := filepath.Join(t.TempDir(), "diag.sky")
	if err := faultinject.Activate("store.create.rename=error#1"); err != nil {
		t.Fatal(err)
	}
	if err := CreateFile(path, gen); err == nil {
		t.Fatal("faulted CreateFile succeeded")
	}
	faultinject.Deactivate()
	if _, err := os.Stat(path + TempSuffix); err != nil {
		t.Fatalf("no temp left behind: %v", err)
	}
	s, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !samePoints(s, gen) {
		t.Fatal("Recover did not salvage the completed temp generation")
	}
	if _, err := os.Stat(path + TempSuffix); !os.IsNotExist(err) {
		t.Fatal("salvaged temp still present")
	}
}

// TestRecoverPrefersPublishedGeneration: when the published file is intact,
// an unrenamed temp means the new commit never happened — the published
// generation wins and the stale temp is discarded, even though it is itself
// a complete, checksum-clean file.
func TestRecoverPrefersPublishedGeneration(t *testing.T) {
	defer faultinject.Deactivate()
	oldGen := buildDiagram(t, 25, 23)
	newGen := buildDiagram(t, 35, 32)
	path := filepath.Join(t.TempDir(), "diag.sky")
	if err := CreateFile(path, oldGen); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Activate("store.create.rename=error#1"); err != nil {
		t.Fatal(err)
	}
	if err := CreateFile(path, newGen); err == nil {
		t.Fatal("faulted CreateFile succeeded")
	}
	faultinject.Deactivate()
	s, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !samePoints(s, oldGen) {
		t.Fatal("Recover abandoned the intact published generation")
	}
	if _, err := os.Stat(path + TempSuffix); !os.IsNotExist(err) {
		t.Fatal("stale temp not cleaned up")
	}
}

// TestRecoverRejectsTornTemp: a crash mid-write leaves a torn temp. Recover
// must discard it and serve the old generation.
func TestRecoverRejectsTornTemp(t *testing.T) {
	defer faultinject.Deactivate()
	oldGen := buildDiagram(t, 25, 25)
	newGen := buildDiagram(t, 35, 26)
	path := filepath.Join(t.TempDir(), "diag.sky")
	if err := CreateFile(path, oldGen); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Activate("store.write.page=error#1"); err != nil {
		t.Fatal(err)
	}
	if err := CreateFile(path, newGen); err == nil {
		t.Fatal("faulted CreateFile succeeded")
	}
	faultinject.Deactivate()
	s, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !samePoints(s, oldGen) {
		t.Fatal("Recover served something other than the intact old generation")
	}
	if _, err := os.Stat(path + TempSuffix); !os.IsNotExist(err) {
		t.Fatal("torn temp not cleaned up")
	}
}

// TestRecoverBothGenerationsTorn: with the main file corrupted and only a
// torn temp beside it, Recover must reject the lot with ErrCorrupt rather
// than serve garbage.
func TestRecoverBothGenerationsTorn(t *testing.T) {
	defer faultinject.Deactivate()
	gen := buildDiagram(t, 25, 27)
	path := filepath.Join(t.TempDir(), "diag.sky")
	if err := CreateFile(path, gen); err != nil {
		t.Fatal(err)
	}
	// Corrupt the published file in place (bit rot), then leave a torn temp.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+TempSuffix, raw[:headerSize+3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Recover of two torn generations: want ErrCorrupt, got %v", err)
	}
}

// TestErrCorruptDistinguishesIOErrors pins the error taxonomy: checksum and
// structure damage wrap ErrCorrupt, while a failing disk read does not.
func TestErrCorruptDistinguishesIOErrors(t *testing.T) {
	defer faultinject.Deactivate()
	gen := buildDiagram(t, 20, 28)
	path := filepath.Join(t.TempDir(), "diag.sky")
	if err := CreateFile(path, gen); err != nil {
		t.Fatal(err)
	}

	// Damage → ErrCorrupt.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damaged := append([]byte(nil), raw...)
	damaged[headerSize+10] ^= 0x40
	bad := filepath.Join(t.TempDir(), "bad.sky")
	if err := os.WriteFile(bad, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMmap(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("damaged file: want ErrCorrupt, got %v", err)
	}

	// Injected I/O failure on a clean file → plain error, NOT ErrCorrupt.
	if err := faultinject.Activate("store.open.read=error:disk stall#1"); err != nil {
		t.Fatal(err)
	}
	_, err = OpenMmap(path)
	faultinject.Deactivate()
	if err == nil {
		t.Fatal("injected read failure ignored")
	}
	if errors.Is(err, ErrCorrupt) {
		t.Fatalf("I/O failure misclassified as corruption: %v", err)
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("want the injected error to surface, got %v", err)
	}
}

// TestTornWriteEveryTruncation hammers the torn-write guarantee from the
// other side: every possible truncation point of a valid file must either
// fail to open or (never) open as something else — no truncation may yield a
// silently different diagram.
func TestTornWriteEveryTruncation(t *testing.T) {
	gen := buildDiagram(t, 12, 29)
	path := filepath.Join(t.TempDir(), "diag.sky")
	if err := CreateFile(path, gen); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stride := len(raw)/97 + 1 // ~97 cut points across the file
	for cut := 0; cut < len(raw); cut += stride {
		torn := filepath.Join(t.TempDir(), fmt.Sprintf("cut%d.sky", cut))
		if err := os.WriteFile(torn, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenMmap(torn); err == nil {
			t.Fatalf("file truncated to %d/%d bytes opened cleanly", cut, len(raw))
		}
	}
}

// TestBitRotAnySingleByteRejected is the bit-rot counterpart of the
// truncation sweep: flipping ONE bit at any offset — header, points, index,
// page payload, or the trailer itself — must make OpenMmap fail. Offsets past
// the magic+version prefix must classify as ErrCorrupt (the full-file
// checksum runs before any field of the header is trusted); a version-byte
// flip may surface as an unsupported-version error instead, but never as a
// clean open.
func TestBitRotAnySingleByteRejected(t *testing.T) {
	gen := buildDiagram(t, 15, 31)
	path := filepath.Join(t.TempDir(), "diag.sky")
	if err := CreateFile(path, gen); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	stride := len(raw)/101 + 1 // ~101 probe offsets across the file
	offsets := []int{0, 8, 11, headerSize, len(raw) - trailerSize, len(raw) - 1}
	for off := stride; off < len(raw); off += stride {
		offsets = append(offsets, off)
	}
	for _, off := range offsets {
		rotted := append([]byte(nil), raw...)
		rotted[off] ^= 0x01
		p := filepath.Join(dir, fmt.Sprintf("rot%d.sky", off))
		if err := os.WriteFile(p, rotted, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenMmap(p)
		if err == nil {
			t.Fatalf("byte %d/%d flipped, file opened cleanly", off, len(raw))
		}
		if (off < 8 || off >= 12) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("byte %d flipped: want ErrCorrupt, got %v", off, err)
		}
	}
}
