package store

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/geom"
	"repro/internal/quaddiag"
)

// updateGolden rewrites testdata/*.sky from the current writer:
//
//	go test ./internal/store -run TestGoldenFiles -update-golden
//
// Only do that for an intended format change; the files pin the exact
// bytes every node, delta and checkpoint agree on.
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden store files in testdata")

// goldenQuadrantFresh is a freshly built n=64 quadrant diagram: its
// interned table is already in canonical first-use order.
func goldenQuadrantFresh(t *testing.T) *quaddiag.Diagram {
	return buildDiagram(t, 64, 91)
}

// goldenQuadrantMaintained is the same diagram after 20 maintained writes
// (12 inserts, 8 deletes) with no compaction, so its labels are not in
// canonical order and its arena holds results no cell references.
func goldenQuadrantMaintained(t *testing.T) *quaddiag.Diagram {
	t.Helper()
	d := goldenQuadrantFresh(t)
	var err error
	for k := 0; k < 12; k++ {
		d, err = d.WithInsert(geom.Pt2(7000+k, float64(17*k%97)+0.5, float64(31*k%89)+0.25))
		if err != nil {
			t.Fatal(err)
		}
		if k%3 == 2 {
			if d, err = d.WithDelete(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, id := range []int{7001, 7004, 7007, 40} {
		if d, err = d.WithDelete(id); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestGoldenFiles pins the v4 encoding byte for byte against files written
// by an earlier, independent writer — a fresh quadrant diagram, and a
// maintained one whose labels the encoder must put into canonical order —
// and checks that those files still open.
func TestGoldenFiles(t *testing.T) {
	cases := []struct {
		file  string
		write func(*bytes.Buffer) error
	}{
		{"quadrant-n64.sky", func(b *bytes.Buffer) error { return WriteEpoch(b, goldenQuadrantFresh(t), 7) }},
		{"quadrant-n64-maintained.sky", func(b *bytes.Buffer) error {
			d := goldenQuadrantMaintained(t)
			if e, err := NewEncoder(d, 27); err != nil || e.remap == nil {
				t.Fatal("test premise broken: maintained diagram is already canonical")
			}
			return WriteEpoch(b, d, 27)
		}},
	}
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			var got bytes.Buffer
			if err := c.write(&got); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", c.file)
			if *updateGolden {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("encoded %d bytes differ from the %d-byte golden file %s", got.Len(), len(want), path)
			}
			if _, err := New(want); err != nil {
				t.Fatalf("golden file %s does not open: %v", path, err)
			}
		})
	}
}

// TestDynamicKindFileRefused: testdata/dynamic-n24.sky is a well-formed v4
// file of header kind 2, the dynamic diagram, which earlier writers could
// produce. Every file now holds the quadrant diagram, so each reader of a
// file refuses kind 2 as it refuses any unknown kind: as ErrCorrupt.
func TestDynamicKindFileRefused(t *testing.T) {
	path := filepath.Join("testdata", "dynamic-n24.sky")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(data); !errors.Is(err, ErrCorrupt) {
		t.Errorf("New: err = %v, want ErrCorrupt", err)
	}
	if s, err := OpenMmap(path); !errors.Is(err, ErrCorrupt) {
		if s != nil {
			s.Close()
		}
		t.Errorf("OpenMmap: err = %v, want ErrCorrupt", err)
	}
	if _, err := NewManifest(data); !errors.Is(err, ErrCorrupt) {
		t.Errorf("NewManifest: err = %v, want ErrCorrupt", err)
	}
}
