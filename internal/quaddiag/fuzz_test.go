package quaddiag

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// FuzzScanningMatchesBaseline drives the scanning construction (Theorem 1
// with saturating subtraction and the generalised corner exception) against
// the oracle baseline on arbitrary small integer datasets — the fuzz form of
// the randomized equivalence tests, which is what originally exposed the
// saturating-subtraction requirement.
func FuzzScanningMatchesBaseline(f *testing.F) {
	f.Add([]byte{9, 17, 7, 3, 3, 16, 10, 11}) // the Theorem 1 counterexample shape
	f.Add([]byte{0, 0, 0, 0})                 // duplicates
	f.Add([]byte{1, 2, 3, 4, 5, 6})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 2 {
			return
		}
		if len(raw) > 40 {
			raw = raw[:40]
		}
		n := len(raw) / 2
		pts := make([]geom.Point, n)
		for i := 0; i < n; i++ {
			pts[i] = geom.Pt2(i, float64(raw[2*i]%20), float64(raw[2*i+1]%20))
		}
		base, err := BuildBaseline(pts)
		if err != nil {
			t.Fatal(err)
		}
		scan, err := BuildScanning(pts, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !base.Equal(scan) {
			t.Fatalf("scanning differs from baseline on %v", pts)
		}
		viaDSG, err := BuildDSG(pts)
		if err != nil {
			t.Fatal(err)
		}
		if !base.Equal(viaDSG) {
			t.Fatalf("DSG differs from baseline on %v", pts)
		}
	})
}

// checkInternedAgainstOracle verifies every cell of the interned diagram
// against a from-scratch skyline computation, and that the label indirection
// (Label -> Results table) agrees with Cell.
func checkInternedAgainstOracle(t *testing.T, d *Diagram) {
	t.Helper()
	table := d.Results()
	for i := 0; i < d.Grid.Cols(); i++ {
		for j := 0; j < d.Grid.Rows(); j++ {
			got := d.Cell(i, j)
			want := oracleCell(d.Points, d.Grid, i, j)
			if len(got) != len(want) {
				t.Fatalf("cell (%d,%d): interned %v, naive %v", i, j, got, want)
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("cell (%d,%d): interned %v, naive %v", i, j, got, want)
				}
			}
			viaLabel := table.Result(d.Label(i, j))
			if len(viaLabel) != len(got) {
				t.Fatalf("cell (%d,%d): label lookup %v, Cell %v", i, j, viaLabel, got)
			}
			for k := range got {
				if viaLabel[k] != got[k] {
					t.Fatalf("cell (%d,%d): label lookup %v, Cell %v", i, j, viaLabel, got)
				}
			}
		}
	}
}

// TestInternedMatchesNaiveDistributions drives the interned representation
// against the naive per-cell oracle across the paper's three synthetic
// distributions — correlated data maximizes result sharing (few distinct
// skylines), anti-correlated minimizes it (many long results), so the two
// extremes stress the interner's dedup and its bucket collisions differently.
func TestInternedMatchesNaiveDistributions(t *testing.T) {
	for _, dist := range []dataset.Distribution{
		dataset.Independent, dataset.Correlated, dataset.AntiCorrelated,
	} {
		dist := dist
		t.Run(dist.String(), func(t *testing.T) {
			pts, err := dataset.Generate(dataset.Config{N: 90, Dim: 2, Dist: dist, Seed: 51})
			if err != nil {
				t.Fatal(err)
			}
			d, err := BuildScanning(pts, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkInternedAgainstOracle(t, d)
		})
	}
}

// FuzzInternedMatchesNaive is the fuzz form: arbitrary small integer datasets
// (heavy on duplicate coordinates and duplicate cell results, the interner's
// hard cases) must produce a diagram whose every cell — read through the
// label/arena indirection — equals the naive skyline computed from scratch.
func FuzzInternedMatchesNaive(f *testing.F) {
	f.Add([]byte{9, 17, 7, 3, 3, 16, 10, 11})
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 1}) // duplicates collapse to few results
	f.Add([]byte{1, 2, 3, 4, 5, 6})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 2 {
			return
		}
		if len(raw) > 40 {
			raw = raw[:40]
		}
		n := len(raw) / 2
		pts := make([]geom.Point, n)
		for i := 0; i < n; i++ {
			pts[i] = geom.Pt2(i, float64(raw[2*i]%20), float64(raw[2*i+1]%20))
		}
		d, err := BuildScanning(pts, 1)
		if err != nil {
			t.Fatal(err)
		}
		checkInternedAgainstOracle(t, d)
	})
}
