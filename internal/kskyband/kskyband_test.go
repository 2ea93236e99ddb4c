package kskyband

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/quaddiag"
	"repro/internal/skyline"
)

func genGP(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt2(i, rng.Float64()*100, rng.Float64()*100)
	}
	return dataset.GeneralPosition(pts)
}

func TestOfBasics(t *testing.T) {
	pts := []geom.Point{
		geom.Pt2(0, 1, 1), // dominated by none
		geom.Pt2(1, 2, 2), // dominated by p0
		geom.Pt2(2, 3, 3), // dominated by p0, p1
	}
	if got := geom.IDs(Of(pts, 1)); !geom.EqualIDSets(got, []int{0}) {
		t.Fatalf("1-skyband = %v", got)
	}
	if got := geom.IDs(Of(pts, 2)); !geom.EqualIDSets(got, []int{0, 1}) {
		t.Fatalf("2-skyband = %v", got)
	}
	if got := geom.IDs(Of(pts, 3)); !geom.EqualIDSets(got, []int{0, 1, 2}) {
		t.Fatalf("3-skyband = %v", got)
	}
	if Of(pts, 0) != nil {
		t.Fatal("k=0 must be empty")
	}
}

func TestKEquals1IsSkyline(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		pts := genGP(rng, 40)
		band := Of(pts, 1)
		sky := skyline.Of(pts)
		if !geom.EqualIDSets(geom.IDs(band), geom.IDs(sky)) {
			t.Fatalf("1-skyband != skyline: %v vs %v", geom.IDs(band), geom.IDs(sky))
		}
	}
}

func TestBandMonotoneInK(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := genGP(rng, 60)
	prev := map[int]bool{}
	for k := 1; k <= 6; k++ {
		band := Of(pts, k)
		cur := map[int]bool{}
		for _, p := range band {
			cur[p.ID] = true
		}
		for id := range prev {
			if !cur[id] {
				t.Fatalf("point %d left the band when k grew to %d", id, k)
			}
		}
		prev = cur
	}
	if got := Of(pts, len(pts)); len(got) != len(pts) {
		t.Fatal("k=n band must be everything")
	}
}

func TestBand2DSortedMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		pts := genGP(rng, 50)
		sorted := append([]geom.Point(nil), pts...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a].X() < sorted[b].X() })
		for _, k := range []int{1, 2, 3, 7} {
			fast := Band2DSorted(sorted, k)
			brute := Of(pts, k)
			if !geom.EqualIDSets(geom.IDs(fast), geom.IDs(brute)) {
				t.Fatalf("k=%d: fast %v brute %v", k, geom.IDs(fast), geom.IDs(brute))
			}
		}
	}
}

func TestDiagramMatchesPerCellOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 4; trial++ {
		pts := genGP(rng, 15)
		for _, k := range []int{1, 2, 4} {
			d, err := Build(pts, k)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < d.Grid.Cols(); i++ {
				for j := 0; j < d.Grid.Rows(); j++ {
					cx, cy := d.Grid.Corner(i, j)
					var cand []geom.Point
					for _, p := range pts {
						if p.X() > cx && p.Y() > cy {
							cand = append(cand, p)
						}
					}
					want := geom.SortIDs(geom.IDs(Of(cand, k)))
					got := d.Cell(i, j)
					if len(got) != len(want) {
						t.Fatalf("k=%d cell (%d,%d): got %v want %v", k, i, j, got, want)
					}
					for m := range want {
						if int(got[m]) != want[m] {
							t.Fatalf("k=%d cell (%d,%d): got %v want %v", k, i, j, got, want)
						}
					}
				}
			}
		}
	}
}

func TestDiagramK1MatchesSkylineDiagram(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := genGP(rng, 30)
	kd, err := Build(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := quaddiag.BuildScanning(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < kd.Grid.Cols(); i++ {
		for j := 0; j < kd.Grid.Rows(); j++ {
			a, b := kd.Cell(i, j), sd.Cell(i, j)
			if len(a) != len(b) {
				t.Fatalf("cell (%d,%d): %v vs %v", i, j, a, b)
			}
			for m := range a {
				if a[m] != b[m] {
					t.Fatalf("cell (%d,%d): %v vs %v", i, j, a, b)
				}
			}
		}
	}
}

func TestDiagramFinerWithLargerK(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := genGP(rng, 40)
	var prevRegions int
	for _, k := range []int{1, 2, 4} {
		d, err := Build(pts, k)
		if err != nil {
			t.Fatal(err)
		}
		part, err := d.Merge()
		if err != nil {
			t.Fatal(err)
		}
		if part.NumRegions < prevRegions {
			t.Fatalf("k=%d produced fewer polyominoes (%d) than smaller k (%d)",
				k, part.NumRegions, prevRegions)
		}
		prevRegions = part.NumRegions
	}
}

func TestDiagramWithTiesAndErrors(t *testing.T) {
	// Tied data uses the quadratic fallback and must match the oracle.
	pts := []geom.Point{
		geom.Pt2(0, 1, 1), geom.Pt2(1, 1, 2), geom.Pt2(2, 2, 1), geom.Pt2(3, 2, 2),
	}
	d, err := Build(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := d.Query(geom.Pt2(-1, 0, 0))
	want := geom.SortIDs(geom.IDs(Of(pts, 2)))
	if len(got) != len(want) {
		t.Fatalf("tied 2-skyband = %v, want %v", got, want)
	}
	if _, err := Build(pts, 0); err == nil {
		t.Fatal("k=0 must fail")
	}
	if _, err := Build([]geom.Point{geom.Pt(0, 1, 2, 3)}, 1); err == nil {
		t.Fatal("3-D must fail")
	}
}

func TestBuildHDMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := make([]geom.Point, 8)
	for i := range pts {
		pts[i] = geom.Pt(i, rng.Float64()*10, rng.Float64()*10, rng.Float64()*10)
	}
	for _, k := range []int{1, 2, 3} {
		d, err := BuildHD(pts, 3, k)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < d.Grid.NumCells(); off++ {
			idx := d.Grid.Unflatten(off)
			corner := d.Grid.Corner(idx)
			var cand []geom.Point
			for _, p := range pts {
				ok := true
				for a, v := range corner {
					if p.Coords[a] <= v {
						ok = false
						break
					}
				}
				if ok {
					cand = append(cand, p)
				}
			}
			want := geom.SortIDs(geom.IDs(Of(cand, k)))
			got := d.Cell(idx)
			if len(got) != len(want) {
				t.Fatalf("k=%d cell %v: got %v want %v", k, idx, got, want)
			}
		}
	}
	// k=1 HD matches the quadrant HD diagram.
	kd, err := BuildHD(pts, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := quaddiag.BuildBaselineHD(pts, 3)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < kd.Grid.NumCells(); off++ {
		idx := kd.Grid.Unflatten(off)
		a, b := kd.Cell(idx), sd.Cell(idx)
		if len(a) != len(b) {
			t.Fatalf("cell %v: %v vs %v", idx, a, b)
		}
	}
	// Query path + errors.
	if _, err := kd.Query(geom.Pt(-1, 5, 5, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := kd.Query(geom.Pt2(-1, 1, 2)); err == nil {
		t.Fatal("dimension mismatch must fail")
	}
	if _, err := BuildHD(pts, 3, 0); err == nil {
		t.Fatal("k=0 must fail")
	}
	if _, err := BuildHD(pts, 1, 1); err == nil {
		t.Fatal("dim<2 must fail")
	}
	if _, err := BuildHD([]geom.Point{geom.Pt2(0, 1, 2)}, 3, 1); err == nil {
		t.Fatal("dim mismatch must fail")
	}
}
