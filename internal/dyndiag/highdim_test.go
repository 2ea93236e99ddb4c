package dyndiag

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/skyline"
)

func genHD(rng *rand.Rand, n, dim, domain int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		c := make([]float64, dim)
		for j := range c {
			if domain > 0 {
				c[j] = float64(rng.Intn(domain))
			} else {
				c[j] = rng.Float64() * 10
			}
		}
		pts[i] = geom.Point{ID: i, Coords: c}
	}
	return pts
}

func TestHDBaselineMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pts := genHD(rng, 4, 3, 0)
	d, err := BuildBaselineHD(pts, 3)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < d.Sub.NumSubcells(); off++ {
		idx := d.Sub.Unflatten(off)
		q := d.Sub.RepQuery(idx)
		want := geom.SortIDs(geom.IDs(skyline.DynamicSkyline(pts, q)))
		got := d.Cell(idx)
		if len(got) != len(want) {
			t.Fatalf("subcell %v: got %v want %v", idx, got, want)
		}
		for k := range want {
			if int(got[k]) != want[k] {
				t.Fatalf("subcell %v: got %v want %v", idx, got, want)
			}
		}
	}
}

func TestHDScanningMatchesBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 6; trial++ {
		dim := 3 + trial%2
		n := 3 + trial%2
		domain := 0
		if trial >= 3 {
			domain = 4 // coincident bisectors
		}
		pts := genHD(rng, n, dim, domain)
		base, err := BuildBaselineHD(pts, dim)
		if err != nil {
			t.Fatal(err)
		}
		scan, err := BuildScanningHD(pts, dim)
		if err != nil {
			t.Fatal(err)
		}
		if !base.Equal(scan) {
			t.Fatalf("trial %d (n=%d d=%d dom=%d): scanning HD differs from baseline", trial, n, dim, domain)
		}
	}
}

func TestHD2DMatchesPlanar(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	pts := genHD(rng, 6, 2, 0)
	planar, err := BuildScanning(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	hd, err := BuildScanningHD(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < planar.Sub.Cols(); i++ {
		for j := 0; j < planar.Sub.Rows(); j++ {
			if !equalIDs(planar.Cell(i, j), hd.Cell([]int{i, j})) {
				t.Fatalf("subcell (%d,%d): planar %v hd %v", i, j, planar.Cell(i, j), hd.Cell([]int{i, j}))
			}
		}
	}
}

func TestHDQueryAndErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	pts := genHD(rng, 4, 3, 0)
	d, err := BuildScanningHD(pts, 3)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		q := geom.Pt(-1, rng.Float64()*12-1, rng.Float64()*12-1, rng.Float64()*12-1)
		got, err := d.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want := geom.SortIDs(geom.IDs(skyline.DynamicSkyline(pts, q)))
		if len(got) != len(want) {
			t.Fatalf("q=%v: got %v want %v", q, got, want)
		}
	}
	if _, err := d.Query(geom.Pt2(-1, 1, 2)); err == nil {
		t.Fatal("wrong dimension query must fail")
	}
	if _, err := BuildBaselineHD(pts, 2); err == nil {
		t.Fatal("dimension mismatch must fail")
	}
	if _, err := BuildScanningHD(nil, 1); err == nil {
		t.Fatal("dim < 2 must fail")
	}
	empty, err := BuildScanningHD(nil, 3)
	if err != nil || empty.Sub.NumSubcells() != 1 {
		t.Fatalf("empty HD: %v %v", empty, err)
	}
}

func TestHDSubsetMatchesBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 4; trial++ {
		dim := 3
		n := 3 + trial%2
		domain := 0
		if trial >= 2 {
			domain = 4
		}
		pts := genHD(rng, n, dim, domain)
		base, err := BuildBaselineHD(pts, dim)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := BuildSubsetHD(pts, dim)
		if err != nil {
			t.Fatal(err)
		}
		if !base.Equal(sub) {
			t.Fatalf("trial %d: subset HD differs from baseline", trial)
		}
	}
	empty, err := BuildSubsetHD(nil, 3)
	if err != nil || empty.Sub.NumSubcells() != 1 {
		t.Fatalf("empty subset HD: %v %v", empty, err)
	}
	if _, err := BuildSubsetHD([]geom.Point{geom.Pt2(0, 1, 2)}, 3); err == nil {
		t.Fatal("dimension mismatch must fail")
	}
}
