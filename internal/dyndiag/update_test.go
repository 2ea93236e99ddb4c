package dyndiag

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestDynUpdateMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 4; trial++ {
		pts := genPts(rng, 2+rng.Intn(6), 16)
		d, err := BuildScanning(pts, 1)
		if err != nil {
			t.Fatal(err)
		}
		nextID := 1000
		for step := 0; step < 8; step++ {
			var nd *Diagram
			if len(d.Points) == 0 || rng.Intn(3) > 0 {
				p := geom.Pt2(nextID, float64(rng.Intn(16)), float64(rng.Intn(16)))
				nextID++
				nd, err = d.WithInsert(p)
			} else {
				victim := d.Points[rng.Intn(len(d.Points))].ID
				nd, err = d.WithDelete(victim)
			}
			if err != nil {
				t.Fatal(err)
			}
			want, err := BuildScanning(nd.Points, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !nd.Equal(want) {
				t.Fatalf("trial %d step %d: incremental dynamic update differs from rebuild", trial, step)
			}
			d = nd
		}
	}
}

func TestDynUpdateDuplicateCoordinates(t *testing.T) {
	pts := []geom.Point{
		geom.Pt2(0, 3, 3),
		geom.Pt2(1, 3, 3),
		geom.Pt2(2, 6, 1),
	}
	d, err := BuildScanning(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	nd, err := d.WithInsert(geom.Pt2(3, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	want, err := BuildScanning(nd.Points, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !nd.Equal(want) {
		t.Fatal("duplicate-pile insert differs from rebuild")
	}
	nd2, err := nd.WithDelete(0)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := BuildScanning(nd2.Points, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !nd2.Equal(want2) {
		t.Fatal("duplicate-pile delete differs from rebuild")
	}
}

func TestDynUpdateToAndFromEmpty(t *testing.T) {
	d, err := BuildScanning(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	one, err := d.WithInsert(geom.Pt2(7, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if got := one.Cell(0, 0); len(got) != 1 || got[0] != 7 {
		t.Fatalf("singleton diagram cell = %v", got)
	}
	back, err := one.WithDelete(7)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal(back) {
		t.Fatal("insert then delete must restore the empty diagram")
	}
}

func TestDynUpdateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	pts := genPts(rng, 5, 12)
	d, err := BuildScanning(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.WithInsert(geom.Pt(0, 1, 2, 3)); err == nil {
		t.Fatal("3-D insert must fail")
	}
	if _, err := d.WithInsert(geom.Pt2(pts[0].ID, 500, 500)); err == nil {
		t.Fatal("duplicate id must fail")
	}
	if _, err := d.WithDelete(12345); err == nil {
		t.Fatal("deleting a missing id must fail")
	}
	before := append([]int32(nil), d.Cell(0, 0)...)
	if _, err := d.WithInsert(geom.Pt2(999, 2.5, 2.5)); err != nil {
		t.Fatal(err)
	}
	if !equalIDs(before, d.Cell(0, 0)) {
		t.Fatal("WithInsert mutated the receiver")
	}
}
