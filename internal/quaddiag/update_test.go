package quaddiag

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestWithInsertMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 8; trial++ {
		pts := genGP(rng, 1+rng.Intn(25))
		d, err := BuildBaseline(pts)
		if err != nil {
			t.Fatal(err)
		}
		// A run of inserts, some with fresh coordinates, some creating ties
		// with existing grid lines.
		for step := 0; step < 5; step++ {
			var p geom.Point
			if step%2 == 0 || len(d.Points) == 0 {
				p = geom.Pt2(1000+step, rng.Float64()*120-10, rng.Float64()*120-10)
			} else {
				twin := d.Points[rng.Intn(len(d.Points))]
				p = geom.Pt2(1000+step, twin.X(), rng.Float64()*120-10)
			}
			nd, err := d.WithInsert(p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := BuildBaseline(nd.Points)
			if err != nil {
				t.Fatal(err)
			}
			if !nd.Equal(want) {
				t.Fatalf("trial %d step %d: incremental insert of %v differs from rebuild", trial, step, p)
			}
			d = nd
		}
	}
}

func TestWithDeleteMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 8; trial++ {
		var pts []geom.Point
		if trial%2 == 0 {
			pts = genGP(rng, 5+rng.Intn(25))
		} else {
			n := 5 + rng.Intn(25)
			pts = make([]geom.Point, n)
			for i := range pts {
				pts[i] = geom.Pt2(i, float64(rng.Intn(8)), float64(rng.Intn(8)))
			}
		}
		d, err := BuildBaseline(pts)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 4 && len(d.Points) > 0; step++ {
			victim := d.Points[rng.Intn(len(d.Points))].ID
			nd, err := d.WithDelete(victim)
			if err != nil {
				t.Fatal(err)
			}
			want, err := BuildBaseline(nd.Points)
			if err != nil {
				t.Fatal(err)
			}
			if !nd.Equal(want) {
				t.Fatalf("trial %d step %d: incremental delete of %d differs from rebuild", trial, step, victim)
			}
			d = nd
		}
	}
}

func TestInsertDeleteRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	pts := genGP(rng, 20)
	d, err := BuildScanning(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := geom.Pt2(999, 33.5, 44.5)
	ins, err := d.WithInsert(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ins.WithDelete(999)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal(back) {
		t.Fatal("insert followed by delete must restore the diagram")
	}
}

func TestUpdateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	pts := genGP(rng, 5)
	d, err := BuildBaseline(pts)
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
	// Receiver unchanged after operations.
	before := d.Cell(0, 0)
	if _, err := d.WithInsert(geom.Pt2(999, 1.5, 1.5)); err != nil {
		t.Fatal(err)
	}
	if !equalIDs(before, d.Cell(0, 0)) {
		t.Fatal("WithInsert mutated the receiver")
	}
}

func TestInsertIntoEmptyDiagram(t *testing.T) {
	d, err := BuildBaseline(nil)
	if err != nil {
		t.Fatal(err)
	}
	nd, err := d.WithInsert(geom.Pt2(0, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := nd.Cell(0, 0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("cell (0,0) = %v", got)
	}
	if got := nd.Cell(1, 1); len(got) != 0 {
		t.Fatalf("cell (1,1) = %v", got)
	}
}
