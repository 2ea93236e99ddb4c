package quaddiag

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestInfluenceMatchesMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	pts := genGP(rng, 25)
	d, err := BuildScanning(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts[:8] {
		reg, err := d.Influence(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		cells := 0
		for i := 0; i < d.Grid.Cols(); i++ {
			for j := 0; j < d.Grid.Rows(); j++ {
				want := containsID(d.Cell(i, j), int32(p.ID))
				if reg.Member[i*d.Grid.Rows()+j] != want {
					t.Fatalf("p%d cell (%d,%d): member=%v want %v", p.ID, i, j,
						reg.Member[i*d.Grid.Rows()+j], want)
				}
				if want {
					cells++
				}
			}
		}
		if reg.Cells != cells {
			t.Fatalf("p%d: Cells=%d counted %d", p.ID, reg.Cells, cells)
		}
		if cells > 0 && reg.Area <= 0 {
			t.Fatalf("p%d: member cells but zero area", p.ID)
		}
		// Contains agrees with point location for random queries.
		for k := 0; k < 50; k++ {
			q := geom.Pt2(-1, rng.Float64()*120-10, rng.Float64()*120-10)
			got := reg.Contains(d, q)
			want := containsID(d.Query(q), int32(p.ID))
			if got != want {
				t.Fatalf("p%d q=%v: Contains=%v want %v", p.ID, q, got, want)
			}
		}
	}
	if _, err := d.Influence(424242); err == nil {
		t.Fatal("unknown id must fail")
	}
}

func TestInfluenceEveryPointHasRegion(t *testing.T) {
	// Every point is the sole answer for queries just left-below itself, so
	// every point's influence region is non-empty.
	rng := rand.New(rand.NewSource(62))
	pts := genGP(rng, 20)
	d, err := BuildScanning(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		reg, err := d.Influence(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		if reg.Cells == 0 {
			t.Fatalf("p%d has an empty influence region", p.ID)
		}
	}
}

func TestInfluenceRanking(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	pts := genGP(rng, 30)
	d, err := BuildScanning(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	rank, err := d.InfluenceRanking()
	if err != nil {
		t.Fatal(err)
	}
	if len(rank) != len(pts) {
		t.Fatalf("ranking covers %d of %d points", len(rank), len(pts))
	}
	total := 0
	for k := 1; k < len(rank); k++ {
		if rank[k].Cells > rank[k-1].Cells {
			t.Fatal("ranking not descending")
		}
	}
	for _, rc := range rank {
		reg, err := d.Influence(int(rc.ID))
		if err != nil {
			t.Fatal(err)
		}
		if reg.Cells != rc.Cells {
			t.Fatalf("p%d: ranking says %d cells, region says %d", rc.ID, rc.Cells, reg.Cells)
		}
		total += rc.Cells
	}
	if total == 0 {
		t.Fatal("no influence anywhere")
	}
}
