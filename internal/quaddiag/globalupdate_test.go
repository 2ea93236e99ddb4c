package quaddiag

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestGlobalUpdateMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 6; trial++ {
		pts := genGP(rng, 3+rng.Intn(15))
		gd, err := BuildGlobal(pts, AlgScanning, 1)
		if err != nil {
			t.Fatal(err)
		}
		nextID := 1000
		for step := 0; step < 10; step++ {
			var nd *GlobalDiagram
			if len(gd.Points) == 0 || rng.Intn(3) > 0 {
				var p geom.Point
				if len(gd.Points) > 0 && step%3 == 2 {
					// Tie with an existing grid line.
					twin := gd.Points[rng.Intn(len(gd.Points))]
					p = geom.Pt2(nextID, twin.X(), rng.Float64()*120-10)
				} else {
					p = geom.Pt2(nextID, rng.Float64()*120-10, rng.Float64()*120-10)
				}
				nextID++
				nd, err = insertGlobal(gd, p)
			} else {
				victim := gd.Points[rng.Intn(len(gd.Points))].ID
				nd, err = deleteGlobal(gd, victim)
			}
			if err != nil {
				t.Fatal(err)
			}
			want, err := BuildGlobal(nd.Points, AlgScanning, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !nd.Equal(want) {
				t.Fatalf("trial %d step %d: incremental global update differs from rebuild", trial, step)
			}
			gd = nd
		}
	}
}

func TestGlobalUpdateDuplicateCoordinates(t *testing.T) {
	// Exact-duplicate coordinate piles exercise the tie rules of the
	// component maintenance (several points on the same grid lines).
	pts := []geom.Point{
		geom.Pt2(0, 2, 2),
		geom.Pt2(1, 2, 2),
		geom.Pt2(2, 5, 1),
	}
	gd, err := BuildGlobal(pts, AlgScanning, 1)
	if err != nil {
		t.Fatal(err)
	}
	nd, err := insertGlobal(gd, geom.Pt2(3, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	want, err := BuildGlobal(nd.Points, AlgScanning, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !nd.Equal(want) {
		t.Fatal("duplicate-pile insert differs from rebuild")
	}
	nd2, err := deleteGlobal(nd, 1)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := BuildGlobal(nd2.Points, AlgScanning, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !nd2.Equal(want2) {
		t.Fatal("duplicate-pile delete differs from rebuild")
	}
}

func TestGlobalUpdateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	pts := genGP(rng, 6)
	gd, err := BuildGlobal(pts, AlgScanning, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := insertGlobal(gd, geom.Pt(0, 1, 2, 3)); err == nil {
		t.Fatal("3-D insert must fail")
	}
	if _, err := insertGlobal(gd, geom.Pt2(pts[0].ID, 500, 500)); err == nil {
		t.Fatal("duplicate id must fail")
	}
	if _, err := deleteGlobal(gd, 12345); err == nil {
		t.Fatal("deleting a missing id must fail")
	}
	if _, err := gd.WithInsert(geom.Pt2(999, 1.5, 1.5), gd.Reflected(0)); err == nil {
		t.Fatal("a mask-0 diagram that was not maintained must be rejected")
	}
	// Receiver unchanged after operations.
	before := append([]int32(nil), gd.Cell(0, 0)...)
	if _, err := insertGlobal(gd, geom.Pt2(999, 1.5, 1.5)); err != nil {
		t.Fatal(err)
	}
	if !equalIDs(before, gd.Cell(0, 0)) {
		t.Fatal("WithInsert mutated the receiver")
	}
}

// insertGlobal maintains a global diagram on its own the way a DiagramSet
// does: its quadrant component (mask 0) first, then the rest around it.
func insertGlobal(gd *GlobalDiagram, p geom.Point) (*GlobalDiagram, error) {
	quad, err := gd.Reflected(0).WithInsert(p)
	if err != nil {
		return nil, err
	}
	return gd.WithInsert(p, quad)
}

// deleteGlobal is insertGlobal for a delete.
func deleteGlobal(gd *GlobalDiagram, id int) (*GlobalDiagram, error) {
	quad, err := gd.Reflected(0).WithDelete(id)
	if err != nil {
		return nil, err
	}
	return gd.WithDelete(id, quad)
}

// compactGlobal compacts mask 0 once and the rest around it.
func compactGlobal(gd *GlobalDiagram) *GlobalDiagram {
	return gd.CompactArena(gd.Reflected(0).CompactArena())
}
