package dsg

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

func randomPoints(rng *rand.Rand, n, d, domain int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		c := make([]float64, d)
		for j := range c {
			if domain > 0 {
				c[j] = float64(rng.Intn(domain))
			} else {
				c[j] = rng.Float64()
			}
		}
		pts[i] = geom.Point{ID: i, Coords: c}
	}
	return pts
}

// directParentsBrute computes direct parents by definition.
func directParentsBrute(pts []geom.Point, ci int) []int {
	var out []int
	c := pts[ci]
	for pi, p := range pts {
		if pi == ci || !geom.Dominates(p, c) {
			continue
		}
		direct := true
		for qi, q := range pts {
			if qi == ci || qi == pi {
				continue
			}
			if geom.Dominates(p, q) && geom.Dominates(q, c) {
				direct = false
				break
			}
		}
		if direct {
			out = append(out, pi)
		}
	}
	return out
}

func TestDirectEdgesMatchDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		d := 2 + trial%2
		pts := randomPoints(rng, 40, d, 0)
		g := Build(pts)
		for ci := range pts {
			want := directParentsBrute(pts, ci)
			got := make([]int, len(g.Parents[ci]))
			for i, v := range g.Parents[ci] {
				got[i] = int(v)
			}
			if !geom.EqualIDSets(got, want) {
				t.Fatalf("trial %d d=%d: parents of %d = %v, want %v", trial, d, ci, got, want)
			}
		}
	}
}

func TestGraphConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := randomPoints(rng, 100, 2, 0)
	g := Build(pts)
	// Children and parents are mirror images.
	edges := 0
	for pi, cs := range g.Children {
		for _, ci := range cs {
			edges++
			found := false
			for _, back := range g.Parents[ci] {
				if int(back) == pi {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge %d->%d missing reverse link", pi, ci)
			}
			if !geom.Dominates(pts[pi], pts[ci]) {
				t.Fatalf("edge %d->%d without dominance", pi, ci)
			}
			// Edges never point to a lower or equal layer.
			if g.LayerOf[pi] >= g.LayerOf[ci] {
				t.Fatalf("edge %d(layer %d) -> %d(layer %d)", pi, g.LayerOf[pi], ci, g.LayerOf[ci])
			}
		}
	}
	if edges != g.NumEdges() {
		t.Fatalf("NumEdges=%d, counted %d", g.NumEdges(), edges)
	}
	// Parent counts match.
	counts := g.ParentCounts()
	for i := range pts {
		if int(counts[i]) != len(g.Parents[i]) {
			t.Fatalf("count mismatch at %d", i)
		}
	}
	// Exactly the skyline has zero parents.
	first := g.FirstLayerPositions()
	zero := map[int32]bool{}
	for i := range pts {
		if counts[i] == 0 {
			zero[int32(i)] = true
		}
	}
	if len(zero) != len(first) {
		t.Fatalf("zero-parent count %d != skyline size %d", len(zero), len(first))
	}
	for _, f := range first {
		if !zero[f] {
			t.Fatalf("skyline position %d has parents", f)
		}
	}
}

func TestRunningExampleGraph(t *testing.T) {
	// Figure 6 of the paper: p6 directly dominates p3 (among others); the
	// first layer of the reconstructed hotels is the dataset skyline.
	hotels := dataset.Hotels()
	g := Build(hotels)
	if len(g.Layers) == 0 {
		t.Fatal("no layers")
	}
	// p11 = (11,70) and p1 = (2,94) and p6 = (4,88) are mutually
	// incomparable minima; layer 1 must contain p6 and p11.
	layer1 := geom.IDs(g.Layers[0])
	has := func(id int) bool {
		for _, v := range layer1 {
			if v == id {
				return true
			}
		}
		return false
	}
	if !has(6) || !has(11) {
		t.Fatalf("layer 1 = %v, want p6 and p11 present", layer1)
	}
	// DAG acyclicity via layer monotonicity is checked in TestGraphConsistency;
	// here confirm a known direct edge: p3=(14,91) is dominated by p8=(12,95)?
	// No (95>91) — but by p6=(4,88): 4<=14, 88<=91 → yes, and no point sits
	// between them, so the edge p6→p3 must exist.
	pos := map[int]int{}
	for i, p := range hotels {
		pos[p.ID] = i
	}
	found := false
	for _, c := range g.Children[pos[6]] {
		if hotels[c].ID == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected direct edge p6 -> p3; children of p6: %v", g.Children[pos[6]])
	}
}

func TestEmptyAndSingle(t *testing.T) {
	g := Build(nil)
	if g.NumEdges() != 0 || len(g.Layers) != 0 {
		t.Fatal("empty graph should be empty")
	}
	g = Build([]geom.Point{geom.Pt2(0, 1, 1)})
	if g.NumEdges() != 0 || len(g.Layers) != 1 {
		t.Fatal("single point graph malformed")
	}
}

func TestBuildFullContainsAllDominanceLinks(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := randomPoints(rng, 40, 2, 0)
	full := BuildFull(pts)
	direct := Build(pts)
	if full.NumEdges() < direct.NumEdges() {
		t.Fatalf("full graph has %d edges, direct has %d", full.NumEdges(), direct.NumEdges())
	}
	edges := 0
	for pi, p := range pts {
		for ci, c := range pts {
			if pi != ci && geom.Dominates(p, c) {
				edges++
				found := false
				for _, ch := range full.Children[pi] {
					if int(ch) == ci {
						found = true
					}
				}
				if !found {
					t.Fatalf("missing full edge %d->%d", pi, ci)
				}
			}
		}
	}
	if edges != full.NumEdges() {
		t.Fatalf("edge count %d != %d", full.NumEdges(), edges)
	}
	if BuildFull(nil).NumEdges() != 0 {
		t.Fatal("empty full graph")
	}
}
