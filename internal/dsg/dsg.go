// Package dsg builds the directed skyline graph (DSG) of Section IV-B: the
// DAG over the dataset whose edges are the *direct* dominance relationships.
// p is a direct parent of c when p dominates c and no third point q satisfies
// p ⪯ q ⪯ c. The paper adapts the full dominance graph of its reference [15]
// to direct links only, because direct links are exactly what the incremental
// diagram algorithm needs.
//
// Why direct links suffice (correctness argument used by quaddiag's DSG
// algorithm): if q dominates c then there is a chain of direct edges
// q → r1 → … → c (induction on the number of points between q and c). The
// scan deletes points in non-decreasing coordinate order along each axis, so
// every dominator of a point is deleted no later than the point's direct
// parents; therefore "all direct parents deleted" implies "all dominators
// deleted", and counting direct parents detects exactly the moment a point
// becomes a skyline point.
package dsg

import (
	"sort"

	"repro/internal/geom"
	"repro/internal/skyline"
)

// Graph is a directed skyline graph. Nodes are dataset positions (not IDs):
// node i corresponds to Points[i]. Edges run from a point to the points it
// directly dominates.
type Graph struct {
	Points   []geom.Point
	Children [][]int32 // Children[i]: positions directly dominated by i
	Parents  [][]int32 // Parents[i]: positions directly dominating i
	Layers   [][]geom.Point
	LayerOf  []int // 1-based skyline layer per position
	numEdges int
}

// Build constructs the DSG. For every point it computes its dominator set
// and keeps the maximal dominators (those not dominating another dominator);
// those are precisely the direct parents. O(n^2) dominator discovery plus a
// skyline computation per point over its dominators.
func Build(pts []geom.Point) *Graph {
	n := len(pts)
	g := &Graph{
		Points:   pts,
		Children: make([][]int32, n),
		Parents:  make([][]int32, n),
		LayerOf:  make([]int, n),
	}
	if n == 0 {
		return g
	}
	g.Layers = skyline.Layers(pts)
	idx := skyline.LayerIndex(g.Layers)
	posOf := make(map[int]int, n)
	for i, p := range pts {
		posOf[p.ID] = i
		g.LayerOf[i] = idx[p.ID]
	}
	// Dominators of each point, then their maxima under reversed dominance.
	for ci, c := range pts {
		var dominators []geom.Point
		for _, p := range pts {
			if p.ID != c.ID && geom.Dominates(p, c) {
				dominators = append(dominators, p)
			}
		}
		if len(dominators) == 0 {
			continue
		}
		direct := maximalPoints(dominators)
		for _, p := range direct {
			pi := posOf[p.ID]
			g.Children[pi] = append(g.Children[pi], int32(ci))
			g.Parents[ci] = append(g.Parents[ci], int32(pi))
			g.numEdges++
		}
	}
	for i := range g.Children {
		sortInt32(g.Children[i])
		sortInt32(g.Parents[i])
	}
	return g
}

// BuildFull constructs the dominance graph with ALL dominance links, not
// just the direct ones — the structure of the paper's reference [15] before
// the paper's adaptation ("we adapted it such that we only include the
// direct links"). The incremental diagram algorithm remains correct on it
// (a point is skyline exactly when all its dominators are deleted), but
// every deletion touches far more links. Exists for the E10 ablation.
func BuildFull(pts []geom.Point) *Graph {
	n := len(pts)
	g := &Graph{
		Points:   pts,
		Children: make([][]int32, n),
		Parents:  make([][]int32, n),
		LayerOf:  make([]int, n),
	}
	if n == 0 {
		return g
	}
	g.Layers = skyline.Layers(pts)
	idx := skyline.LayerIndex(g.Layers)
	for i, p := range pts {
		g.LayerOf[i] = idx[p.ID]
	}
	for ci, c := range pts {
		for pi, p := range pts {
			if pi != ci && geom.Dominates(p, c) {
				g.Children[pi] = append(g.Children[pi], int32(ci))
				g.Parents[ci] = append(g.Parents[ci], int32(pi))
				g.numEdges++
			}
		}
	}
	return g
}

// maximalPoints returns the points of s not dominated-reversed by another:
// p is kept iff no q in s has p ⪯ q. These are the "closest" dominators.
func maximalPoints(s []geom.Point) []geom.Point {
	if len(s) <= 1 {
		return s
	}
	if s[0].Dim() == 2 {
		// Maximisation skyline: negate and reuse the minimisation sweep.
		neg := geom.Reflect(s, (1<<2)-1)
		sky := skyline.Skyline2D(neg)
		keep := make(map[int]bool, len(sky))
		for _, p := range sky {
			keep[p.ID] = true
		}
		var out []geom.Point
		for _, p := range s {
			if keep[p.ID] {
				out = append(out, p)
			}
		}
		return out
	}
	var out []geom.Point
	for i, p := range s {
		maximal := true
		for j, q := range s {
			if i != j && geom.Dominates(p, q) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, p)
		}
	}
	return out
}

func sortInt32(a []int32) {
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
}

// NumEdges returns the number of direct dominance links.
func (g *Graph) NumEdges() int { return g.numEdges }

// ParentCounts returns a fresh slice of direct-parent counts per position,
// the mutable state the incremental diagram algorithm consumes.
func (g *Graph) ParentCounts() []int32 {
	counts := make([]int32, len(g.Points))
	for i, ps := range g.Parents {
		counts[i] = int32(len(ps))
	}
	return counts
}

// FirstLayerPositions returns the positions (indices into Points) of the
// skyline of the full dataset, ascending.
func (g *Graph) FirstLayerPositions() []int32 {
	var out []int32
	for i, l := range g.LayerOf {
		if l == 1 {
			out = append(out, int32(i))
		}
	}
	return out
}
