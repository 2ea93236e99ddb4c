// Package polyomino turns per-cell skyline results into skyline polyominoes
// (Definition 4): maximal connected groups of cells sharing the same skyline
// result. It provides the merging step shared by the baseline, DSG and
// scanning diagram algorithms, a canonical Partition representation used to
// compare the output of different algorithms (including the sweeping
// algorithm, which produces polyominoes directly as vertex rings), and
// rasterisation of vertex rings back onto a cell grid.
package polyomino

import (
	"fmt"
	"sort"
)

// Partition assigns every cell of a Cols x Rows grid to a polyomino label.
// Labels are canonicalised to first-appearance order in row-major (j outer,
// i inner) traversal, so two partitions are interchangeable iff their Labels
// are element-wise equal.
type Partition struct {
	Cols, Rows int
	Labels     []int32 // Labels[i*Rows+j], canonical
	NumRegions int
}

// At returns the label of cell (i, j).
func (p *Partition) At(i, j int) int32 { return p.Labels[i*p.Rows+j] }

// Equal reports whether two partitions describe the same subdivision.
func (p *Partition) Equal(q *Partition) bool {
	if p.Cols != q.Cols || p.Rows != q.Rows || p.NumRegions != q.NumRegions {
		return false
	}
	for k := range p.Labels {
		if p.Labels[k] != q.Labels[k] {
			return false
		}
	}
	return true
}

// FromLabels canonicalises an arbitrary labelling into a Partition.
func FromLabels(cols, rows int, raw []int32) (*Partition, error) {
	if len(raw) != cols*rows {
		return nil, fmt.Errorf("polyomino: %d labels for %dx%d grid", len(raw), cols, rows)
	}
	remap := make(map[int32]int32)
	labels := make([]int32, len(raw))
	var next int32
	for j := 0; j < rows; j++ {
		for i := 0; i < cols; i++ {
			v := raw[i*rows+j]
			nv, ok := remap[v]
			if !ok {
				nv = next
				next++
				remap[v] = nv
			}
			labels[i*rows+j] = nv
		}
	}
	return &Partition{Cols: cols, Rows: rows, Labels: labels, NumRegions: int(next)}, nil
}

// MergeCells unions 4-adjacent cells with equal results into polyominoes.
// results(i, j) must return the cell's skyline as an ascending id slice; the
// slice is only read.
func MergeCells(cols, rows int, results func(i, j int) []int32) (*Partition, error) {
	return MergeCellsBy(cols, rows, func(i, j, i2, j2 int) bool {
		return equalIDs(results(i, j), results(i2, j2))
	})
}

// MergeCellsBy unions 4-adjacent cells into polyominoes wherever same
// reports that cell (i, j) and its neighbour (i2, j2) hold equal results.
// The merge is the O(#cells) pass of Section IV-A: every cell is compared
// with its right and then its upper neighbour, in column-major order.
func MergeCellsBy(cols, rows int, same func(i, j, i2, j2 int) bool) (*Partition, error) {
	if cols <= 0 || rows <= 0 {
		return nil, fmt.Errorf("polyomino: empty grid %dx%d", cols, rows)
	}
	uf := newUnionFind(cols * rows)
	id := func(i, j int) int32 { return int32(i*rows + j) }
	for i := 0; i < cols; i++ {
		for j := 0; j < rows; j++ {
			if i+1 < cols && same(i, j, i+1, j) {
				uf.union(id(i, j), id(i+1, j))
			}
			if j+1 < rows && same(i, j, i, j+1) {
				uf.union(id(i, j), id(i, j+1))
			}
		}
	}
	// Full path compression points every cell straight at its root, so the
	// parent array itself becomes the raw labelling.
	for k := range uf.parent {
		uf.parent[k] = uf.find(int32(k))
	}
	return FromLabels(cols, rows, uf.parent)
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

type unionFind struct {
	parent []int32
	rank   []int8
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int32, n), rank: make([]int8, n)}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
	}
	return uf
}

func (uf *unionFind) find(x int32) int32 {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int32) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
}

// Region is one polyomino extracted from a Partition: its cells and, when
// supplied, the common skyline result.
type Region struct {
	Label  int32
	Cells  [][2]int // (i, j) pairs, row-major order
	Result []int32  // ascending ids; nil when not annotated
}

// Regions lists the polyominoes of a partition, annotated with results when
// results != nil. It verifies that annotation is consistent: merging equal
// results must mean every cell of a region reports the same result.
func Regions(p *Partition, results func(i, j int) []int32) ([]Region, error) {
	regs := make([]Region, p.NumRegions)
	for l := range regs {
		regs[l].Label = int32(l)
	}
	for j := 0; j < p.Rows; j++ {
		for i := 0; i < p.Cols; i++ {
			l := p.At(i, j)
			reg := &regs[l]
			reg.Cells = append(reg.Cells, [2]int{i, j})
			if results == nil {
				continue
			}
			r := results(i, j)
			if reg.Result == nil && len(reg.Cells) == 1 {
				reg.Result = append([]int32(nil), r...)
			} else if !equalIDs(reg.Result, r) {
				return nil, fmt.Errorf("polyomino: region %d mixes results %v and %v at cell (%d,%d)",
					l, reg.Result, r, i, j)
			}
		}
	}
	return regs, nil
}

// --- Vertex rings (sweeping output) ----------------------------------------

// Vertex is a corner of a polyomino boundary.
type Vertex struct {
	X, Y float64
}

// Ring is a closed rectilinear boundary, vertices in traversal order; the
// closing edge from the last vertex back to the first is implicit. Rings are
// produced by the sweeping algorithm (Algorithm 4).
type Ring []Vertex

// Contains reports whether q = (x, y) lies strictly inside the ring, by
// even-odd crossing of a ray cast in +x. Callers must not query points lying
// exactly on an edge; the sweeping tests query cell centres, which never do.
func (r Ring) Contains(x, y float64) bool {
	inside := false
	n := len(r)
	for i := 0; i < n; i++ {
		a, b := r[i], r[(i+1)%n]
		if a.X != b.X {
			continue // horizontal edge: the +x ray is parallel, no crossing
		}
		ylo, yhi := a.Y, b.Y
		if ylo > yhi {
			ylo, yhi = yhi, ylo
		}
		// Half-open in y to count shared endpoints once.
		if y >= ylo && y < yhi && x < a.X {
			inside = !inside
		}
	}
	return inside
}

// Rasterize assigns each cell of a cols x rows grid to the ring containing
// its interior sample point, producing a canonical Partition. Cells covered
// by no ring get a shared "outside" label. sample(i, j) must return a point
// strictly interior to cell (i, j) and never on a ring edge.
func Rasterize(cols, rows int, rings []Ring, sample func(i, j int) (x, y float64)) (*Partition, error) {
	raw := make([]int32, cols*rows)
	outside := int32(len(rings))
	for i := 0; i < cols; i++ {
		for j := 0; j < rows; j++ {
			x, y := sample(i, j)
			label := outside
			for ri, ring := range rings {
				if ring.Contains(x, y) {
					label = int32(ri)
					break
				}
			}
			raw[i*rows+j] = label
		}
	}
	return FromLabels(cols, rows, raw)
}

// Area returns the enclosed area of a ring via the shoelace formula
// (absolute value).
func (r Ring) Area() float64 {
	var s float64
	n := len(r)
	for i := 0; i < n; i++ {
		a, b := r[i], r[(i+1)%n]
		s += a.X*b.Y - b.X*a.Y
	}
	if s < 0 {
		s = -s
	}
	return s / 2
}

// SizeHistogram returns, for each region size (in cells), how many regions
// have that size — the diagram statistic reported in experiment E6.
func SizeHistogram(p *Partition) map[int]int {
	counts := make(map[int]int, p.NumRegions)
	for _, l := range p.Labels {
		counts[int(l)]++
	}
	hist := make(map[int]int)
	for _, c := range counts {
		hist[c]++
	}
	return hist
}

// Connected verifies that every region of the partition is 4-connected,
// which MergeCells guarantees by construction and Rasterize must reproduce.
func Connected(p *Partition) bool {
	visited := make([]bool, len(p.Labels))
	seen := make([]bool, p.NumRegions)
	var stack [][2]int
	for sj := 0; sj < p.Rows; sj++ {
		for si := 0; si < p.Cols; si++ {
			k := si*p.Rows + sj
			if visited[k] {
				continue
			}
			l := p.Labels[k]
			if seen[l] {
				return false // second component with the same label
			}
			seen[l] = true
			stack = append(stack[:0], [2]int{si, sj})
			visited[k] = true
			for len(stack) > 0 {
				c := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
					ni, nj := c[0]+d[0], c[1]+d[1]
					if ni < 0 || nj < 0 || ni >= p.Cols || nj >= p.Rows {
						continue
					}
					nk := ni*p.Rows + nj
					if !visited[nk] && p.Labels[nk] == l {
						visited[nk] = true
						stack = append(stack, [2]int{ni, nj})
					}
				}
			}
		}
	}
	return true
}

// SortRegionsBySize orders regions by descending cell count, breaking ties
// by label, for stable reporting.
func SortRegionsBySize(regs []Region) {
	sort.Slice(regs, func(i, j int) bool {
		if len(regs[i].Cells) != len(regs[j].Cells) {
			return len(regs[i].Cells) > len(regs[j].Cells)
		}
		return regs[i].Label < regs[j].Label
	})
}
