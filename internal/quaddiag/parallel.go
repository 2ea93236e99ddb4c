package quaddiag

import (
	"runtime"
	"sort"
	"sync"

	"repro/internal/geom"
	"repro/internal/grid"
)

// BuildScanningParallel is the parallel counterpart of the default scanning
// construction, sharded by grid column: each column is scanned top to
// bottom, maintaining the cell skyline incrementally. Moving down one row can only add candidates (the points on
// the crossed horizontal line), and Sky(S ∪ T) = Sky(Sky(S) ∪ T), so each
// cell costs one merge of the previous skyline with the handful of points
// entering at that row — the same incremental character as BuildScanning,
// but with no cross-column dependency, so columns parallelize perfectly.
// Handles duplicate coordinates (the tie rules match the baseline pass).
// workers <= 0 selects GOMAXPROCS. Output is identical to BuildScanning.
func BuildScanningParallel(pts []geom.Point, workers int) (*Diagram, error) {
	if err := require2D(pts); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	g := grid.NewGrid(pts)
	d := newDiagram(pts, g)

	sorted := make([]geom.Point, len(pts))
	copy(sorted, pts)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].X() != sorted[b].X() {
			return sorted[a].X() < sorted[b].X()
		}
		return sorted[a].Y() < sorted[b].Y()
	})
	// enterRow[k] is the highest row whose corner lies strictly below
	// sorted[k]; scanning a column downward, sorted[k] becomes a candidate
	// exactly when row enterRow[k] is reached.
	enterRow := make([]int, len(sorted))
	for k, p := range sorted {
		enterRow[k] = countLT(g.Ys, p.Y())
	}

	cols := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			enter := make([][]geom.Point, g.Rows())
			var cur []geom.Point
			for i := range cols {
				for j := range enter {
					enter[j] = enter[j][:0]
				}
				cx, _ := g.Corner(i, 0)
				for k, p := range sorted {
					if p.X() > cx {
						enter[enterRow[k]] = append(enter[enterRow[k]], p)
					}
				}
				cur = cur[:0]
				var ids []int32 // shared by every row until the skyline changes
				for j := g.Rows() - 1; j >= 0; j-- {
					if nw := enter[j]; len(nw) > 0 {
						cur = skylineMergeInto(cur, nw)
						ids = sortedIDs(cur)
					}
					d.setCell(i, j, ids) // distinct (i, j) per worker: no contention
				}
			}
		}()
	}
	for i := 0; i < g.Cols(); i++ {
		cols <- i
	}
	close(cols)
	wg.Wait()
	d.freeze()
	return d, nil
}

// skylineMergeInto computes Sky(cur ∪ nw) where cur is a skyline and both
// slices are (x, y)-ascending, returning a fresh (x, y)-ascending skyline.
// The keep rules are exactly the baseline pass: a point survives when its y
// is a new minimum, or when it coincides with the last survivor (coincident
// twins never dominate each other).
func skylineMergeInto(cur, nw []geom.Point) []geom.Point {
	merged := make([]geom.Point, 0, len(cur)+len(nw))
	ai, bi := 0, 0
	for ai < len(cur) || bi < len(nw) {
		if bi >= len(nw) || (ai < len(cur) &&
			(cur[ai].X() < nw[bi].X() ||
				(cur[ai].X() == nw[bi].X() && cur[ai].Y() <= nw[bi].Y()))) {
			merged = append(merged, cur[ai])
			ai++
		} else {
			merged = append(merged, nw[bi])
			bi++
		}
	}
	out := merged[:0] // in-place: the write index never passes the read index
	var last geom.Point
	have := false
	for _, p := range merged {
		switch {
		case !have || p.Y() < last.Y():
			out = append(out, p)
			last, have = p, true
		case p.X() == last.X() && p.Y() == last.Y():
			out = append(out, p)
		}
	}
	return out
}

// BuildParallel is Build with the scanning construction run in parallel
// (BuildScanningParallel); every other algorithm has no parallel form and
// runs sequentially through Build. workers <= 0 selects GOMAXPROCS. Output
// is identical to Build with the same algorithm.
func BuildParallel(pts []geom.Point, alg Algorithm, workers int) (*Diagram, error) {
	if alg == AlgScanning {
		return BuildScanningParallel(pts, workers)
	}
	return Build(pts, alg)
}

// BuildGlobalParallel is BuildGlobal with every quadrant run built through
// BuildParallel: the quadrant diagram of pts with all workers, then the three reflected runs concurrently around it
// (BuildGlobalAround), sharing workers (<= 0 selects GOMAXPROCS). Output is
// identical to BuildGlobal.
func BuildGlobalParallel(pts []geom.Point, alg Algorithm, workers int) (*GlobalDiagram, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	quad, err := BuildParallel(pts, alg, workers)
	if err != nil {
		return nil, err
	}
	return BuildGlobalAround(quad, alg, workers)
}
