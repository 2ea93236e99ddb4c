package dyndiag

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/geom"
	"repro/internal/grid"
)

// BuildParallel dispatches to the parallel variant of the named
// construction. workers <= 0 selects GOMAXPROCS. Output is identical to
// Build with the same algorithm.
func BuildParallel(pts []geom.Point, alg Algorithm, workers int) (*Diagram, error) {
	switch alg {
	case AlgBaseline:
		return BuildBaselineParallel(pts, workers)
	case AlgSubset:
		return BuildSubsetParallel(pts, workers)
	case AlgScanning:
		return BuildScanningParallel(pts, workers)
	default:
		return nil, fmt.Errorf("dyndiag: unknown algorithm %q", alg)
	}
}

// BuildBaselineParallel is BuildBaseline with the per-subcell work sharded
// across workers by subcell column — every subcell's dynamic skyline is
// computed from scratch over the full (immutable) point set, so the
// construction is embarrassingly parallel. workers <= 0 selects GOMAXPROCS.
// Output is identical to BuildBaseline.
func BuildBaselineParallel(pts []geom.Point, workers int) (*Diagram, error) {
	if err := require2D(pts); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sg := grid.NewSubGrid(pts)
	d := newDiagram(pts, sg)
	cols := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := newDynScratch(pts) // per-worker scratch: no contention
			for i := range cols {
				for j := 0; j < sg.Rows(); j++ {
					qx, qy := sg.RepXY(i, j)
					sc.begin()
					for pos := range pts {
						sc.add(int32(pos), qx, qy)
					}
					d.setCell(i, j, sc.idsOf(sc.skyline()))
				}
			}
		}()
	}
	for i := 0; i < sg.Cols(); i++ {
		cols <- i
	}
	close(cols)
	wg.Wait()
	d.freeze()
	return d, nil
}

// BuildScanningParallel is BuildScanning with rows processed concurrently:
// the chain of row-start results (crossing horizontal lines upward) is
// inherently sequential, but once every row's first subcell is known, each
// row's left-to-right scan is independent of every other row. workers <= 0
// selects GOMAXPROCS. Output is identical to BuildScanning.
func BuildScanningParallel(pts []geom.Point, workers int) (*Diagram, error) {
	if err := require2D(pts); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sg := grid.NewSubGrid(pts)
	d := newDiagram(pts, sg)
	if len(pts) == 0 {
		d.setCell(0, 0, nil)
		d.freeze()
		return d, nil
	}

	// Phase 1 (sequential): the row-start chain.
	sc := newDynScratch(pts)
	q0x, q0y := sg.RepXY(0, 0)
	sc.begin()
	for pos := range pts {
		sc.add(int32(pos), q0x, q0y)
	}
	rowStarts := make([][]int32, sg.Rows())
	rowStarts[0] = append([]int32(nil), sc.skyline()...)
	for j := 1; j < sg.Rows(); j++ {
		qx, qy := sg.RepXY(0, j)
		sc.begin()
		for _, pos := range rowStarts[j-1] {
			sc.add(pos, qx, qy)
		}
		for _, pos := range sg.YLines[j-1].Involved {
			sc.add(pos, qx, qy)
		}
		rowStarts[j] = append([]int32(nil), sc.skyline()...)
	}

	// Phase 2 (parallel): sweep each row independently.
	rows := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wsc := newDynScratch(pts)
			var cur, alt []int32
			for j := range rows {
				cur = append(cur[:0], rowStarts[j]...)
				d.setCell(0, j, wsc.idsOf(cur))
				for i := 1; i < sg.Cols(); i++ {
					qx, qy := sg.RepXY(i, j)
					wsc.begin()
					for _, pos := range cur {
						wsc.add(pos, qx, qy)
					}
					for _, pos := range sg.XLines[i-1].Involved {
						wsc.add(pos, qx, qy)
					}
					alt = append(alt[:0], wsc.skyline()...)
					cur, alt = alt, cur
					d.setCell(i, j, wsc.idsOf(cur))
				}
			}
		}()
	}
	for j := 0; j < sg.Rows(); j++ {
		rows <- j
	}
	close(rows)
	wg.Wait()
	d.freeze()
	return d, nil
}

// BuildSubsetParallel is BuildSubset with the per-subcell work sharded
// across workers by subcell column — every subcell's computation reads only
// the (immutable) global diagram and writes its own cell, so the
// construction is embarrassingly parallel. workers <= 0 selects GOMAXPROCS.
// Output is identical to BuildSubset.
func BuildSubsetParallel(pts []geom.Point, workers int) (*Diagram, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s, err := newSubsetScan(pts)
	if err != nil {
		return nil, err
	}
	d := newDiagram(pts, s.sg)
	cols := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := newDynScratch(pts) // per-worker scratch: no contention
			for i := range cols {
				s.column(d, sc, i)
			}
		}()
	}
	for i := 0; i < s.sg.Cols(); i++ {
		cols <- i
	}
	close(cols)
	wg.Wait()
	d.freeze()
	return d, nil
}
