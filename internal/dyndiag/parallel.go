package dyndiag

import (
	"runtime"
	"sync"

	"repro/internal/geom"
	"repro/internal/grid"
)

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
