package quaddiag

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestBuildScanningParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 8; trial++ {
		var pts []geom.Point
		if trial%2 == 0 {
			pts = genGP(rng, 1+rng.Intn(40))
		} else {
			// Tied, duplicate-heavy integer-domain data.
			n := 1 + rng.Intn(40)
			pts = make([]geom.Point, n)
			for i := range pts {
				pts[i] = geom.Pt2(i, float64(rng.Intn(8)), float64(rng.Intn(8)))
			}
		}
		serial, err := BuildScanning(pts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 3, 8} {
			par, err := BuildScanningParallel(pts, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !serial.Equal(par) {
				t.Fatalf("trial %d workers=%d: parallel scanning differs from serial", trial, workers)
			}
		}
	}
	// Empty dataset.
	par, err := BuildScanningParallel(nil, 4)
	if err != nil || len(par.Cell(0, 0)) != 0 {
		t.Fatalf("empty parallel build: %v %v", par, err)
	}
}

// TestBuildParallelDispatch: every algorithm built through BuildParallel
// equals Build, at every worker count, on general-position and tied data.
func TestBuildParallelDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 4; trial++ {
		pts := genGP(rng, 1+rng.Intn(30))
		if trial%2 == 1 {
			// Tied, duplicate-heavy integer-domain data.
			pts = make([]geom.Point, 1+rng.Intn(30))
			for i := range pts {
				pts[i] = geom.Pt2(i, float64(rng.Intn(8)), float64(rng.Intn(8)))
			}
		}
		for _, alg := range []Algorithm{AlgBaseline, AlgDSG, AlgScanning} {
			serial, err := Build(pts, alg)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 1, 3, 8} {
				par, err := BuildParallel(pts, alg, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !serial.Equal(par) {
					t.Fatalf("trial %d alg=%s workers=%d: BuildParallel differs from Build", trial, alg, workers)
				}
			}
		}
	}
	if _, err := BuildParallel(genGP(rng, 5), Algorithm("nope"), 4); err == nil {
		t.Fatal("unknown algorithm must propagate")
	}
}

func TestBuildGlobalParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	pts := genGP(rng, 30)
	serial, err := BuildGlobal(pts, AlgScanning)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 6} {
		par, err := BuildGlobalParallel(pts, AlgScanning, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < serial.Grid.Cols(); i++ {
			for j := 0; j < serial.Grid.Rows(); j++ {
				if !equalIDs(serial.Cell(i, j), par.Cell(i, j)) {
					t.Fatalf("workers=%d cell (%d,%d): %v vs %v", workers, i, j, serial.Cell(i, j), par.Cell(i, j))
				}
			}
		}
	}
	// Error propagation: sweeping-style failure via bad dimension.
	if _, err := BuildGlobalParallel([]geom.Point{geom.Pt(0, 1, 2, 3)}, AlgScanning, 2); err == nil {
		t.Fatal("3-D input must fail")
	}
	if _, err := BuildGlobalParallel(pts, Algorithm("nope"), 2); err == nil {
		t.Fatal("unknown algorithm must propagate")
	}
}
