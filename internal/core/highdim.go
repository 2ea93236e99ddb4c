package core

import (
	"fmt"

	"repro/internal/dyndiag"
	"repro/internal/quaddiag"
)

// The high-dimensional API mirrors the planar one (Section IV-E and the
// Section V extension): build once, query by point location. Hyper-cell
// counts grow as n^d, so these are for modest n — exactly the regime the
// paper evaluates.

// HDQuadrantDiagram answers first-orthant skyline queries in d dimensions.
type HDQuadrantDiagram struct {
	d    *quaddiag.HDDiagram
	byID map[int32]Point
}

// HDGlobalDiagram answers global skyline queries in d dimensions.
type HDGlobalDiagram struct {
	d    *quaddiag.GlobalHDDiagram
	byID map[int32]Point
}

// HDDynamicDiagram answers dynamic skyline queries in d dimensions.
type HDDynamicDiagram struct {
	d    *dyndiag.HDDiagram
	byID map[int32]Point
}

func (o Options) hdAlg() (quaddiag.HDAlgorithm, error) {
	switch o.Algorithm {
	case "":
		return quaddiag.HDAlgDSG, nil // the fastest HD construction (E7)
	case "baseline", "dsg", "scanning":
		return quaddiag.HDAlgorithm(o.Algorithm), nil
	default:
		return "", fmt.Errorf("core: unknown HD algorithm %q", o.Algorithm)
	}
}

// BuildQuadrantHD precomputes the d-dimensional first-orthant diagram.
func BuildQuadrantHD(pts []Point, dim int, opts Options) (*HDQuadrantDiagram, error) {
	if err := checkIDs(pts); err != nil {
		return nil, err
	}
	alg, err := opts.hdAlg()
	if err != nil {
		return nil, err
	}
	var d *quaddiag.HDDiagram
	switch alg {
	case quaddiag.HDAlgBaseline:
		d, err = quaddiag.BuildBaselineHD(pts, dim)
	case quaddiag.HDAlgDSG:
		d, err = quaddiag.BuildDSGHD(pts, dim)
	case quaddiag.HDAlgScanning:
		d, err = quaddiag.BuildScanningHD(pts, dim)
	}
	if err != nil {
		return nil, err
	}
	return &HDQuadrantDiagram{d: d, byID: indexByID(pts)}, nil
}

// Query returns the first-orthant skyline ids for q.
func (hd *HDQuadrantDiagram) Query(q Point) ([]int32, error) { return hd.d.Query(q) }

// QueryPoints resolves Query results to points.
func (hd *HDQuadrantDiagram) QueryPoints(q Point) ([]Point, error) {
	ids, err := hd.d.Query(q)
	if err != nil {
		return nil, err
	}
	return resolve(hd.byID, ids), nil
}

// BuildGlobalHD precomputes the d-dimensional global diagram.
func BuildGlobalHD(pts []Point, dim int, opts Options) (*HDGlobalDiagram, error) {
	if err := checkIDs(pts); err != nil {
		return nil, err
	}
	alg, err := opts.hdAlg()
	if err != nil {
		return nil, err
	}
	d, err := quaddiag.BuildGlobalHD(pts, dim, alg)
	if err != nil {
		return nil, err
	}
	return &HDGlobalDiagram{d: d, byID: indexByID(pts)}, nil
}

// Query returns the global skyline ids for q.
func (hd *HDGlobalDiagram) Query(q Point) ([]int32, error) { return hd.d.Query(q) }

// QueryPoints resolves Query results to points.
func (hd *HDGlobalDiagram) QueryPoints(q Point) ([]Point, error) {
	ids, err := hd.d.Query(q)
	if err != nil {
		return nil, err
	}
	return resolve(hd.byID, ids), nil
}

// BuildDynamicHD precomputes the d-dimensional dynamic diagram. Algorithm
// selection: "" or "scanning" → incremental scan, "subset" → Algorithm 6
// generalisation, "baseline" → from scratch per subcell.
func BuildDynamicHD(pts []Point, dim int, opts Options) (*HDDynamicDiagram, error) {
	if err := checkIDs(pts); err != nil {
		return nil, err
	}
	var d *dyndiag.HDDiagram
	var err error
	switch opts.Algorithm {
	case "", "scanning":
		d, err = dyndiag.BuildScanningHD(pts, dim)
	case "subset":
		d, err = dyndiag.BuildSubsetHD(pts, dim)
	case "baseline":
		d, err = dyndiag.BuildBaselineHD(pts, dim)
	default:
		return nil, fmt.Errorf("core: unknown HD dynamic algorithm %q", opts.Algorithm)
	}
	if err != nil {
		return nil, err
	}
	return &HDDynamicDiagram{d: d, byID: indexByID(pts)}, nil
}

// Query returns the dynamic skyline ids for q.
func (hd *HDDynamicDiagram) Query(q Point) ([]int32, error) { return hd.d.Query(q) }

// QueryPoints resolves Query results to points.
func (hd *HDDynamicDiagram) QueryPoints(q Point) ([]Point, error) {
	ids, err := hd.d.Query(q)
	if err != nil {
		return nil, err
	}
	return resolve(hd.byID, ids), nil
}
