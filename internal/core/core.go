// Package core is the public face of the skyline-diagram library: build a
// diagram once, answer skyline queries for arbitrary query points by point
// location — the skyline counterpart of using a Voronoi diagram for nearest
// neighbour queries.
//
// Three query semantics are supported, mirroring the paper:
//
//   - Quadrant skyline: the skyline of the points in the query's first
//     quadrant (BuildQuadrant).
//   - Global skyline: the union of the skylines of all four quadrants
//     (BuildGlobal).
//   - Dynamic skyline: the skyline under the |p - q| mapping (BuildDynamic).
//
// A minimal session:
//
//	d, err := core.BuildQuadrant(points, core.Options{})
//	if err != nil { ... }
//	ids := d.Query(core.Pt(-1, 10, 80))
//
// A server answers into a reused buffer instead, AppendQueryXY(buf[:0], x, y),
// which allocates nothing for any kind; the global kind merges each answer
// from its four quadrant components when it is read.
//
// Construction algorithms can be selected explicitly via Options.Algorithm;
// by default the fastest general construction is used, falling back to the
// baseline when the dataset violates the optimized algorithms' general-
// position requirement (duplicate coordinate values on an axis).
package core

import (
	"fmt"
	"time"

	"repro/internal/dyndiag"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/polyomino"
	"repro/internal/quaddiag"
	"repro/internal/skyline"
)

// Point re-exports the library's point type.
type Point = geom.Point

// Pt constructs a point with the given id and coordinates.
func Pt(id int, coords ...float64) Point { return geom.Pt(id, coords...) }

// Options configures diagram construction.
type Options struct {
	// Algorithm selects the construction: for quadrant/global diagrams one of
	// "baseline", "dsg", "scanning"; for dynamic diagrams one of "baseline",
	// "subset", "scanning". Empty selects the scanning construction, which is
	// the fastest cell-level algorithm and handles duplicate coordinates.
	Algorithm string
	// RequireGeneralPosition makes the build fail with a *geom.TieError when
	// the dataset has duplicate coordinate values on an axis, instead of
	// handling them. Useful when the caller intends to run the sweeping
	// construction (quaddiag.BuildSweeping) on the same data later.
	RequireGeneralPosition bool
	// Metrics, when non-nil, receives build-side instrumentation: every
	// successful Build* reports its duration (skydiag_build_seconds), a
	// completion count (skydiag_builds_total), and the resulting cell count
	// (skydiag_build_cells; subcells for the dynamic diagram), each labelled
	// with kind=quadrant|global|dynamic.
	Metrics *metrics.Registry
	// Workers is how many goroutines run a build: 0 (the default) and 1
	// build on the calling goroutine, a negative value uses GOMAXPROCS, and
	// a positive value uses exactly that many. It never selects the
	// algorithm: the scanning constructions (Algorithms 3 and 7) share their
	// cells among the workers, every other Algorithm runs on one goroutine,
	// and the global kind builds its reflected components concurrently when
	// there is more than one worker. The output is the same for every value.
	Workers int
}

// observeBuild reports one completed diagram build to the optional registry.
func observeBuild(reg *metrics.Registry, kind string, elapsed time.Duration, cells int) {
	if reg == nil {
		return
	}
	reg.Counter("skydiag_builds_total",
		"Diagram builds completed, by kind.", "kind", kind).Inc()
	reg.Histogram("skydiag_build_seconds",
		"Diagram build duration in seconds, by kind.", "kind", kind).ObserveDuration(elapsed)
	reg.Gauge("skydiag_build_cells",
		"Cells (subcells for dynamic) in the most recently built diagram, by kind.",
		"kind", kind).Set(float64(cells))
}

func (o Options) quadrantAlg(pts []Point) (quaddiag.Algorithm, error) {
	if o.RequireGeneralPosition {
		if err := geom.CheckGeneralPosition(pts); err != nil {
			return "", err
		}
	}
	if o.Algorithm != "" {
		return quaddiag.Algorithm(o.Algorithm), nil
	}
	return quaddiag.AlgScanning, nil
}

func (o Options) dynamicAlg() dyndiag.Algorithm {
	if o.Algorithm != "" {
		return dyndiag.Algorithm(o.Algorithm)
	}
	return dyndiag.AlgScanning
}

// Diagram is the common query interface of all built diagrams. Every answer
// lists its ids ascending.
type Diagram interface {
	// Query returns the ids of the skyline result for query point q.
	Query(q Point) []int32
	// QueryXY is Query on raw coordinates, avoiding the Point wrapper. The
	// quadrant and dynamic kinds return a slice of the diagram's interned
	// arena, which must not be modified, and allocate nothing. The global
	// kind merges the cell's four quadrant components into a fresh slice.
	QueryXY(x, y float64) []int32
	// AppendQueryXY appends QueryXY's answer to dst and returns the extended
	// slice: the serving hot path. Once dst has the capacity it performs
	// zero allocations for every kind.
	AppendQueryXY(dst []int32, x, y float64) []int32
	// QueryPoints resolves the result ids to the original points.
	QueryPoints(q Point) []Point
}

// QuadrantDiagram answers first-quadrant skyline queries.
type QuadrantDiagram struct {
	d *quaddiag.Diagram
}

// GlobalDiagram answers global skyline queries.
type GlobalDiagram struct {
	d *quaddiag.GlobalDiagram
}

// DynamicDiagram answers dynamic skyline queries.
type DynamicDiagram struct {
	d    *dyndiag.Diagram
	byID map[int32]Point
}

func indexByID(pts []Point) map[int32]Point {
	m := make(map[int32]Point, len(pts))
	for _, p := range pts {
		m[int32(p.ID)] = p
	}
	return m
}

// checkIDs refuses a point whose id does not fit the int32 every diagram
// stores ids as: truncated, it would alias another point's id.
func checkIDs(pts []Point) error {
	for _, p := range pts {
		if p.ID != int(int32(p.ID)) {
			return fmt.Errorf("core: point id %d is outside the int32 range", p.ID)
		}
	}
	return nil
}

// BuildQuadrant precomputes the quadrant skyline diagram of pts.
func BuildQuadrant(pts []Point, opts Options) (*QuadrantDiagram, error) {
	if err := checkIDs(pts); err != nil {
		return nil, err
	}
	alg, err := opts.quadrantAlg(pts)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	d, err := quaddiag.Build(pts, alg, opts.Workers)
	if err != nil {
		return nil, err
	}
	observeBuild(opts.Metrics, "quadrant", time.Since(start), d.Grid.NumCells())
	return &QuadrantDiagram{d: d}, nil
}

// Query implements Diagram.
func (qd *QuadrantDiagram) Query(q Point) []int32 { return qd.d.Query(q) }

// QueryXY implements Diagram.
func (qd *QuadrantDiagram) QueryXY(x, y float64) []int32 { return qd.d.QueryXY(x, y) }

// AppendQueryXY implements Diagram.
func (qd *QuadrantDiagram) AppendQueryXY(dst []int32, x, y float64) []int32 {
	return append(dst, qd.d.QueryXY(x, y)...)
}

// QueryPoints implements Diagram, resolving ids through the diagram's own
// point index.
func (qd *QuadrantDiagram) QueryPoints(q Point) []Point { return qd.d.QueryPoints(q) }

// Polyominoes merges the diagram's cells into its skyline polyominoes.
func (qd *QuadrantDiagram) Polyominoes() (*polyomino.Partition, error) { return qd.d.Merge() }

// Stats reports diagram structure statistics.
func (qd *QuadrantDiagram) Stats() (quaddiag.Stats, error) { return qd.d.ComputeStats() }

// Grid exposes the underlying skyline-cell grid.
func (qd *QuadrantDiagram) Grid() *grid.Grid { return qd.d.Grid }

// Cells exposes the raw per-cell results via the underlying diagram.
func (qd *QuadrantDiagram) Cells() *quaddiag.Diagram { return qd.d }

// WithInsert returns a new diagram covering Points ∪ {p}, maintained
// incrementally (only the cells in p's lower-left region are touched).
func (qd *QuadrantDiagram) WithInsert(p Point) (*QuadrantDiagram, error) {
	nd, err := qd.d.WithInsert(p)
	if err != nil {
		return nil, err
	}
	return &QuadrantDiagram{d: nd}, nil
}

// WithDelete returns a new diagram covering Points without the given id,
// maintained incrementally.
func (qd *QuadrantDiagram) WithDelete(id int) (*QuadrantDiagram, error) {
	nd, err := qd.d.WithDelete(id)
	if err != nil {
		return nil, err
	}
	return &QuadrantDiagram{d: nd}, nil
}

// BuildGlobal precomputes the global skyline diagram of pts.
func BuildGlobal(pts []Point, opts Options) (*GlobalDiagram, error) {
	if err := checkIDs(pts); err != nil {
		return nil, err
	}
	alg, err := opts.quadrantAlg(pts)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	d, err := quaddiag.BuildGlobal(pts, alg, opts.Workers)
	if err != nil {
		return nil, err
	}
	observeBuild(opts.Metrics, "global", time.Since(start), d.Grid.NumCells())
	return &GlobalDiagram{d: d}, nil
}

// buildGlobalAround builds the global diagram of quad's points around quad
// as its mask-0 component, running only the three reflected quadrant
// constructions; it reports a global build.
func buildGlobalAround(quad *QuadrantDiagram, opts Options) (*GlobalDiagram, error) {
	alg, err := opts.quadrantAlg(quad.d.Points)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	d, err := quaddiag.BuildGlobalAround(quad.d, alg, opts.Workers)
	if err != nil {
		return nil, err
	}
	observeBuild(opts.Metrics, "global", time.Since(start), d.Grid.NumCells())
	return &GlobalDiagram{d: d}, nil
}

// Query implements Diagram.
func (gd *GlobalDiagram) Query(q Point) []int32 { return gd.d.Query(q) }

// QueryXY implements Diagram.
func (gd *GlobalDiagram) QueryXY(x, y float64) []int32 { return gd.d.QueryXY(x, y) }

// AppendQueryXY implements Diagram.
func (gd *GlobalDiagram) AppendQueryXY(dst []int32, x, y float64) []int32 {
	return gd.d.AppendQueryXY(dst, x, y)
}

// QueryPoints implements Diagram, resolving ids through the point index of
// the mask-0 component, the quadrant diagram of the same points.
func (gd *GlobalDiagram) QueryPoints(q Point) []Point {
	return gd.d.Reflected(0).Resolve(gd.d.Query(q))
}

// Polyominoes merges the diagram's cells into its skyline polyominoes.
func (gd *GlobalDiagram) Polyominoes() (*polyomino.Partition, error) { return gd.d.Merge() }

// Grid exposes the underlying skyline-cell grid.
func (gd *GlobalDiagram) Grid() *grid.Grid { return gd.d.Grid }

// BuildDynamic precomputes the dynamic skyline diagram of pts. Note the
// diagram has O(min(s, n^2)^2) subcells for domain size s: building it is
// only sensible for modest n or tight domains, exactly as the paper reports.
func BuildDynamic(pts []Point, opts Options) (*DynamicDiagram, error) {
	if err := checkIDs(pts); err != nil {
		return nil, err
	}
	start := time.Now()
	d, err := dyndiag.Build(pts, opts.dynamicAlg(), opts.Workers)
	if err != nil {
		return nil, err
	}
	observeBuild(opts.Metrics, "dynamic", time.Since(start), d.Sub.NumSubcells())
	return &DynamicDiagram{d: d, byID: indexByID(pts)}, nil
}

// Query implements Diagram.
func (dd *DynamicDiagram) Query(q Point) []int32 { return dd.d.Query(q) }

// QueryXY implements Diagram.
func (dd *DynamicDiagram) QueryXY(x, y float64) []int32 { return dd.d.QueryXY(x, y) }

// AppendQueryXY implements Diagram.
func (dd *DynamicDiagram) AppendQueryXY(dst []int32, x, y float64) []int32 {
	return append(dst, dd.d.QueryXY(x, y)...)
}

// QueryPoints implements Diagram.
func (dd *DynamicDiagram) QueryPoints(q Point) []Point {
	return resolve(dd.byID, dd.d.Query(q))
}

// Polyominoes merges the diagram's subcells into its skyline polyominoes.
func (dd *DynamicDiagram) Polyominoes() (*polyomino.Partition, error) { return dd.d.Merge() }

// SubGrid exposes the underlying subcell grid.
func (dd *DynamicDiagram) SubGrid() *grid.SubGrid { return dd.d.Sub }

func resolve(byID map[int32]Point, ids []int32) []Point {
	out := make([]Point, 0, len(ids))
	for _, id := range ids {
		if p, ok := byID[id]; ok {
			out = append(out, p)
		}
	}
	return out
}

// Interface conformance.
var (
	_ Diagram = (*QuadrantDiagram)(nil)
	_ Diagram = (*GlobalDiagram)(nil)
	_ Diagram = (*DynamicDiagram)(nil)
)

// --- Direct (no-precomputation) queries ------------------------------------

// Skyline returns the traditional skyline of pts (minimisation).
func Skyline(pts []Point) []Point { return skyline.Of(pts) }

// QuadrantSkyline answers one quadrant skyline query from scratch.
func QuadrantSkyline(pts []Point, q Point) []Point { return skyline.QuadrantSkyline(pts, q, 0) }

// GlobalSkyline answers one global skyline query from scratch.
func GlobalSkyline(pts []Point, q Point) []Point { return skyline.GlobalSkyline(pts, q) }

// DynamicSkyline answers one dynamic skyline query from scratch.
func DynamicSkyline(pts []Point, q Point) []Point { return skyline.DynamicSkyline(pts, q) }

// Validate checks a dataset for the general-position requirement of the
// optimized constructions, returning nil or a descriptive error.
func Validate(pts []Point) error {
	if err := geom.CheckGeneralPosition(pts); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}
