package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/quaddiag"
)

// Incremental maintenance entry points. A DiagramSet bundles the three
// diagram kinds a serving snapshot carries; Apply advances it by one insert
// or delete, maintaining every diagram incrementally (copy-on-write over the
// interned result tables — see the quaddiag and dyndiag update files), and
// ApplyBatch folds a whole batch of queued writes into one new set with
// per-op error attribution, the server's write-coalescing primitive.

// ErrRejected classifies update failures caused by the operation itself — a
// duplicate id on insert, an unknown id on delete, a malformed point. A
// rejected op leaves the set unchanged and is safe to report per-op inside a
// batch; any other error is an internal failure that aborts the batch.
var ErrRejected = errors.New("update rejected")

// Op is one queued insert or delete.
type Op struct {
	Insert bool
	Point  Point // the inserted point; unused for deletes
	ID     int   // the deleted id; mirrors Point.ID for inserts
}

// InsertOp returns the op inserting p.
func InsertOp(p Point) Op { return Op{Insert: true, Point: p, ID: p.ID} }

// DeleteOp returns the op deleting the point with the given id.
func DeleteOp(id int) Op { return Op{ID: id} }

func (op Op) String() string {
	if op.Insert {
		return fmt.Sprintf("insert(%d)", op.Point.ID)
	}
	return fmt.Sprintf("delete(%d)", op.ID)
}

// UpdateOptions configures DiagramSet construction and maintenance.
type UpdateOptions struct {
	// MaxDynamicPoints disables the dynamic diagram (O(n^4) subcells) when
	// the point count exceeds it, exactly like the server's knob of the same
	// name: the diagram is maintained while len(Points) <= MaxDynamicPoints
	// and dropped (nil) otherwise. An update that shrinks the set back under
	// the threshold rebuilds it.
	MaxDynamicPoints int
	// Workers is how many goroutines run any full (re)build this
	// maintenance pass needs, as Options.Workers.
	Workers int
	// Metrics, when non-nil, receives build instrumentation for full
	// (re)builds, as Options.Metrics. Incremental derivations are not
	// builds and do not count toward skydiag_builds_total; they count the
	// label tiles they copy and the cells they write instead
	// (skydiag_maintenance_tiles_copied_total and
	// skydiag_maintenance_cells_written_total, by kind: quadrant is the
	// quadrant diagram, global its three reflected components).
	Metrics *metrics.Registry
	// FullRebuild disables incremental maintenance of the global and dynamic
	// diagrams: every op rebuilds them from scratch (concurrently), the
	// pre-incremental behavior. An escape hatch and the benchmark baseline.
	FullRebuild bool
	// ObserveKind, when non-nil, receives the per-kind maintenance duration
	// of every applied op (kind = quadrant|global|dynamic).
	ObserveKind func(kind string, elapsed time.Duration)
}

func (o UpdateOptions) buildOpts() Options {
	return Options{Metrics: o.Metrics, Workers: o.Workers}
}

func (o UpdateOptions) observe(kind string, t0 time.Time) {
	if o.ObserveKind != nil {
		o.ObserveKind(kind, time.Since(t0))
	}
}

// countWork adds one derivation's maintenance work to the registry.
func (o UpdateOptions) countWork(kind string, w quaddiag.Work) {
	if o.Metrics == nil {
		return
	}
	o.Metrics.Counter("skydiag_maintenance_tiles_copied_total",
		"Label tiles copied by incremental maintenance, by kind.", "kind", kind).Add(int64(w.TilesCopied))
	o.Metrics.Counter("skydiag_maintenance_cells_written_total",
		"Cells written by incremental maintenance, by kind.", "kind", kind).Add(int64(w.CellsWritten))
}

// DiagramSet is an immutable bundle of the three diagram kinds over one
// point set. Apply/ApplyBatch return a new set; the receiver is unchanged.
// Global is built around Quadrant: the quadrant diagram is the global
// diagram's mask-0 component, held once. BuildSet, Apply and CompactArenas
// keep it so.
type DiagramSet struct {
	// Points is the quadrant diagram's point slice, in ascending id order.
	Points   []Point
	Quadrant *QuadrantDiagram
	Global   *GlobalDiagram
	Dynamic  *DynamicDiagram // nil when over MaxDynamicPoints
}

// BuildSet builds all three diagrams of pts from scratch.
func BuildSet(pts []Point, opts UpdateOptions) (*DiagramSet, error) {
	bo := opts.buildOpts()
	quad, err := BuildQuadrant(pts, bo)
	if err != nil {
		return nil, fmt.Errorf("core: build quadrant: %w", err)
	}
	glob, err := buildGlobalAround(quad, bo)
	if err != nil {
		return nil, fmt.Errorf("core: build global: %w", err)
	}
	set := &DiagramSet{Points: quad.d.Points, Quadrant: quad, Global: glob}
	if len(pts) <= opts.MaxDynamicPoints {
		set.Dynamic, err = BuildDynamic(set.Points, bo)
		if err != nil {
			return nil, fmt.Errorf("core: build dynamic: %w", err)
		}
	}
	return set, nil
}

// check validates an op against the current point set, returning an
// ErrRejected-classified error for caller mistakes. After it passes, any
// failure from the diagram derivations is internal.
func (s *DiagramSet) check(op Op) error {
	if op.Insert {
		if op.Point.Dim() != 2 {
			return fmt.Errorf("%w: insert requires a 2-D point, got dimension %d", ErrRejected, op.Point.Dim())
		}
		if err := checkIDs([]Point{op.Point}); err != nil {
			return fmt.Errorf("%w: insert: %v", ErrRejected, err)
		}
		if _, dup := geom.SearchID(s.Points, op.Point.ID); dup {
			return fmt.Errorf("%w: insert: id %d already present", ErrRejected, op.Point.ID)
		}
		return nil
	}
	if _, ok := geom.SearchID(s.Points, op.ID); !ok {
		return fmt.Errorf("%w: delete: id %d not present", ErrRejected, op.ID)
	}
	return nil
}

// Apply returns the set advanced by one op. Rejections (ErrRejected) leave
// the receiver valid and unchanged; any other error means the maintenance
// pass itself failed and the whole update should be abandoned.
func (s *DiagramSet) Apply(op Op, opts UpdateOptions) (*DiagramSet, error) {
	if err := s.check(op); err != nil {
		return nil, err
	}
	if err := faultinject.Hit("core.update.incremental"); err != nil {
		return nil, err
	}
	if s.Global.d.Reflected(0) != s.Quadrant.d {
		return nil, errors.New("core: the set's global diagram is not built around its quadrant diagram")
	}

	t0 := time.Now()
	var quad *QuadrantDiagram
	var err error
	if op.Insert {
		quad, err = s.Quadrant.WithInsert(op.Point)
	} else {
		quad, err = s.Quadrant.WithDelete(op.ID)
	}
	if err != nil {
		return nil, fmt.Errorf("core: maintain quadrant: %w", err)
	}
	opts.observe("quadrant", t0)
	opts.countWork("quadrant", quad.d.Work())
	pts := quad.d.Points
	next := &DiagramSet{Points: pts, Quadrant: quad}

	if opts.FullRebuild {
		if err := next.rebuildRest(opts); err != nil {
			return nil, err
		}
		return next, nil
	}

	t0 = time.Now()
	next.Global, err = s.Global.around(op, quad.d)
	if err != nil {
		return nil, fmt.Errorf("core: maintain global: %w", err)
	}
	opts.observe("global", t0)
	opts.countWork("global", next.Global.d.Work())

	if len(pts) <= opts.MaxDynamicPoints {
		t0 = time.Now()
		switch {
		case s.Dynamic == nil:
			// Crossing back under the threshold: nothing to derive from.
			next.Dynamic, err = BuildDynamic(pts, opts.buildOpts())
		case op.Insert:
			next.Dynamic, err = s.Dynamic.WithInsert(op.Point)
		default:
			next.Dynamic, err = s.Dynamic.WithDelete(op.ID)
		}
		if err != nil {
			return nil, fmt.Errorf("core: maintain dynamic: %w", err)
		}
		opts.observe("dynamic", t0)
	}
	return next, nil
}

// rebuildRest fills the global and dynamic diagrams with concurrent full
// builds — the FullRebuild escape hatch, matching the pre-incremental
// server behavior (the dynamic build is the expensive one; the global
// rebuild hides entirely behind it). The global diagram is rebuilt around
// the maintained quadrant diagram.
func (s *DiagramSet) rebuildRest(opts UpdateOptions) error {
	bo := opts.buildOpts()
	var wg sync.WaitGroup
	var globErr, dynErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		t0 := time.Now()
		s.Global, globErr = buildGlobalAround(s.Quadrant, bo)
		opts.observe("global", t0)
	}()
	if len(s.Points) <= opts.MaxDynamicPoints {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			s.Dynamic, dynErr = BuildDynamic(s.Points, bo)
			opts.observe("dynamic", t0)
		}()
	}
	wg.Wait()
	if globErr != nil {
		return fmt.Errorf("core: rebuild global: %w", globErr)
	}
	if dynErr != nil {
		return fmt.Errorf("core: rebuild dynamic: %w", dynErr)
	}
	return nil
}

// OpResult is the per-op outcome of ApplyBatch: the point count after the
// op, or the rejection that skipped it.
type OpResult struct {
	Points int
	Err    error
}

// ApplyBatch folds a batch of ops into one maintenance pass. Rejected ops
// (ErrRejected) are recorded in their OpResult and skipped — the remaining
// ops still apply, preserving the one-at-a-time semantics where each op sees
// the set left by its predecessors. Any other error aborts the whole batch
// with (nil, nil, err): the receiver is unchanged and no op took effect.
// When every op was rejected the returned set is the receiver itself, so
// callers can skip publishing by pointer comparison.
func (s *DiagramSet) ApplyBatch(ops []Op, opts UpdateOptions) (*DiagramSet, []OpResult, error) {
	cur := s
	results := make([]OpResult, len(ops))
	for i, op := range ops {
		next, err := cur.Apply(op, opts)
		if err != nil {
			if errors.Is(err, ErrRejected) {
				results[i] = OpResult{Err: err}
				continue
			}
			return nil, nil, fmt.Errorf("core: batch op %d (%s): %w", i, op, err)
		}
		cur = next
		results[i] = OpResult{Points: len(next.Points)}
	}
	return cur, results, nil
}

// Equal reports whether two sets answer every query identically for every
// diagram kind present.
func (s *DiagramSet) Equal(o *DiagramSet) bool {
	if (s.Dynamic == nil) != (o.Dynamic == nil) {
		return false
	}
	if !s.Quadrant.Equal(o.Quadrant) || !s.Global.Equal(o.Global) {
		return false
	}
	return s.Dynamic == nil || s.Dynamic.Equal(o.Dynamic)
}

// --- Maintenance and comparison wrappers on the diagram facades -------------

// WithInsert returns a new diagram covering Points ∪ {p}, maintained
// incrementally: its quadrant component first, then the three reflected ones
// around it (only cells whose components changed are re-merged).
func (gd *GlobalDiagram) WithInsert(p Point) (*GlobalDiagram, error) {
	quad, err := gd.d.Reflected(0).WithInsert(p)
	if err != nil {
		return nil, err
	}
	return gd.around(InsertOp(p), quad)
}

// WithDelete returns a new diagram covering Points without the given id,
// maintained incrementally.
func (gd *GlobalDiagram) WithDelete(id int) (*GlobalDiagram, error) {
	quad, err := gd.d.Reflected(0).WithDelete(id)
	if err != nil {
		return nil, err
	}
	return gd.around(DeleteOp(id), quad)
}

// around returns the diagram advanced by op around quad, its mask-0
// component already advanced by the same op.
func (gd *GlobalDiagram) around(op Op, quad *quaddiag.Diagram) (*GlobalDiagram, error) {
	var nd *quaddiag.GlobalDiagram
	var err error
	if op.Insert {
		nd, err = gd.d.WithInsert(op.Point, quad)
	} else {
		nd, err = gd.d.WithDelete(op.ID, quad)
	}
	if err != nil {
		return nil, err
	}
	return &GlobalDiagram{d: nd}, nil
}

// WithInsert returns a new diagram covering Points ∪ {p}, maintained
// incrementally (subcells whose result an old member defends are carried).
func (dd *DynamicDiagram) WithInsert(p Point) (*DynamicDiagram, error) {
	nd, err := dd.d.WithInsert(p)
	if err != nil {
		return nil, err
	}
	return &DynamicDiagram{d: nd, byID: indexByID(nd.Points)}, nil
}

// WithDelete returns a new diagram covering Points without the given id,
// maintained incrementally.
func (dd *DynamicDiagram) WithDelete(id int) (*DynamicDiagram, error) {
	nd, err := dd.d.WithDelete(id)
	if err != nil {
		return nil, err
	}
	return &DynamicDiagram{d: nd, byID: indexByID(nd.Points)}, nil
}

// Equal reports whether two diagrams answer every query identically.
func (qd *QuadrantDiagram) Equal(o *QuadrantDiagram) bool { return qd.d.Equal(o.d) }

// Equal reports whether two diagrams answer every query identically.
func (gd *GlobalDiagram) Equal(o *GlobalDiagram) bool { return gd.d.Equal(o.d) }

// Equal reports whether two diagrams answer every query identically.
func (dd *DynamicDiagram) Equal(o *DynamicDiagram) bool { return dd.d.Equal(o.d) }
