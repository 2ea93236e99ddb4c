package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/store"
)

// TestUpdateChainMatchesRebuild chains randomized WithInsert/WithDelete
// sequences — the serving write path — and after every step compares the
// incrementally maintained diagram cell-for-cell against a from-scratch
// build of the same point set. Coordinates are drawn from a small integer
// domain, so duplicate coordinates and exact-duplicate locations (the tie
// regime the optimized constructions special-case) occur constantly.
func TestUpdateChainMatchesRebuild(t *testing.T) {
	seeds := []int64{3, 17, 29}
	if testing.Short() {
		seeds = seeds[:1]
	}
	const domain = 10
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			pts := make([]geom.Point, 0, 16)
			ids := newChainIDs(12)
			for _, id := range ids.base() {
				pts = append(pts, geom.Pt2(id, float64(rng.Intn(domain)), float64(rng.Intn(domain))))
			}
			cur, err := BuildQuadrant(pts, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 40; step++ {
				if len(pts) == 0 || rng.Intn(2) == 0 {
					p := geom.Pt2(ids.next(rng, pts), float64(rng.Intn(domain)), float64(rng.Intn(domain)))
					cur, err = cur.WithInsert(p)
					if err != nil {
						t.Fatalf("seed=%d step=%d insert %v: %v", seed, step, p, err)
					}
					pts = append(pts, p)
				} else {
					k := rng.Intn(len(pts))
					id := pts[k].ID
					cur, err = cur.WithDelete(id)
					if err != nil {
						t.Fatalf("seed=%d step=%d delete %d: %v", seed, step, id, err)
					}
					pts = append(pts[:k], pts[k+1:]...)
				}
				if !ascendingByID(cur.Cells().Points) {
					t.Fatalf("seed=%d step=%d: points out of id order: %v", seed, step, cur.Cells().Points)
				}
				fresh, err := BuildQuadrant(pts, Options{})
				if err != nil {
					t.Fatalf("seed=%d step=%d rebuild: %v", seed, step, err)
				}
				if !cur.Cells().Equal(fresh.Cells()) {
					t.Fatalf("CHAIN MISMATCH seed=%d step=%d n=%d: incremental diagram differs from rebuild",
						seed, step, len(pts))
				}
				// Spot-check the query semantics against the oracle too
				// (off-lattice queries; see differential_test.go for the
				// boundary convention).
				q := geom.Pt2(-1, float64(rng.Intn(domain))+0.5, float64(rng.Intn(domain))+0.5)
				if got, want := sortedIDs32(cur.Query(q)), sortedIDsPts(QuadrantSkyline(pts, q)); !equalInts(got, want) {
					t.Fatalf("ORACLE MISMATCH seed=%d step=%d q=(%g,%g): diagram=%v oracle=%v",
						seed, step, q.X(), q.Y(), got, want)
				}
			}
		})
	}
}

// TestUpdateChainDuplicateCoordinates forces the hardest tie case: inserts
// that land exactly on existing points' locations, then deletes that peel
// coincident twins apart one at a time.
func TestUpdateChainDuplicateCoordinates(t *testing.T) {
	base := []geom.Point{
		geom.Pt2(0, 2, 8), geom.Pt2(1, 5, 5), geom.Pt2(2, 8, 2),
	}
	cur, err := BuildQuadrant(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pts := append([]geom.Point(nil), base...)
	// Pile exact duplicates onto every base location.
	for i, b := range base {
		p := geom.Pt2(10+i, b.X(), b.Y())
		cur, err = cur.WithInsert(p)
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, p)
		fresh, err := BuildQuadrant(pts, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !cur.Cells().Equal(fresh.Cells()) {
			t.Fatalf("after duplicating %v: incremental differs from rebuild", b)
		}
	}
	// Peel the originals off again.
	for _, b := range base {
		cur, err = cur.WithDelete(b.ID)
		if err != nil {
			t.Fatal(err)
		}
		for k, p := range pts {
			if p.ID == b.ID {
				pts = append(pts[:k], pts[k+1:]...)
				break
			}
		}
		fresh, err := BuildQuadrant(pts, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !cur.Cells().Equal(fresh.Cells()) {
			t.Fatalf("after deleting %d: incremental differs from rebuild", b.ID)
		}
	}
}

// chainIDs draws the ids a chain inserts: above every id drawn so far,
// below every one, or in a gap between live ids (a deleted id included),
// so inserts land at the end, the front and the middle of a diagram's
// id-ordered points.
type chainIDs struct{ lo, hi int }

// newChainIDs returns a source whose base ids are n ids 100, 103, 106, …,
// which leave gaps between them and room below.
func newChainIDs(n int) *chainIDs { return &chainIDs{lo: 100, hi: 100 + 3*n} }

// base returns the base ids.
func (c *chainIDs) base() []int {
	var ids []int
	for id := c.lo; id < c.hi; id += 3 {
		ids = append(ids, id)
	}
	return ids
}

// next draws an insert's id, none of pts's.
func (c *chainIDs) next(rng *rand.Rand, pts []geom.Point) int {
	switch rng.Intn(3) {
	case 0:
		c.lo--
		return c.lo
	case 1:
		for try := 0; try < 8; try++ {
			id := c.lo + rng.Intn(c.hi-c.lo)
			if !slices.ContainsFunc(pts, func(p geom.Point) bool { return p.ID == id }) {
				return id
			}
		}
	}
	c.hi++
	return c.hi - 1
}

// ascendingByID reports whether the ids of pts ascend strictly.
func ascendingByID(pts []geom.Point) bool {
	for k := 1; k < len(pts); k++ {
		if pts[k-1].ID >= pts[k].ID {
			return false
		}
	}
	return true
}

// assertIDOrder checks that a set's points, and every quadrant component's,
// ascend by id, and that the set's points are its quadrant diagram's slice.
func assertIDOrder(t *testing.T, set *DiagramSet, ctx string) {
	t.Helper()
	quad := set.Quadrant.Cells().Points
	if len(quad) != len(set.Points) || len(quad) > 0 && &quad[0] != &set.Points[0] {
		t.Fatalf("%s: the set's points are not its quadrant diagram's", ctx)
	}
	for mask := 0; mask < 4; mask++ {
		if pts := set.Global.d.Reflected(mask).Points; !ascendingByID(pts) {
			t.Fatalf("%s: global mask %d points out of id order: %v", ctx, mask, pts)
		}
	}
}

// chainOpts keeps the dynamic diagram alive for every chain below: the point
// counts stay far under the threshold, so every op maintains all three kinds.
var chainOpts = UpdateOptions{MaxDynamicPoints: 64}

// assertSetMatchesRebuild compares an incrementally maintained DiagramSet
// against a from-scratch BuildSet of the same points — structurally
// (cell-for-cell on all three kinds via DiagramSet.Equal) and semantically
// (spot queries against the from-scratch skyline oracles). ctx is interpolated
// into failures so a randomized chain logs its seed and step.
func assertSetMatchesRebuild(t *testing.T, set *DiagramSet, rng *rand.Rand, domain int, ctx string) {
	t.Helper()
	assertIDOrder(t, set, ctx)
	fresh, err := BuildSet(set.Points, chainOpts)
	if err != nil {
		t.Fatalf("%s: rebuild: %v", ctx, err)
	}
	if !set.Equal(fresh) {
		kinds := ""
		if !set.Quadrant.Equal(fresh.Quadrant) {
			kinds += " quadrant"
		}
		if !set.Global.Equal(fresh.Global) {
			kinds += " global"
		}
		if (set.Dynamic == nil) != (fresh.Dynamic == nil) ||
			(set.Dynamic != nil && !set.Dynamic.Equal(fresh.Dynamic)) {
			kinds += " dynamic"
		}
		t.Fatalf("CHAIN MISMATCH %s n=%d: incremental differs from rebuild in:%s",
			ctx, len(set.Points), kinds)
	}
	// Semantic spot checks. Quadrant/global queries sit on half-integers (off
	// the data's coordinate lines); the dynamic query uses the +0.3 offset of
	// TestDifferentialDynamic, off the arrangement's half-integer lines.
	q := geom.Pt2(-1, float64(rng.Intn(domain))+0.5, float64(rng.Intn(domain))+0.5)
	if got, want := ascendingIDs(t, "quadrant", set.Quadrant.Query(q)), sortedIDsPts(QuadrantSkyline(set.Points, q)); !equalInts(got, want) {
		t.Fatalf("QUADRANT ORACLE MISMATCH %s q=(%g,%g): diagram=%v oracle=%v", ctx, q.X(), q.Y(), got, want)
	}
	if got, want := ascendingIDs(t, "global", set.Global.Query(q)), sortedIDsPts(GlobalSkyline(set.Points, q)); !equalInts(got, want) {
		t.Fatalf("GLOBAL ORACLE MISMATCH %s q=(%g,%g): diagram=%v oracle=%v", ctx, q.X(), q.Y(), got, want)
	}
	if set.Dynamic != nil {
		dq := geom.Pt2(-1, float64(rng.Intn(domain))+0.3, float64(rng.Intn(domain))+0.3)
		if got, want := ascendingIDs(t, "dynamic", set.Dynamic.Query(dq)), sortedIDsPts(DynamicSkyline(set.Points, dq)); !equalInts(got, want) {
			t.Fatalf("DYNAMIC ORACLE MISMATCH %s q=(%g,%g): diagram=%v oracle=%v", ctx, dq.X(), dq.Y(), got, want)
		}
	}
}

// randomOp draws the next chain op: deletes of random live ids, inserts drawn
// from the small lattice, biased toward the tie-heavy cases — exact duplicates
// of live locations and boundary coordinates (domain edges and points outside
// the current bounding box), the regimes where incremental carry decisions
// are most fragile — with ids from ids.
func randomOp(rng *rand.Rand, pts []geom.Point, domain int, ids *chainIDs) Op {
	if len(pts) > 0 && rng.Intn(2) == 1 {
		return DeleteOp(pts[rng.Intn(len(pts))].ID)
	}
	x, y := float64(rng.Intn(domain)), float64(rng.Intn(domain))
	switch rng.Intn(4) {
	case 0: // exact duplicate of a live location
		if len(pts) > 0 {
			b := pts[rng.Intn(len(pts))]
			x, y = b.X(), b.Y()
		}
	case 1: // boundary: domain edges, or just outside the box
		edges := []float64{0, float64(domain - 1), -1, float64(domain)}
		x, y = edges[rng.Intn(len(edges))], edges[rng.Intn(len(edges))]
	}
	return InsertOp(geom.Pt2(ids.next(rng, pts), x, y))
}

// TestUpdateChainAllKindsMatchesRebuild is the full differential form of the
// chain test: randomized mixed insert/delete sequences advanced through
// DiagramSet.Apply, with ALL THREE diagram kinds compared against a
// from-scratch rebuild after EVERY op. The failure messages carry the seed and
// step so any mismatch is replayable.
func TestUpdateChainAllKindsMatchesRebuild(t *testing.T) {
	seeds := []int64{5, 23, 41}
	steps := 24
	if testing.Short() {
		seeds = seeds[:1]
		steps = 12
	}
	const domain = 8
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			pts := make([]geom.Point, 0, 16)
			ids := newChainIDs(8)
			for _, id := range ids.base() {
				pts = append(pts, geom.Pt2(id, float64(rng.Intn(domain)), float64(rng.Intn(domain))))
			}
			set, err := BuildSet(pts, chainOpts)
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < steps; step++ {
				op := randomOp(rng, set.Points, domain, ids)
				next, err := set.Apply(op, chainOpts)
				if err != nil {
					t.Fatalf("seed=%d step=%d %s: %v", seed, step, op, err)
				}
				set = next
				assertSetMatchesRebuild(t, set, rng, domain,
					fmt.Sprintf("seed=%d step=%d op=%s", seed, step, op))
			}
		})
	}
}

// TestUpdateChainAllKindsDuplicatePile repeats the coincident-twin pile test
// for the full set: exact duplicates stacked on every base location, then the
// originals peeled off, with every kind checked against a rebuild at each op.
func TestUpdateChainAllKindsDuplicatePile(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	base := []geom.Point{
		geom.Pt2(0, 2, 6), geom.Pt2(1, 4, 4), geom.Pt2(2, 6, 2),
	}
	set, err := BuildSet(append([]geom.Point(nil), base...), chainOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range base {
		set, err = set.Apply(InsertOp(geom.Pt2(10+i, b.X(), b.Y())), chainOpts)
		if err != nil {
			t.Fatalf("duplicating %v: %v", b, err)
		}
		assertSetMatchesRebuild(t, set, rng, 8, fmt.Sprintf("after duplicating %v", b))
	}
	for _, b := range base {
		set, err = set.Apply(DeleteOp(b.ID), chainOpts)
		if err != nil {
			t.Fatalf("deleting %d: %v", b.ID, err)
		}
		assertSetMatchesRebuild(t, set, rng, 8, fmt.Sprintf("after deleting %d", b.ID))
	}
}

// TestUpdateChainDynamicThreshold drags the point count back and forth across
// MaxDynamicPoints: growing past it must drop the dynamic diagram (nil),
// shrinking back under it must rebuild one, and both transitions must leave
// every maintained kind rebuild-equal.
func TestUpdateChainDynamicThreshold(t *testing.T) {
	opts := UpdateOptions{MaxDynamicPoints: 6}
	rng := rand.New(rand.NewSource(7))
	pts := make([]geom.Point, 0, 10)
	for i := 0; i < 5; i++ {
		pts = append(pts, geom.Pt2(i, float64(rng.Intn(8)), float64(rng.Intn(8))))
	}
	set, err := BuildSet(pts, opts)
	if err != nil {
		t.Fatal(err)
	}
	if set.Dynamic == nil {
		t.Fatal("expected dynamic diagram under the threshold")
	}
	nextID := 5
	check := func(ctx string, wantDynamic bool) {
		t.Helper()
		if (set.Dynamic != nil) != wantDynamic {
			t.Fatalf("%s: dynamic present=%v, want %v", ctx, set.Dynamic != nil, wantDynamic)
		}
		fresh, err := BuildSet(set.Points, opts)
		if err != nil {
			t.Fatalf("%s: rebuild: %v", ctx, err)
		}
		if !set.Equal(fresh) {
			t.Fatalf("%s: incremental differs from rebuild", ctx)
		}
	}
	// Grow to 8 points: the dynamic diagram disappears at 7.
	for len(set.Points) < 8 {
		set, err = set.Apply(InsertOp(geom.Pt2(nextID, float64(rng.Intn(8)), float64(rng.Intn(8)))), opts)
		if err != nil {
			t.Fatal(err)
		}
		nextID++
		check(fmt.Sprintf("grow to n=%d", len(set.Points)), len(set.Points) <= 6)
	}
	// Shrink back to 5: crossing under the threshold must rebuild it.
	for len(set.Points) > 5 {
		set, err = set.Apply(DeleteOp(set.Points[0].ID), opts)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("shrink to n=%d", len(set.Points)), len(set.Points) <= 6)
	}
}

// TestApplyBatchMatchesSequential is the coalescing equivalence check at the
// core layer: folding a batch through ApplyBatch must land on exactly the
// same diagrams as applying the surviving ops one at a time, with rejected
// ops (duplicate inserts, unknown deletes) attributed per-op and skipped
// rather than poisoning their neighbours.
func TestApplyBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := []geom.Point{
		geom.Pt2(0, 1, 7), geom.Pt2(1, 4, 4), geom.Pt2(2, 7, 1),
	}
	set, err := BuildSet(pts, chainOpts)
	if err != nil {
		t.Fatal(err)
	}
	ops := []Op{
		InsertOp(geom.Pt2(3, 2, 2)),
		InsertOp(geom.Pt2(3, 5, 5)), // rejected: duplicate id within the batch
		DeleteOp(1),
		DeleteOp(42), // rejected: unknown id
		InsertOp(geom.Pt2(4, 4, 4)),
		DeleteOp(1), // rejected: id 1 already deleted earlier in the batch
		InsertOp(geom.Pt2(5, 0, 0)),
		DeleteOp(3),
	}
	batched, results, err := set.ApplyBatch(ops, chainOpts)
	if err != nil {
		t.Fatal(err)
	}
	wantRejected := map[int]bool{1: true, 3: true, 5: true}
	seq := set
	for i, op := range ops {
		if wantRejected[i] {
			if !errors.Is(results[i].Err, ErrRejected) {
				t.Fatalf("op %d (%s): want ErrRejected, got %v", i, op, results[i].Err)
			}
			continue
		}
		if results[i].Err != nil {
			t.Fatalf("op %d (%s): unexpected error %v", i, op, results[i].Err)
		}
		seq, err = seq.Apply(op, chainOpts)
		if err != nil {
			t.Fatalf("sequential op %d (%s): %v", i, op, err)
		}
		if results[i].Points != len(seq.Points) {
			t.Fatalf("op %d (%s): batch reported %d points, sequential has %d",
				i, op, results[i].Points, len(seq.Points))
		}
	}
	if !batched.Equal(seq) {
		t.Fatal("batched result differs from sequential application")
	}
	assertSetMatchesRebuild(t, batched, rng, 8, "after batch")

	// An all-rejected batch returns the receiver itself — the server relies
	// on the pointer identity to skip the snapshot swap.
	allRej, results, err := set.ApplyBatch([]Op{DeleteOp(42), InsertOp(geom.Pt2(0, 1, 1))}, chainOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !errors.Is(r.Err, ErrRejected) {
			t.Fatalf("all-rejected batch op %d: want ErrRejected, got %v", i, r.Err)
		}
	}
	if allRej != set {
		t.Fatal("all-rejected batch must return the receiver unchanged")
	}
}

// TestFailedBatchRetryPersistsLikeRebuild pins claim-or-fork ownership of the
// interned tables at the batch level. A batch whose second op fails has
// already claimed every result table of the base set in its first op; the
// retried batch from the same base must fork them, and a batch chained after
// it claims the fork's tables in turn. The base and both surviving sets must
// persist to exactly the bytes of a fresh build of their points.
func TestFailedBatchRetryPersistsLikeRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const domain = 12
	pts := make([]geom.Point, 0, 16)
	for i := 0; i < 16; i++ {
		pts = append(pts, geom.Pt2(i, float64(rng.Intn(domain)), float64(rng.Intn(domain))))
	}
	base, err := BuildSet(pts, chainOpts)
	if err != nil {
		t.Fatal(err)
	}
	ops := []Op{InsertOp(geom.Pt2(100, 3, 3)), DeleteOp(pts[0].ID), InsertOp(geom.Pt2(101, 5, 1))}

	// Arm the failpoint while the first op is under way: that op completes,
	// and the second op's maintenance pass fails.
	t.Cleanup(faultinject.Deactivate)
	failing := chainOpts
	failing.ObserveKind = func(string, time.Duration) {
		if !faultinject.Enabled() {
			if err := faultinject.Activate("core.update.incremental=error:mid-batch#1"); err != nil {
				t.Error(err)
			}
		}
	}
	if _, _, err := base.ApplyBatch(ops, failing); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("batch error = %v, want the injected mid-batch failure", err)
	}
	if got := faultinject.Hits("core.update.incremental"); got != 1 {
		t.Fatalf("failpoint fired %d times, want once", got)
	}
	faultinject.Deactivate()
	assertPersistsLikeRebuild(t, base, "base after the failed batch")

	retried, _, err := base.ApplyBatch(ops, chainOpts)
	if err != nil {
		t.Fatal(err)
	}
	assertPersistsLikeRebuild(t, retried, "retried batch")
	chained, _, err := retried.ApplyBatch([]Op{DeleteOp(100), InsertOp(geom.Pt2(102, 0, 9))}, chainOpts)
	if err != nil {
		t.Fatal(err)
	}
	assertPersistsLikeRebuild(t, chained, "batch chained after the retry")
}

// assertPersistsLikeRebuild compares the store bytes of a set's quadrant
// diagram, and its global and dynamic diagrams cell for cell, against a
// fresh BuildSet of the same points.
func assertPersistsLikeRebuild(t *testing.T, set *DiagramSet, ctx string) {
	t.Helper()
	fresh, err := BuildSet(set.Points, chainOpts)
	if err != nil {
		t.Fatalf("%s: rebuild: %v", ctx, err)
	}
	var got, want bytes.Buffer
	if err := store.WriteEpoch(&got, set.Quadrant.Cells(), 7); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if err := store.WriteEpoch(&want, fresh.Quadrant.Cells(), 7); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: quadrant store bytes differ from a fresh build's", ctx)
	}
	if !set.Dynamic.Equal(fresh.Dynamic) {
		t.Fatalf("%s: dynamic diagram differs from a fresh build's", ctx)
	}
	if !set.Global.Equal(fresh.Global) {
		t.Fatalf("%s: global diagram differs from a fresh build's", ctx)
	}
}
