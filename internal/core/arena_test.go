package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/metrics"
)

// TestSetSharesQuadrantDiagram pins the set's single copy of the quadrant
// diagram through every way a set is made: a build, maintained ops, a
// rejected op, a FullRebuild op, a batch and a compaction. After each, the
// quadrant diagram must be the global diagram's mask-0 component, and
// ArenaLive must count the four tables of a set without a dynamic diagram
// once each: the quadrant table and the three reflected tables.
func TestSetSharesQuadrantDiagram(t *testing.T) {
	for _, workers := range []int{0, -1} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			reg := metrics.NewRegistry()
			opts := UpdateOptions{Workers: workers, Metrics: reg}
			rng := rand.New(rand.NewSource(71))
			set, err := BuildSet(genPoints(t, 24, dataset.Independent, 71), opts)
			if err != nil {
				t.Fatal(err)
			}
			check := func(ctx string, set *DiagramSet, clean bool) {
				t.Helper()
				if set.Global.d.Reflected(0) != set.Quadrant.d {
					t.Fatalf("%s: the quadrant diagram is not the global diagram's mask-0 component", ctx)
				}
				want := set.Quadrant.d.Results().ArenaLen()
				for mask := 1; mask < 4; mask++ {
					want += set.Global.d.Reflected(mask).Results().ArenaLen()
				}
				live, total := set.ArenaLive()
				if total != want {
					t.Fatalf("%s: ArenaLive total %d, want %d over the four tables", ctx, total, want)
				}
				if clean && live != total {
					t.Fatalf("%s: %d of %d arena ids live, want no garbage", ctx, live, total)
				}
				fresh, err := BuildSet(set.Points, UpdateOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !set.Equal(fresh) {
					t.Fatalf("%s: set differs from a rebuild", ctx)
				}
			}
			nextID := 1000
			insert := func() Op {
				nextID++
				return InsertOp(geom.Pt2(nextID, rng.Float64(), rng.Float64()))
			}
			check("build", set, true)

			if set, err = set.Apply(insert(), opts); err != nil {
				t.Fatal(err)
			}
			check("insert", set, false)

			if _, err := set.Apply(InsertOp(set.Points[0]), opts); !errors.Is(err, ErrRejected) {
				t.Fatalf("duplicate insert: %v, want ErrRejected", err)
			}
			check("rejected op", set, false)

			full := opts
			full.FullRebuild = true
			if set, err = set.Apply(DeleteOp(set.Points[3].ID), full); err != nil {
				t.Fatal(err)
			}
			check("full-rebuild delete", set, false)

			set, results, err := set.ApplyBatch([]Op{insert(), DeleteOp(-5), DeleteOp(set.Points[1].ID), insert()}, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !errors.Is(results[1].Err, ErrRejected) {
				t.Fatalf("batch delete of an absent id: %v, want ErrRejected", results[1].Err)
			}
			check("batch", set, false)

			set = set.CompactArenas()
			check("compaction", set, true)

			if set, err = set.Apply(insert(), opts); err != nil {
				t.Fatal(err)
			}
			check("insert after compaction", set, false)

			// The quadrant diagram is built once per BuildSet, and the
			// global diagram around it once more by the FullRebuild op.
			if got := reg.Counter("skydiag_builds_total", "", "kind", "quadrant").Value(); got != 1 {
				t.Fatalf("quadrant builds = %d, want 1", got)
			}
			if got := reg.Counter("skydiag_builds_total", "", "kind", "global").Value(); got != 2 {
				t.Fatalf("global builds = %d, want 2", got)
			}
		})
	}
}
