package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

func genPoints(tb testing.TB, n int, dist dataset.Distribution, seed int64) []Point {
	tb.Helper()
	pts, err := dataset.Generate(dataset.Config{N: n, Dim: 2, Dist: dist, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	return pts
}

// TestQueryZeroAllocs pins the read path of every diagram kind at zero heap
// allocations: point location is a pair of binary searches and the result is
// a label indirection into the interned arena — nothing to allocate. This is
// the contract the serving hot loop depends on; a regression here shows up
// as GC pressure under load.
func TestQueryZeroAllocs(t *testing.T) {
	pts := genPoints(t, 64, dataset.Independent, 17)
	quad, err := BuildQuadrant(pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	glob, err := BuildGlobal(pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := BuildDynamic(pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	probes := [][2]float64{{0.1, 0.9}, {0.5, 0.5}, {0.93, 0.07}, {-1, 2}}

	kinds := []struct {
		name  string
		query func(x, y float64) []int32
	}{
		{"quadrant", quad.QueryXY},
		{"global", glob.QueryXY},
		{"dynamic", dyn.QueryXY},
	}
	for _, k := range kinds {
		k := k
		t.Run(k.name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(500, func() {
				for _, p := range probes {
					k.query(p[0], p[1])
				}
			})
			if allocs != 0 {
				t.Fatalf("%s QueryXY: %v allocs/op, want 0", k.name, allocs)
			}
		})
	}
}

func benchQuery(b *testing.B, query func(x, y float64) []int32) {
	// A fixed probe walk covering many cells, so the benchmark measures point
	// location + label indirection rather than one hot cache line.
	b.ReportAllocs()
	b.ResetTimer()
	x, y := 0.0, 1.0
	for i := 0; i < b.N; i++ {
		query(x, y)
		x += 0.037
		if x > 1 {
			x -= 1
		}
		y -= 0.041
		if y < 0 {
			y += 1
		}
	}
}

func BenchmarkQueryQuadrant(b *testing.B) {
	quad, err := BuildQuadrant(genPoints(b, 600, dataset.Independent, 23), Options{})
	if err != nil {
		b.Fatal(err)
	}
	benchQuery(b, quad.QueryXY)
}

func BenchmarkQueryGlobal(b *testing.B) {
	glob, err := BuildGlobal(genPoints(b, 600, dataset.Independent, 23), Options{})
	if err != nil {
		b.Fatal(err)
	}
	benchQuery(b, glob.QueryXY)
}

func BenchmarkQueryDynamic(b *testing.B) {
	dyn, err := BuildDynamic(genPoints(b, 64, dataset.Independent, 23), Options{})
	if err != nil {
		b.Fatal(err)
	}
	benchQuery(b, dyn.QueryXY)
}

// maxCornerPoint returns a point just past the dataset's max corner: it is
// dominated by every existing point, so an insert leaves every existing
// cell's result unchanged — the pure label-carry regime of the incremental
// maintenance paths.
func maxCornerPoint(pts []Point, id int) Point {
	mx, my := 0.0, 0.0
	for _, p := range pts {
		if p.X() > mx {
			mx = p.X()
		}
		if p.Y() > my {
			my = p.Y()
		}
	}
	return geom.Pt2(id, mx+1, my+1)
}

// TestUpdateCarryAllocsBelowRebuild is the allocation gate on the
// untouched-cell carry-over path: inserting a dominated far-corner point
// changes no existing cell's result, so the incremental maintenance must
// carry labels instead of re-interning. Only the few edge cells the point
// joins intern anything; every run after the first re-derives from the same
// set and so forks its claimed tables, paying one private index build (one
// allocation, however many results). A factor-3 regression here means the
// carry path broke and updates went back to paying rebuild-shaped costs
// (measured headroom at n=96 is ~24x for quadrant and ~35x for global).
func TestUpdateCarryAllocsBelowRebuild(t *testing.T) {
	pts := genPoints(t, 96, dataset.Independent, 31)
	set, err := BuildSet(pts, UpdateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	far := maxCornerPoint(pts, 1000000)
	grown := append(pts[:len(pts):len(pts)], far)

	quadInc := testing.AllocsPerRun(20, func() {
		if _, err := set.Quadrant.WithInsert(far); err != nil {
			t.Fatal(err)
		}
	})
	quadFull := testing.AllocsPerRun(5, func() {
		if _, err := BuildQuadrant(grown, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if quadInc*3 > quadFull {
		t.Fatalf("quadrant carry-over insert: %v allocs vs %v for a rebuild — carry path regressed", quadInc, quadFull)
	}

	globInc := testing.AllocsPerRun(10, func() {
		if _, err := set.Global.WithInsert(far); err != nil {
			t.Fatal(err)
		}
	})
	globFull := testing.AllocsPerRun(3, func() {
		if _, err := BuildGlobal(grown, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if globInc*3 > globFull {
		t.Fatalf("global carry-over insert: %v allocs vs %v for a rebuild — carry path regressed", globInc, globFull)
	}
}

// benchUpdate measures steady-state write maintenance: each iteration
// inserts a fresh point and deletes it again, one full maintenance pass per
// Apply without the set drifting in size.
//
// Unchained, every pair starts from the same base set, so after the first
// iteration each insert forks the base's claimed tables: its first append
// copies the arena and its first intern rebuilds a private dedup index.
// Chained, each op derives from the previous op's set and the set compacts
// every 20 ops, as the server's coalesce leader drives it, so every op
// claims its predecessor's tables and grows their arenas in place.
func benchUpdate(b *testing.B, opts UpdateOptions, chained bool) {
	pts := genPoints(b, 256, dataset.Independent, 23)
	base, err := BuildSet(pts, opts)
	if err != nil {
		b.Fatal(err)
	}
	set, ops := base, 0
	apply := func(op Op) {
		next, err := set.Apply(op, opts)
		if err != nil {
			b.Fatal(err)
		}
		set = next
		if ops++; chained && ops%20 == 0 {
			set = set.CompactArenas()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !chained {
			set = base
		}
		id := 1000000 + i
		apply(InsertOp(geom.Pt2(id, float64(i%97)/97, float64((i*37)%89)/89)))
		apply(DeleteOp(id))
	}
}

func BenchmarkUpdateIncremental(b *testing.B) {
	benchUpdate(b, UpdateOptions{}, false)
}

func BenchmarkUpdateChained(b *testing.B) {
	benchUpdate(b, UpdateOptions{}, true)
}

func BenchmarkUpdateFullRebuild(b *testing.B) {
	benchUpdate(b, UpdateOptions{FullRebuild: true}, false)
}
