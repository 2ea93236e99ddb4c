package resultset

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func TestInternDedupes(t *testing.T) {
	in := NewInterner()
	a := in.Intern([]int32{1, 2, 3})
	b := in.Intern([]int32{4})
	a2 := in.Intern([]int32{1, 2, 3})
	if a != a2 {
		t.Fatalf("identical content got labels %d and %d", a, a2)
	}
	if a == b {
		t.Fatalf("distinct content shares label %d", a)
	}
	if got := in.NumResults(); got != 2 {
		t.Fatalf("NumResults = %d, want 2", got)
	}
	if r := in.Result(a); !slices.Equal(r, []int32{1, 2, 3}) {
		t.Fatalf("Result(a) = %v", r)
	}
}

func TestInternEmptyAndNil(t *testing.T) {
	in := NewInterner()
	e1 := in.Intern(nil)
	e2 := in.Intern([]int32{})
	if e1 != e2 {
		t.Fatalf("nil and empty intern to %d and %d", e1, e2)
	}
	tbl := in.Table()
	if got := tbl.Result(e1); len(got) != 0 {
		t.Fatalf("empty result has length %d", len(got))
	}
	if tbl.Len(e1) != 0 {
		t.Fatalf("Len = %d", tbl.Len(e1))
	}
}

func TestTableResultAliasesArena(t *testing.T) {
	in := NewInterner()
	l := in.Intern([]int32{7, 8})
	in.Intern([]int32{9})
	tbl := in.Table()
	r := tbl.Result(l)
	// Capacity clamp: appending to a result must not clobber the neighbour.
	r = append(r, 999)
	if got := tbl.Result(uint32(1)); !slices.Equal(got, []int32{9}) {
		t.Fatalf("append to a result clobbered the arena: %v", got)
	}
	_ = r
}

func TestNewInternerFromSharesAndExtends(t *testing.T) {
	in := NewInterner()
	l1 := in.Intern([]int32{1, 2})
	l2 := in.Intern([]int32{3})
	base := in.Table()

	cow := NewInternerFrom(base)
	// Existing contents resolve to their old labels.
	if got := cow.Intern([]int32{1, 2}); got != l1 {
		t.Fatalf("reintern of existing content: label %d, want %d", got, l1)
	}
	// New content extends without disturbing the base table.
	l3 := cow.Intern([]int32{4, 5, 6})
	if l3 == l1 || l3 == l2 {
		t.Fatalf("new content reused label %d", l3)
	}
	if base.NumResults() != 2 {
		t.Fatalf("base table grew to %d results", base.NumResults())
	}
	if got := base.Result(l1); !slices.Equal(got, []int32{1, 2}) {
		t.Fatalf("base arena corrupted: %v", got)
	}
	if got := cow.Result(l3); !slices.Equal(got, []int32{4, 5, 6}) {
		t.Fatalf("cow Result = %v", got)
	}
}

func TestNewTableValidates(t *testing.T) {
	if _, ok := NewTable([]uint32{0, 2, 5}, []int32{1, 2, 3, 4, 5}); !ok {
		t.Fatal("valid table rejected")
	}
	if _, ok := NewTable(nil, nil); ok {
		t.Fatal("empty offsets accepted")
	}
	if _, ok := NewTable([]uint32{1, 2}, []int32{9, 9}); ok {
		t.Fatal("offsets[0] != 0 accepted")
	}
	if _, ok := NewTable([]uint32{0, 3, 2}, []int32{1, 2}); ok {
		t.Fatal("descending offsets accepted")
	}
	if _, ok := NewTable([]uint32{0, 2}, []int32{1, 2, 3}); ok {
		t.Fatal("arena length mismatch accepted")
	}
}

func TestInternRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := NewInterner()
	byContent := map[string]uint32{}
	key := func(ids []int32) string {
		b := make([]byte, 0, 4*len(ids))
		for _, id := range ids {
			b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
		}
		return string(b)
	}
	for i := 0; i < 5000; i++ {
		n := rng.Intn(8)
		ids := make([]int32, n)
		for j := range ids {
			ids[j] = int32(rng.Intn(12))
		}
		l := in.Intern(ids)
		k := key(ids)
		if want, ok := byContent[k]; ok {
			if l != want {
				t.Fatalf("content %v: label %d, previously %d", ids, l, want)
			}
		} else {
			byContent[k] = l
		}
		if got := in.Result(l); !slices.Equal(got, ids) {
			t.Fatalf("Result(%d) = %v, want %v", l, got, ids)
		}
	}
	if in.NumResults() != len(byContent) {
		t.Fatalf("NumResults = %d, distinct contents = %d", in.NumResults(), len(byContent))
	}
	// The frozen table agrees everywhere.
	tbl := in.Table()
	for k, l := range byContent {
		want := make([]int32, 0, len(k)/4)
		for i := 0; i < len(k); i += 4 {
			want = append(want, int32(uint32(k[i])|uint32(k[i+1])<<8|uint32(k[i+2])<<16|uint32(k[i+3])<<24))
		}
		if got := tbl.Result(l); !slices.Equal(got, want) {
			t.Fatalf("table Result(%d) = %v, want %v", l, got, want)
		}
	}
}

func TestZeroAllocResult(t *testing.T) {
	in := NewInterner()
	for i := 0; i < 64; i++ {
		in.Intern([]int32{int32(i), int32(i + 1)})
	}
	tbl := in.Table()
	allocs := testing.AllocsPerRun(1000, func() {
		_ = tbl.Result(17)
	})
	if allocs != 0 {
		t.Fatalf("Table.Result allocates %.1f/op, want 0", allocs)
	}
}

// TestSeededCarryAllocs pins the copy-on-write seam the incremental
// maintenance paths ride on. Seeding an interner from a table and freezing it
// again without interning — the shape of an update whose cells all carry
// their labels over — must cost exactly the two wrapper structs, whether the
// seed claims the table (the first run) or forks it (every later run): a
// claimant takes the table's index over, a fork builds its own only on its
// first intern, and neither scans the seeded results. And once a fork's
// index is up, re-interning content the seed already holds allocates nothing.
func TestSeededCarryAllocs(t *testing.T) {
	in := NewInterner()
	for i := 0; i < 512; i++ {
		in.Intern([]int32{int32(i), int32(i + 1), int32(i + 2)})
	}
	table := in.Table()
	carry := testing.AllocsPerRun(1000, func() {
		NewInternerFrom(table).Table()
	})
	if carry > 2 {
		t.Fatalf("seed+freeze with no interns: %v allocs, want at most the two wrapper structs", carry)
	}

	seeded := NewInternerFrom(table)
	seeded.Intern([]int32{0, 1, 2}) // a fork: its first intern builds its index
	reintern := testing.AllocsPerRun(1000, func() {
		if l := seeded.Intern([]int32{7, 8, 9}); l != 7 {
			t.Fatalf("re-intern of seeded content moved its label: %d", l)
		}
	})
	if reintern != 0 {
		t.Fatalf("re-intern of seeded content: %v allocs, want 0", reintern)
	}
}

// lineage builds a table of count distinct two-id results, frozen from a
// fresh interner.
func lineage(count int) *Table {
	in := NewInterner()
	for i := 0; i < count; i++ {
		in.Intern([]int32{int32(i), int32(i + 1)})
	}
	return in.Table()
}

// checkPrefix fails unless every label of tbl below count still reads as
// lineage wrote it.
func checkPrefix(t *testing.T, tbl *Table, count int) {
	t.Helper()
	for l := 0; l < count; l++ {
		if got := tbl.Result(uint32(l)); !slices.Equal(got, []int32{int32(l), int32(l + 1)}) {
			t.Fatalf("label %d reads %v, want [%d %d]", l, got, l, l+1)
		}
	}
}

// wantResults fails unless labels from..from+len(want)-1 of r read want.
func wantResults(t *testing.T, name string, r func(uint32) []int32, from uint32, want ...[]int32) {
	t.Helper()
	for i, w := range want {
		if got := r(from + uint32(i)); !slices.Equal(got, w) {
			t.Fatalf("%s label %d = %v, want %v", name, from+uint32(i), got, w)
		}
	}
}

// The first seed of a table claims it and appends in place; a second seed
// forks. Both lineages must intern side by side, each deduplicating against
// its own results only, while the shared table reads as it was frozen.
func TestForkCopiesAndLineagesStayApart(t *testing.T) {
	base := lineage(40)
	claim, fork := NewInternerFrom(base), NewInternerFrom(base)
	x, y, z := []int32{-1, -2}, []int32{-4}, []int32{-3}
	if got := []uint32{claim.Intern(x), claim.Intern(y)}; !slices.Equal(got, []uint32{40, 41}) {
		t.Fatalf("claimant's new results got labels %v, want [40 41]", got)
	}
	if got := []uint32{fork.Intern(y), fork.Intern(z)}; !slices.Equal(got, []uint32{40, 41}) {
		t.Fatalf("fork's new results got labels %v, want [40 41]", got)
	}
	if l := claim.Intern(z); l != 42 {
		t.Fatalf("claimant resolved the fork's result to label %d, want a new label 42", l)
	}
	if l := fork.Intern([]int32{7, 8}); l != 7 {
		t.Fatalf("fork lost a seeded result: label %d, want 7", l)
	}
	if &claim.ids[0] != &base.ids[0] {
		t.Fatal("claimant copied the arena instead of appending in place")
	}
	if &fork.ids[0] == &base.ids[0] {
		t.Fatal("fork appended into the claimed table's arena")
	}
	ct, ft := claim.Table(), fork.Table()
	wantResults(t, "claimant", ct.Result, 40, x, y, z)
	wantResults(t, "fork", ft.Result, 40, y, z)
	if base.NumResults() != 40 || len(base.IDs()) != 80 || len(base.Offsets()) != 41 {
		t.Fatalf("base grew: %d results, %d ids", base.NumResults(), len(base.IDs()))
	}
	checkPrefix(t, base, 40)
	checkPrefix(t, ct, 40)
	checkPrefix(t, ft, 40)
}

// Table hands the arena's spare capacity and the index to the table it
// freezes. An interner that keeps interning afterwards must copy both, not
// write into memory the frozen table's claimant grows.
func TestInternAfterTableCopies(t *testing.T) {
	in := NewInternerFrom(lineage(40))
	in.Intern([]int32{-1})
	frozen := in.Table()
	x, y, z := []int32{-2, -2}, []int32{-3, -3, -3}, []int32{-5}
	if l := in.Intern(x); l != 41 {
		t.Fatalf("interner's first result after the freeze: label %d, want 41", l)
	}
	claim := NewInternerFrom(frozen)
	if got := []uint32{claim.Intern(x), claim.Intern(y)}; !slices.Equal(got, []uint32{41, 42}) {
		t.Fatalf("claimant's new results got labels %v, want [41 42]", got)
	}
	if got := []uint32{in.Intern(z), in.Intern(y)}; !slices.Equal(got, []uint32{42, 43}) {
		t.Fatalf("interner's later results got labels %v, want [42 43]", got)
	}
	if l := in.Intern([]int32{-1}); l != 40 {
		t.Fatalf("interner lost its own result after the freeze: label %d, want 40", l)
	}
	wantResults(t, "interner", in.Result, 40, []int32{-1}, x, z, y)
	wantResults(t, "claimant", claim.Result, 40, []int32{-1}, x, y)
	if frozen.NumResults() != 41 {
		t.Fatalf("frozen table grew to %d results", frozen.NumResults())
	}
	wantResults(t, "frozen", frozen.Result, 40, []int32{-1})
	checkPrefix(t, frozen, 40)
}

// Readers of generation k must stay correct, and race-free, while the
// lineage claims and appends generations k+1..k+20 past its length.
func TestReadersOfOldGenerationDuringGrowth(t *testing.T) {
	gen := lineage(200)
	var ready, done sync.WaitGroup
	stop := make(chan struct{})
	read := func() bool {
		for l := 0; l < 200; l++ {
			if got := gen.Result(uint32(l)); len(got) != 2 || got[0] != int32(l) || got[1] != int32(l+1) {
				t.Errorf("generation k label %d reads %v", l, got)
				return false
			}
		}
		if ids := gen.IDs(); len(ids) != 400 || cap(ids) != 400 {
			t.Errorf("generation k arena: len %d cap %d, want 400/400", len(ids), cap(ids))
			return false
		}
		return true
	}
	for r := 0; r < 4; r++ {
		ready.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			ok := read()
			ready.Done()
			for ok {
				select {
				case <-stop:
					return
				default:
					ok = read()
				}
			}
		}()
	}
	ready.Wait()
	cur := gen
	for k := 1; k <= 20; k++ {
		in := NewInternerFrom(cur)
		for i := 0; i < 50; i++ {
			in.Intern([]int32{int32(1000 * k), int32(i)})
		}
		if l := in.Intern([]int32{3, 4}); l != 3 {
			t.Fatalf("generation k+%d moved seeded content to label %d", k, l)
		}
		cur = in.Table()
		if cur.NumResults() != 200+50*k {
			t.Fatalf("generation k+%d holds %d results, want %d", k, cur.NumResults(), 200+50*k)
		}
	}
	close(stop)
	done.Wait()
	checkPrefix(t, cur, 200)
}

// FuzzLineage drives random sequences of seed (claim or fork), intern,
// freeze and compact over a pool of tables and interners, checking every
// one after every step against a naive content -> label model.
func FuzzLineage(f *testing.F) {
	f.Add([]byte{2, 1, 2, 2, 3, 0, 0, 2, 5, 1, 1, 3, 1})
	f.Add([]byte{3, 0, 0, 0, 1, 0, 2, 4, 7, 7, 2, 9, 1, 3, 1, 4, 0, 3, 2})
	f.Add([]byte{2, 3, 1, 2, 3, 2, 2, 0, 0, 1, 0, 2, 1, 1, 2, 2, 2, 6, 3, 4, 0, 0, 1, 3, 0})
	// Claim and fork one indexed table, then intern the same content into
	// both lineages.
	f.Add([]byte{0, 0, 1, 0, 1, 1, 2, 0, 0, 1, 0, 1, 1, 1, 2, 2, 3, 1, 2, 2, 2, 3, 2, 1, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		type model = []string // label -> content key
		key := func(ids []int32) string { return fmt.Sprint(ids) }
		type tbl struct {
			t *Table
			m model
		}
		type inr struct {
			in *Interner
			m  model
		}
		tables := []tbl{{NewInterner().Table(), nil}}
		var inners []inr
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		check := func(step int) {
			for k, x := range tables {
				if x.t.NumResults() != len(x.m) {
					t.Fatalf("step %d: table %d holds %d results, model %d", step, k, x.t.NumResults(), len(x.m))
				}
				for l, want := range x.m {
					if got := key(x.t.Result(uint32(l))); got != want {
						t.Fatalf("step %d: table %d label %d = %s, model %s", step, k, l, got, want)
					}
				}
			}
		}
		for step := 0; len(data) > 0 && step < 256; step++ {
			switch op := next() % 4; {
			case op == 0 && len(tables) < 16: // seed: claims the first time, forks after
				x := tables[next()%len(tables)]
				inners = append(inners, inr{NewInternerFrom(x.t), slices.Clone(x.m)})
			case op == 1 && len(inners) > 0: // intern
				x := &inners[next()%len(inners)]
				ids := make([]int32, next()%4)
				for i := range ids {
					ids[i] = int32(next() % 6)
				}
				l, k := x.in.Intern(ids), key(ids)
				if want := slices.Index(x.m, k); want >= 0 && int(l) != want {
					t.Fatalf("step %d: %s interned to %d, model has it at %d", step, k, l, want)
				} else if want < 0 {
					if int(l) != len(x.m) {
						t.Fatalf("step %d: new content %s got label %d, want %d", step, k, l, len(x.m))
					}
					x.m = append(x.m, k)
				}
			case op == 2 && len(inners) > 0 && len(tables) < 16: // freeze
				x := inners[next()%len(inners)]
				tables = append(tables, tbl{x.in.Table(), slices.Clone(x.m)})
			case op == 3 && len(tables) < 16: // compact over a random label walk
				x := tables[next()%len(tables)]
				if len(x.m) == 0 {
					continue
				}
				labels := make([]uint32, next()%8+1)
				for i := range labels {
					labels[i] = uint32(next() % len(x.m))
				}
				out, ct := CompactLabels(labels, x.t)
				var m model
				for i, l := range labels {
					if slices.Index(m, x.m[l]) < 0 {
						m = append(m, x.m[l])
					}
					if m[out[i]] != x.m[l] {
						t.Fatalf("step %d: compacted label %d reads %s, want %s", step, out[i], m[out[i]], x.m[l])
					}
				}
				tables = append(tables, tbl{ct, m})
			}
			check(step)
		}
	})
}
