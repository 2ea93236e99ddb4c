package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/geom"
)

// Fuzz form of the incremental-vs-rebuild differential suite: arbitrary byte
// strings decode into insert/delete op sequences over a small integer lattice
// (tie- and duplicate-heavy by construction), and the incrementally
// maintained DiagramSet must stay rebuild-equal after every op, for every
// diagram kind. See update_chain_test.go for the deterministic chains these
// generalize.

var fuzzOpts = UpdateOptions{MaxDynamicPoints: 32}

// decodeOps turns a fuzz input into an op sequence: each 3-byte group is one
// op — [kind, a, b] decodes to a delete of id a%16 when kind%4 == 0, else an
// insert at lattice location (a%10, b%10). Insert ids cycle through 0..15,
// counting up, or down from 15 when bit 2 of kind is set, so inserts land
// after, before and between the live ids, and duplicate-insert and
// missing-delete rejections occur naturally; the decoder keeps them (Apply
// must reject them without corrupting the set).
func decodeOps(raw []byte) []Op {
	const maxOps = 12
	var ops []Op
	nextID := 0
	for i := 0; i+2 < len(raw) && len(ops) < maxOps; i += 3 {
		kind, a, b := raw[i], raw[i+1], raw[i+2]
		if kind%4 == 0 {
			ops = append(ops, DeleteOp(int(a%16)))
			continue
		}
		id := nextID % 16
		if kind&4 != 0 {
			id = 15 - id
		}
		ops = append(ops, InsertOp(geom.Pt2(id, float64(a%10), float64(b%10))))
		nextID++
	}
	return ops
}

// FuzzIncrementalMatchesRebuild drives decoded op sequences through
// DiagramSet.Apply starting from the empty set and checks rebuild equality
// after every surviving op. Rejected ops must leave the set untouched.
func FuzzIncrementalMatchesRebuild(f *testing.F) {
	f.Add([]byte{1, 3, 7, 1, 3, 7, 0, 0, 0})          // duplicate location, then delete
	f.Add([]byte{1, 0, 0, 1, 9, 9, 1, 0, 9, 1, 9, 0}) // the four lattice corners
	f.Add([]byte{0, 5, 5, 1, 5, 5, 0, 0, 0})          // delete from empty, insert, delete it
	// Descending ids 15, 14, 13, 12, each below every live id; then 4
	// (below them all), 5 and 9 (between live ids); then deletes of 14, 4.
	f.Add([]byte{5, 2, 7, 5, 6, 1, 5, 4, 4, 5, 8, 3, 1, 1, 9, 1, 7, 0, 5, 3, 2, 0, 14, 0, 0, 4, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 36 {
			raw = raw[:36]
		}
		set, err := BuildSet(nil, fuzzOpts)
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range decodeOps(raw) {
			next, err := set.Apply(op, fuzzOpts)
			if errors.Is(err, ErrRejected) {
				continue
			}
			if err != nil {
				t.Fatalf("op %d (%s): %v", i, op, err)
			}
			set = next
			assertIDOrder(t, set, fmt.Sprintf("op %d (%s)", i, op))
			fresh, err := BuildSet(set.Points, fuzzOpts)
			if err != nil {
				t.Fatalf("op %d (%s): rebuild: %v", i, op, err)
			}
			if !set.Equal(fresh) {
				t.Fatalf("op %d (%s) n=%d: incremental differs from rebuild on %v",
					i, op, len(set.Points), set.Points)
			}
		}
	})
}

// FuzzBatchMatchesSequential is the coalescing equivalence fuzz: folding a
// decoded op sequence through one ApplyBatch must produce exactly the
// diagrams of applying the same ops one at a time, with identical per-op
// accept/reject attribution — the property the server's write coalescing
// depends on.
func FuzzBatchMatchesSequential(f *testing.F) {
	f.Add([]byte{1, 2, 2, 1, 2, 2, 0, 0, 0, 1, 7, 1})
	f.Add([]byte{0, 9, 9, 0, 9, 9}) // all rejected: batch returns the receiver
	f.Add([]byte{1, 4, 4, 0, 0, 4, 1, 4, 4})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 36 {
			raw = raw[:36]
		}
		ops := decodeOps(raw)
		base, err := BuildSet([]geom.Point{geom.Pt2(14, 3, 3), geom.Pt2(15, 6, 1)}, fuzzOpts)
		if err != nil {
			t.Fatal(err)
		}
		batched, results, err := base.ApplyBatch(ops, fuzzOpts)
		if err != nil {
			t.Fatalf("batch: %v", err)
		}
		seq := base
		anyApplied := false
		for i, op := range ops {
			next, err := seq.Apply(op, fuzzOpts)
			if errors.Is(err, ErrRejected) {
				if !errors.Is(results[i].Err, ErrRejected) {
					t.Fatalf("op %d (%s): sequential rejected, batch said %v", i, op, results[i].Err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("sequential op %d (%s): %v", i, op, err)
			}
			if results[i].Err != nil {
				t.Fatalf("op %d (%s): sequential applied, batch said %v", i, op, results[i].Err)
			}
			seq = next
			anyApplied = true
			if results[i].Points != len(seq.Points) {
				t.Fatalf("op %d (%s): batch reported %d points, sequential has %d",
					i, op, results[i].Points, len(seq.Points))
			}
		}
		if !anyApplied && batched != base {
			t.Fatal("all-rejected batch must return the receiver")
		}
		if !batched.Equal(seq) {
			t.Fatalf("batched result differs from sequential application of %v", ops)
		}
	})
}
