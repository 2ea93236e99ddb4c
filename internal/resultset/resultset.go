// Package resultset provides the interned CSR (compressed sparse row)
// representation shared by every skyline diagram kind: all distinct per-cell
// result lists are hash-consed into a single int32 arena addressed through an
// offsets table, and each cell stores only a 4-byte label.
//
// The paper's space analysis charges O(min(s,n)^2 · n) for the per-cell
// output representation, but the polyomino structure of the diagram
// (Theorem 2) means adjacent cells overwhelmingly share identical results —
// the number of DISTINCT results is bounded by the polyomino count, which is
// orders of magnitude below the cell count at realistic sizes. Interning
// turns the per-cell cost into one uint32, and a query into point location
// plus one offsets indirection returning a subslice of the arena: zero
// allocations on the read path.
//
// Two types:
//
//   - Interner: the build-time hash-consing structure. Intern(ids) returns a
//     stable label; identical contents always map to the same label.
//   - Table: the frozen, immutable serving form — just the arena and the
//     offsets. Result(label) is two loads and a subslice.
//
// Copy-on-write maintenance (diagram insert/delete) seeds a new Interner
// from an existing Table with NewInternerFrom. Old labels stay valid, so
// untouched cells carry their labels over for free and only touched cells
// pay an intern. Successive generations form a lineage that grows one arena
// in place, under claim-or-fork ownership:
//
//   - Claim. The first NewInternerFrom(t) wins t's atomic claim flag and
//     appends to t's arena and offsets in place, past their length. Every
//     table sees only its own [0:len) prefix — Result, IDs and Offsets all
//     return length-clamped slices — so readers of t and of every older
//     generation never observe the appends. Interner.Table hands the
//     capacity past the new length on to the table it freezes, whose first
//     seed claims it in turn. A write thus allocates in proportion to the
//     results it adds, not to the arena.
//   - Fork. Any later seed of an already-claimed table (a failed batch
//     retried from the same base, a test deriving twice) gets length-clamped
//     slices, so its first append copies the arena, and it builds a private
//     dedup index in one O(results) pass on its first intern.
//
// Dedup never rescans the arena per update. Each lineage owns one
// open-addressing index: a power-of-two array of uint64 slots, each holding
// a result's 32-bit content fingerprint (high half) and its label+1 (low
// half, 0 = empty). Lookups probe linearly from the fingerprint and compare
// content only on a fingerprint match; the array doubles at 3/4 load by
// re-placing slots from their stored fingerprints, never rehashing content.
// The index travels with the arena: Interner.Table hands it to the frozen
// table and the claimant takes it over. Tables that arrive without one
// (NewTable, CompactLabels, a fork's seed) build it lazily on first intern.
package resultset

import (
	"slices"
	"sync/atomic"
)

// Table is a frozen interned result table: result label l spans
// ids[offsets[l]:offsets[l+1]].
type Table struct {
	// The table is the [0:len) prefix of ids and offsets. Their capacity
	// past len belongs to the lineage: only the interner that claims the
	// table writes there.
	ids     []int32
	offsets []uint32 // len = NumResults()+1, offsets[0] == 0, ascending
	// index is the lineage's dedup index, covering at least this table's
	// results; it passes to the claimant, and nil means build on first use.
	index   []uint64
	claimed atomic.Bool
}

// NewTable assembles a table from raw CSR arrays, validating the structural
// invariants (used by deserializers; Interner-built tables hold them by
// construction). The slices are retained, not copied; their capacity is
// clamped, so growing the table never writes into the caller's memory.
func NewTable(offsets []uint32, ids []int32) (*Table, bool) {
	if len(offsets) == 0 || offsets[0] != 0 {
		return nil, false
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			return nil, false
		}
	}
	if int(offsets[len(offsets)-1]) != len(ids) {
		return nil, false
	}
	return &Table{ids: clamp(ids), offsets: clamp(offsets)}, true
}

// NumResults returns the number of distinct interned results.
func (t *Table) NumResults() int { return len(t.offsets) - 1 }

// Result returns the id list of the given label. The slice aliases the
// arena and must not be modified; the capacity is clamped so an append by a
// careless caller cannot clobber a neighbouring result.
func (t *Table) Result(label uint32) []int32 {
	lo, hi := t.offsets[label], t.offsets[label+1]
	return t.ids[lo:hi:hi]
}

// Len returns the length of the given label's result without materializing
// the subslice.
func (t *Table) Len(label uint32) int {
	return int(t.offsets[label+1] - t.offsets[label])
}

// ArenaLen returns the total number of ids in the arena.
func (t *Table) ArenaLen() int { return len(t.ids) }

// Offsets exposes the raw offsets array for serialization. Read-only.
func (t *Table) Offsets() []uint32 { return clamp(t.offsets) }

// IDs exposes the raw arena for serialization. Read-only.
func (t *Table) IDs() []int32 { return clamp(t.ids) }

// PayloadBytes returns the bytes held by the table's payload (arena plus
// offsets), for space accounting.
func (t *Table) PayloadBytes() int { return 4*len(t.ids) + 4*len(t.offsets) }

// clamp caps a slice at its length, so an append through it copies.
func clamp[E any](s []E) []E { return s[:len(s):len(s)] }

// fingerprint hashes a result's content to the 32 bits an index slot keeps:
// a multiply-xor pass over the ids, finished with splitmix64's mixer so the
// low bits, which pick the probe start, depend on every id.
func fingerprint(ids []int32) uint32 {
	h := uint64(len(ids))
	for _, id := range ids {
		h = (h ^ uint64(uint32(id))) * 0x9e3779b97f4a7c15
	}
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return uint32(h ^ h>>31)
}

// place stores slot s at the first free position of its probe sequence.
func place(index []uint64, s uint64) {
	mask := uint64(len(index) - 1)
	i := s >> 32 & mask
	for index[i] != 0 {
		i = (i + 1) & mask
	}
	index[i] = s
}

// LiveArena returns the arena usage of a table as seen by a label array:
// live is the number of arena ids reachable from some label in labels (each
// distinct result counted once), total is the whole arena. The difference is
// garbage left behind by copy-on-write maintenance — results no cell
// references anymore. O(len(labels) + NumResults).
func LiveArena(labels []uint32, t *Table) (live, total int) {
	seen := make([]bool, t.NumResults())
	for _, l := range labels {
		if !seen[l] {
			seen[l] = true
			live += t.Len(l)
		}
	}
	return live, t.ArenaLen()
}

// CompactLabels rewrites a label array against a garbage-free copy of its
// table, assigning new labels in first-use order over labels. Because a
// fresh build interns cells in exactly that order (row-major) and assigns
// labels in first-appearance order, the compacted table and label array are
// byte-identical to what a from-scratch rebuild of the same diagram would
// produce — compaction is a pure copy, no hashing or recomputation.
//
// The input is not modified; the returned table shares nothing with t, so
// dropping t releases its garbage. It starts a new lineage without an index.
func CompactLabels(labels []uint32, t *Table) ([]uint32, *Table) {
	remap := make([]uint32, t.NumResults()) // old label -> new label + 1
	live, _ := LiveArena(labels, t)
	newIDs := make([]int32, 0, live)
	newOffsets := make([]uint32, 1, len(t.offsets))
	out := make([]uint32, len(labels))
	for k, l := range labels {
		nl := remap[l]
		if nl == 0 {
			newIDs = append(newIDs, t.Result(l)...)
			newOffsets = append(newOffsets, uint32(len(newIDs)))
			nl = uint32(len(newOffsets) - 1)
			remap[l] = nl
		}
		out[k] = nl - 1
	}
	return out, &Table{ids: newIDs, offsets: newOffsets}
}

// Interner hash-conses id lists into a growing CSR table.
type Interner struct {
	ids     []int32
	offsets []uint32
	index   []uint64 // fingerprint<<32 | label+1 per slot; nil until first Intern
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{offsets: []uint32{0}}
}

// NewInternerFrom seeds an interner with every result of an existing table;
// existing labels stay valid, so copy-on-write callers can carry unchanged
// cells' labels over verbatim and intern only the cells they touched. The
// first seed of a table claims it and grows its arena and index in place;
// any later seed forks: its first append copies the arena and its first
// intern builds a private index. Either way seeding itself is one struct
// allocation and never a scan, and the table is never modified.
func NewInternerFrom(t *Table) *Interner {
	if t.claimed.CompareAndSwap(false, true) {
		return &Interner{ids: t.ids, offsets: t.offsets, index: t.index}
	}
	return &Interner{ids: clamp(t.ids), offsets: clamp(t.offsets)}
}

// Intern returns the label of ids, appending it to the arena if its content
// has not been seen before. nil and empty slices intern to the same label.
func (in *Interner) Intern(ids []int32) uint32 {
	if in.index == nil {
		in.buildIndex()
	}
	fp := fingerprint(ids)
	mask := uint64(len(in.index) - 1)
	i := uint64(fp) & mask
	for s := in.index[i]; s != 0; s = in.index[i] {
		if uint32(s>>32) == fp && slices.Equal(in.Result(uint32(s)-1), ids) {
			return uint32(s) - 1
		}
		i = (i + 1) & mask
	}
	label := uint32(in.NumResults())
	in.ids = append(in.ids, ids...)
	in.offsets = append(in.offsets, uint32(len(in.ids)))
	in.index[i] = uint64(fp)<<32 | uint64(label+1)
	if 4*in.NumResults() > 3*len(in.index) {
		grown := make([]uint64, 2*len(in.index))
		for _, s := range in.index {
			if s != 0 {
				place(grown, s)
			}
		}
		in.index = grown
	}
	return label
}

// buildIndex indexes every result the interner holds, in one pass, sized so
// the next intern fits under the 3/4 load bound.
func (in *Interner) buildIndex() {
	n := in.NumResults()
	size := 8
	for 3*size < 4*(n+1) {
		size *= 2
	}
	in.index = make([]uint64, size)
	for l := 0; l < n; l++ {
		place(in.index, uint64(fingerprint(in.Result(uint32(l))))<<32|uint64(l+1))
	}
}

// Result returns the id list of an already-interned label. Like
// Table.Result, the slice aliases the arena and must not be modified.
func (in *Interner) Result(label uint32) []int32 {
	lo, hi := in.offsets[label], in.offsets[label+1]
	return in.ids[lo:hi:hi]
}

// NumResults returns the number of distinct results interned so far.
func (in *Interner) NumResults() int { return len(in.offsets) - 1 }

// Table freezes the interner's current contents into an immutable Table
// that carries the arena's spare capacity and the index with it, for its
// claimant. The interner may keep interning afterwards, but as a fork: its
// next append copies the arena and its next intern rebuilds an index, so it
// never writes into memory the frozen table handed on.
func (in *Interner) Table() *Table {
	t := &Table{ids: in.ids, offsets: in.offsets, index: in.index}
	in.ids, in.offsets, in.index = clamp(in.ids), clamp(in.offsets), nil
	return t
}
