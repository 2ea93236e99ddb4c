package router

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func TestRingOrderCoversEveryNodeOnce(t *testing.T) {
	nodes := []string{"a", "b", "c", "d", "e"}
	r := newRing(nodes)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("dataset-%d", i)
		order := r.Order(key)
		if len(order) != len(nodes) {
			t.Fatalf("Order(%q) has %d nodes, want %d", key, len(order), len(nodes))
		}
		seen := map[string]bool{}
		for _, n := range order {
			if seen[n] {
				t.Fatalf("Order(%q) repeats %q: %v", key, n, order)
			}
			seen[n] = true
		}
	}
}

func TestRingOrderDeterministic(t *testing.T) {
	a := newRing([]string{"x", "y", "z"})
	b := newRing([]string{"z", "x", "y"}) // input order must not matter
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%d", i)
		oa, ob := a.Order(key), b.Order(key)
		for j := range oa {
			if oa[j] != ob[j] {
				t.Fatalf("Order(%q) differs by construction order: %v vs %v", key, oa, ob)
			}
		}
	}
}

// Removing one node must only reshuffle the keys it owned: every other
// key's home node is unchanged — the property that makes consistent
// hashing cheap to rebalance.
func TestRingRemovalOnlyMovesOwnedKeys(t *testing.T) {
	full := newRing([]string{"a", "b", "c", "d"})
	without := newRing([]string{"a", "b", "c"})
	moved, kept := 0, 0
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("k%d", i)
		home := full.Order(key)[0]
		after := without.Order(key)[0]
		if home == "d" {
			moved++
			continue // had to move somewhere
		}
		if home != after {
			t.Fatalf("key %q moved %s -> %s though %q was not removed", key, home, after, "d")
		}
		kept++
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate distribution: moved=%d kept=%d", moved, kept)
	}
}

// The vnode count should spread keys within a loose factor of fair share.
func TestRingDistribution(t *testing.T) {
	nodes := []string{"n0", "n1", "n2", "n3"}
	r := newRing(nodes)
	counts := map[string]int{}
	const keys = 4000
	for i := 0; i < keys; i++ {
		counts[r.Order(fmt.Sprintf("key-%d", i))[0]]++
	}
	fair := keys / len(nodes)
	for n, c := range counts {
		if c < fair/3 || c > fair*3 {
			t.Fatalf("node %s owns %d keys, fair share %d: %v", n, c, fair, counts)
		}
	}
}

// Every node of a small loopback pool must own a fair share of the keys.
// Pool names differ only in their port, and keys only in their last digits:
// the inputs that made bare FNV-1a put all of ds0..ds199 on one node of a
// two-node pool. Over 500 random pools per size (seeds 1 and 99) the worst
// share was 0.53-1.58x of fair; bare FNV-1a gave 0.00-5.95x, with empty nodes.
func TestRingBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const keys, pools = 2000, 100
	hashes := make([]uint64, keys)
	for k := range hashes {
		hashes[k] = hash64(fmt.Sprintf("ds%d", k))
	}
	for size := 2; size <= 8; size++ {
		for p := 0; p < pools; p++ {
			nodes := make([]string, 0, size)
			seen := map[int]bool{}
			for len(nodes) < size {
				if port := 30000 + rng.Intn(30000); !seen[port] {
					seen[port] = true
					nodes = append(nodes, fmt.Sprintf("http://127.0.0.1:%d", port))
				}
			}
			r := newRing(nodes)
			counts := map[string]int{}
			for _, h := range hashes {
				i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
				counts[r.owner[i%len(r.hashes)]]++
			}
			fair := float64(keys) / float64(size)
			for _, n := range nodes {
				if share := float64(counts[n]) / fair; share < 0.5 || share > 1.6 {
					t.Fatalf("pool %v: node %s owns %d of %d keys (%.2fx fair share)", nodes, n, counts[n], keys, share)
				}
			}
		}
	}
}
