// Package router is the scale-out tier from ROADMAP item 1: it spreads
// skyline query traffic across read replicas with consistent hashing,
// health-checks them over /v1/health (liveness + snapshot epoch), and fails
// over — preferring healthy, epoch-fresh replicas — using the same circuit
// breaker the typed client uses. Writes are forwarded to the builder node,
// which is the single source of truth for snapshot epochs.
package router

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// vnodesPerNode is how many virtual points each node occupies on the ring.
// 64 keeps every node's share of the keys within about 0.5-1.6x of its fair
// share for pools of 2-8 nodes (TestRingBalance) while the ring stays tiny
// (a pool of 32 replicas is 2048 entries).
const vnodesPerNode = 64

// ring is an immutable consistent-hash ring over node names. Keys hash onto
// the circle and are served by the next node clockwise; Order walks the
// whole circle so callers get every node exactly once, in the key's
// failover order — adding or removing one node only reshuffles the keys
// that mapped to it.
type ring struct {
	hashes []uint64 // sorted vnode positions
	owner  []string // owner[i] owns hashes[i]
	nodes  int
}

func newRing(nodes []string) *ring {
	r := &ring{
		hashes: make([]uint64, 0, len(nodes)*vnodesPerNode),
		nodes:  len(nodes),
	}
	type vnode struct {
		h     uint64
		owner string
	}
	vns := make([]vnode, 0, len(nodes)*vnodesPerNode)
	for _, n := range nodes {
		for i := 0; i < vnodesPerNode; i++ {
			vns = append(vns, vnode{hash64(fmt.Sprintf("%s#%d", n, i)), n})
		}
	}
	sort.Slice(vns, func(i, j int) bool {
		if vns[i].h != vns[j].h {
			return vns[i].h < vns[j].h
		}
		// Hash ties (vanishingly rare) break on name so the ring is
		// deterministic regardless of input order.
		return vns[i].owner < vns[j].owner
	})
	r.owner = make([]string, len(vns))
	for i, v := range vns {
		r.hashes = append(r.hashes, v.h)
		r.owner[i] = v.owner
	}
	return r
}

// Order returns every node exactly once, starting at the key's position and
// walking clockwise: Order(key)[0] is the key's home node, the rest is its
// deterministic failover sequence.
func (r *ring) Order(key string) []string {
	if r.nodes == 0 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	out := make([]string, 0, r.nodes)
	seen := make(map[string]bool, r.nodes)
	for i := 0; i < len(r.hashes) && len(out) < r.nodes; i++ {
		n := r.owner[(start+i)%len(r.hashes)]
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// hash64 places vnodes and keys on the circle: FNV-1a, passed through
// splitmix64's finalizer. Bare FNV-1a barely moves its high bits when names
// differ only in their last bytes (a port, a "#i" vnode suffix, "ds17"), so
// a small pool's vnodes cluster and one node can own every key; the
// finalizer spreads each input bit over the whole word.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
