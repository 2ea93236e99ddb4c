package server

import (
	"io"
	"log"
	"sync"

	"repro/internal/store"
)

// Delta snapshot serving. Every publish (initial build, coalesced write
// batch, serve-from swap) records a page-hash manifest of the canonical
// snapshot bytes into a bounded ring. A replica that polls with
// ?from=<its epoch> is answered with only the pages that changed since that
// epoch when the ring still holds it and the delta actually saves bytes;
// every other case falls back to the full stream, individually counted —
// the protocol never guesses. See docs/SCALEOUT.md for the wire format.

// DefaultDeltaRing is how many epochs of page-hash manifests a handler
// retains for delta serving. A manifest costs ~0.2% of the snapshot file
// (one 8-byte hash per 4 KiB page), so the ring is cheap; its depth bounds
// how far behind a replica may fall and still catch up incrementally.
const DefaultDeltaRing = 32

// manifestRing is the bounded epoch -> manifest map, evicting oldest-first.
type manifestRing struct {
	mu      sync.Mutex
	cap     int
	byEpoch map[uint64]*store.Manifest
	order   []uint64
}

func newManifestRing(cap int) *manifestRing {
	return &manifestRing{cap: cap, byEpoch: make(map[uint64]*store.Manifest, cap)}
}

func (r *manifestRing) add(m *store.Manifest) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byEpoch[m.Epoch]; !ok {
		r.order = append(r.order, m.Epoch)
	}
	r.byEpoch[m.Epoch] = m
	for len(r.order) > r.cap {
		delete(r.byEpoch, r.order[0])
		r.order = r.order[1:]
	}
}

func (r *manifestRing) get(epoch uint64) *store.Manifest {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byEpoch[epoch]
}

// snapshotFile is a state's canonical file — exactly what a full
// /v1/snapshot body carries: a builder streams it from its quadrant diagram
// through the store encoder, one chunk at a time, each time it is used; a
// relay's is its store's own file, written straight from the mapping.
// Canonical persist makes the bytes deterministic: the same point set
// yields the same bytes no matter which maintenance history (or which node)
// produced the state.
type snapshotFile interface {
	Size() int64
	WriteTo(w io.Writer) (int64, error)
	Manifest() (*store.Manifest, error)
}

// file returns the state's canonical file. A relay's reads its store's
// mapping, so the caller must hold the store (acquire) while using it.
func (st *state) file() (snapshotFile, error) {
	if st.stored != nil {
		return st.stored, nil
	}
	return store.NewEncoder(st.quadrant.Cells(), st.epoch)
}

// recordState hashes the state's canonical bytes into the manifest ring so a
// later ?from= request can be answered with a delta. Called on the publish
// path right before the snapshot becomes visible; failures only cost delta
// eligibility (the epoch falls back to full streams), never correctness.
func (h *Handler) recordState(st *state) {
	if h.ring == nil {
		return
	}
	f, err := st.file()
	if err == nil {
		var m *store.Manifest
		if m, err = f.Manifest(); err == nil {
			h.ring.add(m)
			return
		}
	}
	log.Printf("skyserve: delta manifest for epoch %d skipped: %v", st.epoch, err)
}

// tryDelta answers a ?from=N request with a delta body against the current
// file f, or reports why it cannot (each fallback reason is a counter
// series). The delta's pages are the ones the recorded manifests of the two
// epochs mark as changed, taken from f as it streams by; f is checked
// against the current epoch's manifest on the way, so a delta is never built
// from bytes other than the ones recorded.
func (h *Handler) tryDelta(snap *state, f snapshotFile, from uint64) ([]byte, bool) {
	if h.ring == nil {
		h.deltaFallback("disabled")
		return nil, false
	}
	base, cur := h.ring.get(from), h.ring.get(snap.epoch)
	if base == nil || cur == nil {
		h.deltaFallback("ring_miss")
		return nil, false
	}
	dw, err := store.NewDeltaWriter(base, cur)
	if err != nil {
		// Kind changed across the two epochs; the full stream is always
		// correct.
		h.deltaFallback("kind")
		return nil, false
	}
	if int64(dw.Len()) >= cur.Size {
		// Near-total rewrite (e.g. an insert that added a grid line and
		// re-indexed the cells): shipping "the delta" would cost more than
		// the file. Full stream wins, and the counter says how often. The
		// manifests alone decide it: the delta's buffer does not exist yet.
		h.deltaFallback("not_smaller")
		return nil, false
	}
	var delta []byte
	if _, err = f.WriteTo(dw); err == nil {
		delta, err = dw.Bytes()
	}
	if err != nil {
		// The served bytes are not the ones recorded at publish: the
		// canonical-persist guarantee regressed. Worth a log line, not a
		// wrong delta.
		log.Printf("skyserve: delta: epoch %d: %v", snap.epoch, err)
		h.deltaFallback("mismatch")
		return nil, false
	}
	return delta, true
}

func (h *Handler) deltaFallback(reason string) {
	h.reg.Counter("skyserve_snapshot_delta_fallbacks_total",
		"Delta-eligible snapshot requests answered with a full stream instead, by reason.",
		"reason", reason).Inc()
}
