package server

import (
	"hash/crc32"
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

// withBytes calls fn with the state's canonical file bytes — exactly what a
// full /v1/snapshot body carries. A builder state is encoded once per call,
// into a buffer fn may keep. A relay's bytes are its store's own file: the
// mapping itself, held against Close's unmap until fn returns, so fn must
// not keep them.
// Canonical persist makes the bytes deterministic: the same point set
// yields the same bytes no matter which maintenance history (or which node)
// produced the state.
func (st *state) withBytes(fn func(data []byte) error) error {
	if st.stored != nil {
		return st.stored.st.WithBytes(fn)
	}
	data, err := store.Encode(st.quadrant.Cells(), st.epoch)
	if err != nil {
		return err
	}
	return fn(data)
}

// recordState hashes the state's canonical bytes into the manifest ring so a
// later ?from= request can be answered with a delta. Called on the publish
// path right before the snapshot becomes visible; failures only cost delta
// eligibility (the epoch falls back to full streams), never correctness.
// For a builder state it returns the bytes it encoded, so the publisher can
// checkpoint the same epoch without encoding it again; nil otherwise.
func (h *Handler) recordState(st *state) []byte {
	if h.ring == nil {
		return nil
	}
	var data []byte
	err := st.withBytes(func(b []byte) error {
		m, err := store.NewManifest(b)
		if err != nil {
			return err
		}
		h.ring.add(m)
		if st.stored == nil {
			data = b
		}
		return nil
	})
	if err != nil {
		log.Printf("skyserve: delta manifest for epoch %d skipped: %v", st.epoch, err)
		return nil
	}
	return data
}

// tryDelta answers a ?from=N request with a delta body against the current
// full bytes, or reports why it cannot (each fallback reason is a counter
// series). full must be the exact bytes a full stream of snap would carry.
func (h *Handler) tryDelta(snap *state, from uint64, full []byte) ([]byte, bool) {
	if h.ring == nil {
		h.deltaFallback("disabled")
		return nil, false
	}
	base := h.ring.get(from)
	if base == nil {
		h.deltaFallback("ring_miss")
		return nil, false
	}
	// Prefer the manifest recorded at publish; re-hash only if the CRC says
	// these bytes are not the ones that were recorded (which would mean the
	// canonical-persist guarantee regressed — worth a log line, not a wrong
	// delta: the manifest CRC is what the replica's patch is judged against).
	cur := h.ring.get(snap.epoch)
	if crc := crc32.ChecksumIEEE(full); cur == nil || cur.CRC != crc {
		if cur != nil {
			log.Printf("skyserve: delta: recorded manifest crc %08x != served bytes crc %08x at epoch %d; re-hashing",
				cur.CRC, crc, snap.epoch)
		}
		m, err := store.NewManifest(full)
		if err != nil {
			h.deltaFallback("shape")
			return nil, false
		}
		cur = m
	}
	delta, err := store.Delta(base, cur, full)
	if err != nil {
		// Kind changed across the two epochs or the file shape is not
		// delta-eligible; the full stream is always correct.
		h.deltaFallback("kind")
		return nil, false
	}
	if len(delta) >= len(full) {
		// Near-total rewrite (e.g. an insert that added a grid line and
		// re-indexed the cells): shipping "the delta" would cost more than
		// the file. Full stream wins, and the counter says how often.
		h.deltaFallback("not_smaller")
		return nil, false
	}
	return delta, true
}

func (h *Handler) deltaFallback(reason string) {
	h.reg.Counter("skyserve_snapshot_delta_fallbacks_total",
		"Delta-eligible snapshot requests answered with a full stream instead, by reason.",
		"reason", reason).Inc()
}
