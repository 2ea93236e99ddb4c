package server

import (
	"io"
	"log"
	"sync"

	"repro/internal/store"
)

// Delta snapshot serving. The first time an epoch is streamed through
// /v1/snapshot (as a full body or as a delta), the page-hash manifest of its
// canonical bytes is recorded into a bounded ring; a boot records its
// epoch's when it publishes. A replica that polls with
// ?from=<its epoch> is answered with only the pages that changed since that
// epoch when the ring still holds it and the delta actually saves bytes;
// every other case falls back to the full stream, individually counted —
// the protocol never guesses. Neither a builder's write nor a relay's swap
// records anything: an epoch no replica fetches is never hashed, and every
// epoch a replica can hold was streamed to it. See docs/SCALEOUT.md for the
// wire format.

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
// through the state's one store encoder, one chunk at a time; a relay's is
// its store's own file, written straight from the mapping. Canonical
// persist makes the bytes deterministic: the same point set, points in id
// order, yields the same bytes no matter which maintenance history (or
// which node) produced the state.
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
	e, err := st.encoder()
	if err != nil {
		return nil, err
	}
	return e, nil
}

// encoder returns a builder state's layout of its file: one store.Encoder,
// built on first use and shared by every later one — the manifest, each
// delta and full body, and the checkpoint — so an epoch is laid out once
// however many times it streams.
func (st *state) encoder() (*store.Encoder, error) {
	st.encOnce.Do(func() {
		st.enc, st.encErr = store.NewEncoder(st.quadrant.Cells(), st.epoch)
	})
	return st.enc, st.encErr
}

// recordState returns the manifest of the state's file, hashing it and
// recording it in the ring on the first call: at the epoch's first stream,
// or when a boot publishes the state. Later calls, from
// concurrent first polls too, share that one pass. nil means the hash
// failed, which only costs delta eligibility (the epoch falls back to full
// streams), never correctness.
func (h *Handler) recordState(st *state) *store.Manifest {
	st.manOnce.Do(func() {
		f, err := st.file()
		if err == nil {
			var m *store.Manifest
			if m, err = f.Manifest(); err == nil {
				h.encoded(st, "manifest", m.Size)
				h.ring.add(m)
				st.man = m
				return
			}
		}
		log.Printf("skyserve: delta manifest for epoch %d skipped: %v", st.epoch, err)
	})
	return st.man
}

// encoded counts n bytes a builder's encoder streamed for one use. A relay
// streams its mapped file and encodes nothing.
func (h *Handler) encoded(st *state, use string, n int64) {
	if st.stored == nil {
		h.reg.Counter("skyserve_snapshot_encoded_bytes_total",
			"Bytes a builder's snapshot encoder streamed, by use: manifest, delta, full body, checkpoint.",
			"use", use).Add(n)
	}
}

// tryDelta answers a ?from=N request with a delta body against the current
// file f, whose manifest is cur, or reports why it cannot (each fallback
// reason is a counter series). The delta's pages are the ones the manifests
// of the two epochs mark as changed, taken from f as it streams by; f is
// checked against cur on the way, so a delta is never built from bytes
// other than the ones recorded.
func (h *Handler) tryDelta(snap *state, cur *store.Manifest, f snapshotFile, from uint64) ([]byte, bool) {
	base := h.ring.get(from)
	if base == nil || cur == nil {
		h.deltaFallback("ring_miss")
		return nil, false
	}
	dw := store.NewDeltaWriter(base, cur)
	if int64(dw.Len()) >= cur.Size {
		// Near-total rewrite (e.g. an insert that added a grid line and
		// re-indexed the cells): shipping "the delta" would cost more than
		// the file. Full stream wins, and the counter says how often. The
		// manifests alone decide it: the delta's buffer does not exist yet.
		h.deltaFallback("not_smaller")
		return nil, false
	}
	var delta []byte
	n, err := f.WriteTo(dw)
	h.encoded(snap, "delta", n)
	if err == nil {
		delta, err = dw.Bytes()
	}
	if err != nil {
		// The served bytes are not the ones recorded at the first stream:
		// the canonical-persist guarantee regressed. Worth a log line, not
		// a wrong delta.
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
