package server

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"

	"repro/internal/store"
)

// Snapshot replication. The builder node exposes its published snapshot as
// a store-format file over GET /v1/snapshot; read replicas poll it with
// their current epoch and swap the fetched file in via SwapStore. The store
// file is the replication artifact: canonicalized (the same point set,
// points in id order => the same bytes regardless of maintenance history),
// CRC-trailed (a torn fetch fails
// at open, so the transport needs no integrity protocol), and mmap-ready (a
// replica serves it without materialization).
//
// Catch-up protocol: a replica sends ?epoch=N (the snapshot generation it
// serves) and optionally If-None-Match with the ETag it last saw. If the
// builder's epoch is <= N the reply is 304 Not Modified with X-Sky-Epoch,
// costing one header round trip. A replica that also sends ?from=N and
// whose epoch is still inside the publisher's manifest ring may be answered
// with a page-level delta body (X-Sky-Snapshot-Mode: delta) that patches
// its cached file into the current bytes; every other case — ring miss,
// delta no smaller than the file — falls back to the full current
// snapshot, so any replica catches up in exactly one fetch either way. See
// delta.go and docs/SCALEOUT.md.

// snapshotETag is the entity tag for one published snapshot generation.
func snapshotETag(epoch uint64) string {
	return fmt.Sprintf(`"sky-e%d-quadrant"`, epoch)
}

// handleSnapshot serves the current snapshot in store format.
//
//	GET /v1/snapshot?epoch=3            full snapshot, or 304 if epoch <= 3
//	GET /v1/snapshot?epoch=3&from=3     delta against epoch 3 when possible
//	GET /v1/snapshot?kind=quadrant      the one kind a snapshot file holds;
//	                                    global or dynamic answers 501
//
// Each request streams the snapshot's file — a builder encodes its
// in-memory quadrant diagram (the replication artifact) chunk by chunk, a
// serve-from replica writes its mapped file — either into the response or
// through the delta it sends instead. A chain of replicas therefore
// converges on the exact same bytes, deltas included, since a delta patches
// into exactly the bytes a full body would carry (enforced by CRC at both
// ends).
func (h *Handler) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	kind, err := normalizeKind(r.URL.Query().Get("kind"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if kind != "quadrant" {
		writeError(w, http.StatusNotImplemented, `snapshot serves kind "quadrant" only`)
		return
	}
	snap := h.acquire()
	if snap == nil {
		errStoreClosed(w)
		return
	}
	defer snap.release()
	etag := snapshotETag(snap.epoch)
	setEpochHeader(w, snap.epoch)
	w.Header().Set("ETag", etag)
	if notModified(r, snap.epoch, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	f, err := snap.file()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	h.sendSnapshot(w, r, snap, f)
}

// sendSnapshot writes one snapshot response from the state's file: the
// delta against ?from= when the ring allows and it is smaller, the full
// file otherwise. The epoch's first stream, of either kind, records its
// manifest first, so a replica that now holds the epoch can later catch up
// from it by delta.
func (h *Handler) sendSnapshot(w http.ResponseWriter, r *http.Request, snap *state, f snapshotFile) {
	cur := h.recordState(snap)
	var body io.WriterTo = f
	mode, size := "full", f.Size()
	if from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64); err == nil {
		if delta, ok := h.tryDelta(snap, cur, f, from); ok {
			body, mode, size = bytes.NewReader(delta), "delta", int64(len(delta))
			h.deltaHits.Inc()
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Sky-Snapshot-Mode", mode)
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	n, err := body.WriteTo(w)
	h.reg.Counter("skyserve_snapshot_bytes_total",
		"Snapshot body bytes put on the wire via /v1/snapshot, by transfer mode.",
		"mode", mode).Add(n)
	if mode == "full" {
		h.encoded(snap, "full", n)
	}
	if err != nil {
		// The status line is already on the wire; the replica detects the
		// torn body by CRC (patch CRC for deltas, trailer CRC at open for
		// full files) and refetches. An aborted body is not a fetch.
		log.Printf("skyserve: snapshot stream aborted: %v", err)
		return
	}
	h.reg.Counter("skyserve_snapshot_fetches_total",
		"Complete snapshot bodies (full or delta) streamed via /v1/snapshot.").Inc()
	// A replica just pulled this generation, so its bytes are durable
	// off-box too — a natural moment to checkpoint the local WAL (a no-op
	// on a relay, which has none).
	h.checkpointAsync(snap)
}

// notModified reports whether the client already holds this generation:
// its ?epoch= is at or past ours, or its If-None-Match carries our ETag.
func notModified(r *http.Request, epoch uint64, etag string) bool {
	if e := r.URL.Query().Get("epoch"); e != "" {
		if have, err := strconv.ParseUint(e, 10, 64); err == nil && have >= epoch {
			return true
		}
	}
	return r.Header.Get("If-None-Match") == etag
}

// SwapStore atomically replaces a serve-from handler's snapshot with a newer
// store and returns the previous one, which the caller must Close. Close
// does not wait for in-flight readers: whichever of Close and the last
// reader's release comes later unmaps the old store. Only valid on
// handlers built with NewServeFrom; the new store's epoch must be strictly
// newer than the served one, so a stale or replayed snapshot can never
// roll a replica backwards.
func (h *Handler) SwapStore(st *store.Store) (*store.Store, error) {
	if !h.readOnly {
		return nil, fmt.Errorf("server: SwapStore on a non-serve-from handler")
	}
	next := serveFromState(st)
	h.mu.Lock()
	prev := h.st
	if next.epoch <= prev.epoch {
		h.mu.Unlock()
		return nil, fmt.Errorf("server: snapshot epoch %d is not newer than served epoch %d",
			next.epoch, prev.epoch)
	}
	h.setState(next)
	h.mu.Unlock()
	h.swaps.Inc()
	return prev.stored, nil
}
