package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/geom"
	"repro/internal/store"
	"repro/internal/wal"
)

// Durable writes. With Config.WALDir set, the builder acknowledges an
// insert or delete only after it is on disk: the coalesce leader appends
// its whole claimed batch to the write-ahead log and fsyncs once (group
// commit — the durability barrier rides the batching the server already
// has), and only then publishes the snapshot and acks the queued writers.
// A batch that cannot be logged fails wholesale with 500 and leaves the
// published snapshot untouched, so the log and the served state never
// diverge.
//
// The same directory holds the checkpoint snapshot (checkpoint.sky, written
// with the store's atomic temp+fsync+rename publish). Recovery at boot is
// store.Recover(checkpoint) → rebuild the diagrams from its point set →
// replay every WAL record with a newer epoch. Records at or below the
// checkpoint epoch are skipped, so checkpoint + truncation (wal.Checkpoint)
// bound both the disk and the replay time under sustained churn.

// CheckpointFile is the checkpoint snapshot's name inside Config.WALDir.
const CheckpointFile = "checkpoint.sky"

// DefaultCheckpointBytes is the retained-WAL size that triggers an
// automatic checkpoint after a write batch.
const DefaultCheckpointBytes = 1 << 20

// newDurable builds a handler in WAL-durable mode: load the checkpoint
// snapshot if one exists (falling back to pts on first boot), replay the
// log on top of it, persist a fresh checkpoint anchoring the replayed
// state, and only then expose the routes.
func newDurable(pts []geom.Point, cfg Config) (*Handler, error) {
	h := newHandler(cfg)
	dir := cfg.WALDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: wal dir: %w", err)
	}
	h.snapPath = filepath.Join(dir, CheckpointFile)

	// Base state: the checkpoint snapshot wins over the caller's dataset —
	// it already reflects acknowledged writes. store.Recover also salvages
	// a checkpoint whose publish rename was interrupted by a crash.
	epoch := uint64(1)
	basePts := pts
	cst, err := store.Recover(h.snapPath)
	switch {
	case err == nil:
		basePts = cst.Points()
		epoch = cst.Epoch()
		cst.Close()
	case errors.Is(err, os.ErrNotExist):
		// First boot: build from pts at epoch 1.
	default:
		return nil, fmt.Errorf("server: wal checkpoint: %w", err)
	}
	st, err := h.buildState(basePts)
	if err != nil {
		return nil, err
	}
	st.epoch = epoch

	w, recs, err := wal.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	set := st.diagramSet()
	replayed := 0
	for _, rec := range recs {
		if rec.Epoch <= epoch {
			continue // already captured by the checkpoint
		}
		next, results, err := set.ApplyBatch(rec.Ops, h.updateOpts())
		if err != nil {
			w.Close()
			return nil, fmt.Errorf("server: wal replay epoch %d: %w", rec.Epoch, err)
		}
		for i, res := range results {
			if res.Err != nil {
				// Only applied (never rejected) ops are logged, so a
				// rejection on replay means the log and checkpoint diverged.
				w.Close()
				return nil, fmt.Errorf("server: wal replay epoch %d op %d (%s) rejected: %v",
					rec.Epoch, i, rec.Ops[i], res.Err)
			}
		}
		set = next
		epoch = rec.Epoch
		replayed++
	}
	if replayed > 0 {
		fst := stateFromSet(set)
		fst.epoch = epoch
		st = fst
	}
	h.recordState(st)
	h.setState(st)
	h.wal = w
	h.walCommits = h.reg.Counter("skyserve_wal_commits_total",
		"Write batches durably committed to the WAL (one fsync each).")
	h.walCkpts = h.reg.Counter("skyserve_wal_checkpoints_total",
		"Checkpoints taken: snapshot persisted, WAL segments truncated.")
	h.walBytes = h.reg.Gauge("skyserve_wal_bytes",
		"Record bytes retained across WAL segments (replay volume after a crash).")
	h.walBytes.Set(float64(w.Size()))
	h.reg.Gauge("skyserve_wal_replayed_batches",
		"Write batches replayed from the WAL at the last boot.").Set(float64(replayed))
	if replayed > 0 {
		log.Printf("skyserve: wal: replayed %d batch(es), now at epoch %d", replayed, epoch)
	}

	// Anchor the boot state: first boot persists the initial build, a
	// recovery persists the replayed state, and either way the log is
	// truncated down to nothing outstanding. Failure here is not fatal —
	// the WAL still holds every record the checkpoint misses.
	if err := h.checkpointNow(st); err != nil {
		log.Printf("skyserve: wal: boot checkpoint: %v", err)
	}
	h.initRoutes()
	return h, nil
}

// maybeCheckpoint runs after a committed batch (leader context): once the
// retained log exceeds the configured budget, persist the published
// snapshot and truncate the segments it covers.
func (h *Handler) maybeCheckpoint(snap *state) {
	if h.wal == nil || h.checkpointBytes <= 0 {
		return
	}
	if h.wal.Size() < h.checkpointBytes {
		return
	}
	if err := h.checkpointNow(snap); err != nil {
		log.Printf("skyserve: wal: checkpoint: %v", err)
	}
}

// checkpointAsync schedules a checkpoint of snap off the request path (used
// when a replica fetch of /v1/snapshot proves that epoch is externally
// durable too). At most one checkpoint runs at a time; an already-current
// checkpoint is skipped without spawning anything.
func (h *Handler) checkpointAsync(snap *state) {
	if h.wal == nil {
		return
	}
	if snap.epoch <= h.lastCkpt.Load() {
		return
	}
	if !h.ckptInFlight.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer h.ckptInFlight.Store(false)
		if err := h.checkpointNow(snap); err != nil {
			log.Printf("skyserve: wal: checkpoint: %v", err)
		}
	}()
}

// checkpointNow persists a builder snapshot as the checkpoint file (atomic
// temp+fsync+rename, the file streamed through the state's encoder into the
// temporary file) and truncates the WAL below its epoch. Best-effort by
// design: on failure the WAL keeps every record and the previous checkpoint
// stays in place, so durability is never weakened — only disk reclamation
// is deferred.
func (h *Handler) checkpointNow(snap *state) error {
	h.ckptMu.Lock()
	defer h.ckptMu.Unlock()
	if snap.epoch <= h.lastCkpt.Load() {
		return nil
	}
	e, err := snap.encoder()
	if err == nil {
		err = e.CreateFile(h.snapPath)
	}
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	h.encoded(snap, "checkpoint", e.Size())
	h.lastCkpt.Store(snap.epoch)
	if err := h.wal.Checkpoint(snap.epoch); err != nil {
		return fmt.Errorf("truncate: %w", err)
	}
	h.walCkpts.Inc()
	h.walBytes.Set(float64(h.wal.Size()))
	return nil
}

// Flush drains the pending write queue: it repeatedly takes the writer slot
// and leads batches until no ops remain (every queued writer has its
// durable result) or ctx expires. Used by graceful shutdown so a write that
// was queued — and whose client may already have been promised progress —
// is appended, fsynced, and applied instead of stranded.
func (h *Handler) Flush(ctx context.Context) error {
	if h.readOnly {
		return nil
	}
	for {
		select {
		case h.updateSlot <- struct{}{}:
			h.pendMu.Lock()
			n := len(h.pending)
			h.pendMu.Unlock()
			if n == 0 {
				<-h.updateSlot
				return nil
			}
			h.runBatch()
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Shutdown is the graceful exit path: flush every queued write, take a
// final checkpoint so the next boot replays nothing, and close the log.
// Safe to call on handlers without a WAL (it just flushes).
func (h *Handler) Shutdown(ctx context.Context) error {
	err := h.Flush(ctx)
	if h.wal != nil {
		if cerr := h.checkpointNow(h.snapshot()); cerr != nil {
			log.Printf("skyserve: wal: shutdown checkpoint: %v", cerr)
		}
		if cerr := h.wal.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}
