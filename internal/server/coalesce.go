package server

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
)

// Write coalescing. Inserts and deletes enqueue a pendingOp; whichever
// writer acquires the writer slot becomes the batch leader, claims up to
// maxCoalesce queued ops FIFO as soon as it holds the slot, folds them
// through one incremental maintenance pass (core.DiagramSet.ApplyBatch)
// and one snapshot swap, and delivers each op its own result — so a burst
// of writers pays one maintenance pass instead of one per op, while 409/404
// attribution stays per-op (a rejected op is skipped inside the batch, it
// does not poison its neighbours).
//
// Shedding keeps the strict before-any-state-change guarantee of the
// pre-coalescing path: a waiter whose deadline expires withdraws its op, but
// only while the op is still unclaimed. Once a leader has claimed the op the
// waiter blocks for the authoritative result even past its deadline, because
// the batch may already have applied it — answering 503 then would lie about
// a write that took effect.

// maxCoalesce caps how many queued writes one maintenance pass folds into
// a single snapshot swap.
const maxCoalesce = 64

// pendingOp is one queued write and its result channel (buffered; each op
// receives exactly one result from the leader that claims it).
type pendingOp struct {
	op   core.Op
	done chan opResult
}

type opResult struct {
	points int
	// epoch is the snapshot the op's batch left published: for an applied
	// op, the first epoch that holds it.
	epoch uint64
	err   error
}

// submitOp runs one insert/delete through the coalescing queue end to end:
// enqueue, then either lead a batch or wait for another leader to deliver
// the result. The slot wait is bounded by ctx (Config.UpdateWait plus the
// client's own deadline) exactly like the pre-coalescing writer path.
func (h *Handler) submitOp(ctx context.Context, op core.Op) (opResult, error) {
	h.queueDepth.Add(1)
	defer h.queueDepth.Add(-1)
	if h.updateWait > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, h.updateWait)
		defer cancel()
	}
	po := &pendingOp{op: op, done: make(chan opResult, 1)}
	h.pendMu.Lock()
	h.pending = append(h.pending, po)
	h.pendMu.Unlock()
	for {
		select {
		case res := <-po.done:
			return res, res.err
		case h.updateSlot <- struct{}{}:
			// Leader: run one batch (which may or may not include po if the
			// queue is longer than maxCoalesce), then re-check for a result.
			h.runBatch()
		case <-ctx.Done():
			if h.withdraw(po) {
				h.shed.Inc()
				return opResult{}, fmt.Errorf("%w: %v", errUpdateShed, ctx.Err())
			}
			// Already claimed by a leader: the op may be applied, so the
			// shed path is no longer safe. Wait for the real result.
			res := <-po.done
			return res, res.err
		}
	}
}

// withdraw removes a still-unclaimed op from the queue, reporting whether it
// was found (false means a leader claimed it first).
func (h *Handler) withdraw(po *pendingOp) bool {
	h.pendMu.Lock()
	defer h.pendMu.Unlock()
	for i, q := range h.pending {
		if q == po {
			h.pending = append(h.pending[:i], h.pending[i+1:]...)
			return true
		}
	}
	return false
}

// runBatch claims and applies one coalesced batch. The caller must hold the
// writer slot; runBatch releases it. A batch failure fails every claimed op
// and leaves the published snapshot untouched — readers never observe a
// partial batch, and the whole batch either swaps in atomically or sheds.
func (h *Handler) runBatch() {
	defer func() { <-h.updateSlot }()
	h.pendMu.Lock()
	k := min(len(h.pending), maxCoalesce)
	if k == 0 {
		h.pendMu.Unlock()
		return
	}
	batch := make([]*pendingOp, k)
	copy(batch, h.pending[:k])
	rest := copy(h.pending, h.pending[k:])
	for i := rest; i < len(h.pending); i++ {
		h.pending[i] = nil
	}
	h.pending = h.pending[:rest]
	h.pendMu.Unlock()

	h.updateStart.Set(float64(time.Now().UnixNano()) / 1e9)
	defer h.updateStart.Set(0)
	fail := func(err error) {
		for _, po := range batch {
			po.done <- opResult{err: err}
		}
	}

	start := time.Now()
	if err := faultinject.Hit("server.update.coalesce"); err != nil {
		fail(fmt.Errorf("%w: %v", errRebuildFailed, err))
		return
	}
	base := h.snapshot()
	if err := faultinject.Hit("server.update.derive"); err != nil {
		fail(fmt.Errorf("%w: %v", errRebuildFailed, err))
		return
	}
	if h.rebuildHook != nil {
		h.rebuildHook()
	}
	ops := make([]core.Op, len(batch))
	for i, po := range batch {
		ops[i] = po.op
	}
	set := base.diagramSet()
	next, results, err := set.ApplyBatch(ops, h.updateOpts())
	if err != nil {
		fail(fmt.Errorf("%w: %v", errRebuildFailed, err))
		return
	}
	if err := faultinject.Hit("server.update.rebuild"); err != nil {
		fail(fmt.Errorf("%w: %v", errRebuildFailed, err))
		return
	}
	// pub is the snapshot this batch leaves published.
	pub := base
	if next != set {
		// At least one op applied: publish one snapshot for the whole batch.
		epoch := base.epoch + 1
		if h.wal != nil {
			// Group commit — the durability barrier. Log only the applied
			// (non-rejected) ops, stamped with the epoch the swap will
			// publish, and fsync once for the whole batch. On failure the
			// batch sheds wholesale before the swap: the published snapshot
			// is untouched, nothing was acked, and the log holds no record
			// of a state that was never served — log and snapshot cannot
			// diverge in either direction.
			applied := make([]core.Op, 0, len(ops))
			for i := range ops {
				if results[i].Err == nil {
					applied = append(applied, ops[i])
				}
			}
			if err := h.wal.Commit(epoch, applied); err != nil {
				fail(fmt.Errorf("%w: wal commit: %v", errRebuildFailed, err))
				return
			}
			h.walCommits.Inc()
			h.walBytes.Set(float64(h.wal.Size()))
		}
		// Nothing is encoded here: the epoch is laid out at its first
		// stream (a poll or a checkpoint) and hashed at its first poll, so
		// an epoch that nothing streams costs neither.
		st := stateFromSet(next)
		st.epoch = epoch
		h.mu.Lock()
		h.setState(st)
		h.mu.Unlock()
		h.swaps.Inc()
		pub = st
	}
	h.coalesced.Add(int64(len(batch)))
	h.batchSize.Observe(float64(len(batch)))
	h.rebuildLat.ObserveDuration(time.Since(start))
	for i, po := range batch {
		po.done <- opResult{points: results[i].Points, epoch: pub.epoch, err: results[i].Err}
	}
	h.maybeCompact()
	// The published state, compacted or not, holds pub's epoch: checkpoint
	// the one a poll would stream, so the epoch is laid out once.
	h.maybeCheckpoint(h.snapshot())
}

// maybeCompact reclaims copy-on-write arena garbage once it crosses the
// configured ratio. Incremental maintenance never rewrites a shared arena in
// place, so deleted and superseded results accumulate as dead entries; left
// alone they grow without bound under sustained churn. The batch leader —
// still holding the writer slot, so no concurrent writer can derive from the
// pre-compaction snapshot — rewrites the arenas in first-use order entirely
// outside the read lock, then publishes the compacted snapshot with one more
// pointer swap. Answers are unchanged (only dead entries are dropped), and
// so is the point set.
func (h *Handler) maybeCompact() {
	if h.compactRatio <= 0 {
		return
	}
	base := h.snapshot()
	set := base.diagramSet()
	if set.ArenaGarbageRatio() < h.compactRatio {
		return
	}
	start := time.Now()
	next := set.CompactArenas()
	// Compaction drops only dead arena entries: answers — and the canonical
	// persisted bytes — are unchanged, so the epoch carries over.
	st := &state{
		epoch:    base.epoch,
		points:   next.Points,
		quadrant: next.Quadrant,
		global:   next.Global,
		dynamic:  next.Dynamic,
	}
	h.mu.Lock()
	h.setState(st)
	h.mu.Unlock()
	h.compactions.Inc()
	h.reg.Histogram("skyserve_compact_seconds",
		"Arena compaction duration in seconds.").ObserveDuration(time.Since(start))
}

// updateOpts assembles the core maintenance options for one batch pass.
func (h *Handler) updateOpts() core.UpdateOptions {
	return core.UpdateOptions{
		MaxDynamicPoints: h.maxDynamic,
		Workers:          h.workers,
		Metrics:          h.reg,
		FullRebuild:      h.fullRebuild,
		ObserveKind: func(kind string, elapsed time.Duration) {
			h.reg.Histogram("skyserve_rebuild_seconds",
				"Update rebuild duration in seconds, by diagram kind (total = whole update).",
				"kind", kind).ObserveDuration(elapsed)
		},
	}
}

// diagramSet views a snapshot as a core.DiagramSet for maintenance.
func (st *state) diagramSet() *core.DiagramSet {
	return &core.DiagramSet{
		Points:   st.points,
		Quadrant: st.quadrant,
		Global:   st.global,
		Dynamic:  st.dynamic,
	}
}

// stateFromSet assembles a publishable snapshot from a maintained set.
func stateFromSet(set *core.DiagramSet) *state {
	return &state{
		points:   set.Points,
		quadrant: set.Quadrant,
		global:   set.Global,
		dynamic:  set.Dynamic,
	}
}
