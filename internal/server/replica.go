package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/store"
)

// Replica keeps a serve-from handler in sync with a builder node: it polls
// GET /v1/snapshot?epoch= with the epoch it currently serves (plus ?from=
// so a delta-capable primary may answer with just the changed pages, which
// are patched over the mapping it already serves), and on a 200 publishes
// the resulting bytes as its one file, <Dir>/snapshot.sky, through
// store.CreateFileFrom: temp file, fsync, an open that checks every CRC
// and the epoch, rename, directory fsync. A torn download, a bad patch or
// an epoch that is not newer is refused before the rename, so the file only
// ever holds a snapshot that opened and was accepted. The new store is then
// pointer-swapped into the handler. Neither readers nor the swap block:
// the old store is closed right after the swap, and the last reader still
// holding its mapping unmaps it when it finishes.
//
// A replica that restarts opens its file with store.Recover and serves it
// immediately, then catches up to the builder in one fetch.
type Replica struct {
	h        *Handler
	primary  string
	path     string // the snapshot file, <Dir>/snapshot.sky
	interval time.Duration
	httpc    *http.Client

	// fullNext forces the next poll to skip delta negotiation. Set when a
	// delta body failed to apply (diverged base, torn or corrupt patch):
	// retrying the delta would fail the same way, while a full fetch always
	// converges. One successful poll clears it.
	fullNext bool

	// Backoff on persistent primary failure: consecutive fetch errors grow
	// the poll delay exponentially (with jitter, so a fleet of replicas
	// doesn't stampede a recovering primary), and one success resets it.
	consecFails int
	maxBackoff  time.Duration
	rng         *rand.Rand
	// after is the clock seam: tests swap it to drive Run deterministically
	// and record the delays it asked for. Defaults to time.After.
	after func(time.Duration) <-chan time.Time

	refreshes interface{ Inc() }
	fetchErrs interface{ Inc() }
	staleSecs interface{ Set(float64) }
	// lastChange is when a poll last swapped in a newer snapshot or
	// confirmed the served one current; a failed poll sets staleSecs to
	// the time since.
	lastChange time.Time
}

// ReplicaConfig configures snapshot replication for one replica process.
type ReplicaConfig struct {
	// Primary is the builder's base URL, e.g. "http://builder:8080".
	Primary string
	// Dir holds the replica's snapshot file; it is created if missing. A
	// restart re-serves that snapshot before catching up.
	Dir string
	// Interval between snapshot polls. 0 means the default of 2s.
	Interval time.Duration
	// MaxBackoff caps the poll delay reached through consecutive fetch
	// failures. 0 means the default of 30s (or Interval, if larger).
	MaxBackoff time.Duration
	// HTTPClient overrides the fetch client (tests inject fakes). nil uses
	// a client with a 30s timeout.
	HTTPClient *http.Client
}

// DefaultRefreshInterval is the default snapshot poll cadence.
const DefaultRefreshInterval = 2 * time.Second

// DefaultMaxBackoff caps the failure backoff between snapshot polls.
const DefaultMaxBackoff = 30 * time.Second

// BootstrapReplica brings up a replica: it serves the snapshot file in the
// directory if it opens (store.Recover), otherwise blocks fetching the
// first snapshot from the primary (retrying until ctx is done), and returns
// the ready-to-serve handler plus the Replica whose Run loop keeps it fresh.
func BootstrapReplica(ctx context.Context, rc ReplicaConfig, cfg Config) (*Handler, *Replica, error) {
	if rc.Primary == "" {
		return nil, nil, errors.New("server: replica needs a primary URL")
	}
	if rc.Dir == "" {
		return nil, nil, errors.New("server: replica needs a snapshot directory")
	}
	if err := os.MkdirAll(rc.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("server: replica dir: %w", err)
	}
	if rc.Interval <= 0 {
		rc.Interval = DefaultRefreshInterval
	}
	if rc.MaxBackoff <= 0 {
		rc.MaxBackoff = DefaultMaxBackoff
		if rc.Interval > rc.MaxBackoff {
			rc.MaxBackoff = rc.Interval
		}
	}
	if rc.HTTPClient == nil {
		rc.HTTPClient = &http.Client{Timeout: 30 * time.Second}
	}
	r := &Replica{
		primary:    strings.TrimRight(rc.Primary, "/"),
		path:       filepath.Join(rc.Dir, "snapshot.sky"),
		interval:   rc.Interval,
		maxBackoff: rc.MaxBackoff,
		rng:        rand.New(rand.NewSource(time.Now().UnixNano())),
		after:      time.After,
		httpc:      rc.HTTPClient,
	}

	st, err := store.Recover(r.path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		log.Printf("skyserve: replica snapshot %s: %v (fetching)", r.path, err)
	}
	for st == nil {
		st, err = r.fetch(ctx, 0)
		if err == nil && st == nil {
			err = errors.New("primary answered 304 to an empty replica")
		}
		if err != nil {
			log.Printf("skyserve: replica bootstrap: %v (retrying)", err)
			select {
			case <-ctx.Done():
				return nil, nil, fmt.Errorf("server: replica bootstrap: %w", ctx.Err())
			case <-time.After(r.interval):
			}
		}
	}

	h, err := NewServeFrom(st, cfg)
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	r.h = h
	r.lastChange = time.Now()
	reg := h.Metrics()
	r.refreshes = reg.Counter("skyserve_replica_refreshes_total",
		"Snapshot polls answered with a newer epoch and swapped in.")
	r.fetchErrs = reg.Counter("skyserve_replica_fetch_errors_total",
		"Snapshot polls that failed (network, torn body, bad epoch).")
	r.staleSecs = reg.Gauge("skyserve_replica_staleness_seconds",
		"Seconds from the last poll that swapped in a newer snapshot or confirmed the served one current, to the latest poll.")
	return h, r, nil
}

// Run polls the primary until ctx is done. Errors are logged and retried —
// a replica keeps serving its current snapshot through any primary outage —
// but consecutive failures back the poll rate off exponentially (jittered,
// capped at MaxBackoff) instead of hammering a primary that is down or
// overloaded at the full refresh cadence. One success restores the
// configured interval.
func (r *Replica) Run(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-r.after(r.nextDelay()):
			if _, err := r.Refresh(ctx); err != nil {
				log.Printf("skyserve: replica refresh: %v", err)
			}
		}
	}
}

// nextDelay is the wait before the next poll: the configured interval while
// healthy; on the n-th consecutive failure, a uniformly jittered sample from
// [base/2, base] where base = interval·2^n capped at maxBackoff. Full-range
// jitter keeps a fleet of replicas that failed together from thundering back
// in lockstep when the primary recovers.
func (r *Replica) nextDelay() time.Duration {
	if r.consecFails == 0 {
		return r.interval
	}
	base := r.interval
	for i := 0; i < r.consecFails && base < r.maxBackoff; i++ {
		base *= 2
	}
	if base > r.maxBackoff {
		base = r.maxBackoff
	}
	half := base / 2
	return half + time.Duration(r.rng.Int63n(int64(half)+1))
}

// Refresh performs one poll-and-swap step, reporting whether a newer
// snapshot was swapped in. Exported so tests (and operators via a future
// admin hook) can drive the replication deterministically.
func (r *Replica) Refresh(ctx context.Context) (bool, error) {
	cur := r.h.snapshot().epoch
	st, err := r.fetch(ctx, cur)
	if err != nil {
		r.failed()
		return false, err
	}
	if st == nil { // 304: already current
		r.staleSecs.Set(0)
		r.lastChange = time.Now()
		r.consecFails = 0
		return false, nil
	}
	old, err := r.h.SwapStore(st)
	if err != nil {
		st.Close()
		r.failed()
		return false, err
	}
	r.lastChange = time.Now()
	r.staleSecs.Set(0)
	r.consecFails = 0
	r.refreshes.Inc()
	// Close returns at once; a reader still holding the old mapping
	// unmaps it when it finishes.
	old.Close()
	return true, nil
}

// failed counts a poll that neither confirmed the served epoch current nor
// swapped in a newer one, and sets the staleness gauge to the time since
// the last poll that did.
func (r *Replica) failed() {
	r.fetchErrs.Inc()
	r.consecFails++
	r.staleSecs.Set(time.Since(r.lastChange).Seconds())
}

// Close releases the served store. Callers must stop Run first.
func (r *Replica) Close() error {
	if r.h == nil {
		return nil
	}
	return r.h.snapshot().stored.Close()
}

// fetch polls the primary with the given epoch. It returns (nil, nil) on
// 304, or the store serving the newer snapshot it published as the
// replica's file. While serving an epoch it offers ?from= and the primary
// may answer with a delta body, which is patched over the served store's
// bytes on the way into the file. Any integrity failure — torn body or bad
// patch caught by a CRC, epoch not newer — refuses the file before it
// replaces the served one, so a bad fetch can never become the served
// snapshot; a failed patch additionally forces the next poll to fetch full.
func (r *Replica) fetch(ctx context.Context, epoch uint64) (*store.Store, error) {
	url := fmt.Sprintf("%s/v1/snapshot?epoch=%d", r.primary, epoch)
	wantDelta := epoch > 0 && !r.fullNext
	if wantDelta {
		url += fmt.Sprintf("&from=%d", epoch)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.httpc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("snapshot fetch: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		r.fullNext = false
		return nil, nil
	case http.StatusOK:
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("snapshot fetch: primary answered %s", resp.Status)
	}
	remote, err := strconv.ParseUint(resp.Header.Get("X-Sky-Epoch"), 10, 64)
	if err != nil || remote <= epoch {
		return nil, fmt.Errorf("snapshot fetch: bad X-Sky-Epoch %q (serving %d)",
			resp.Header.Get("X-Sky-Epoch"), epoch)
	}

	write := func(w io.Writer) error {
		_, err := io.Copy(w, resp.Body)
		return err
	}
	if resp.Header.Get("X-Sky-Snapshot-Mode") == "delta" {
		if !wantDelta {
			return nil, fmt.Errorf("snapshot fetch: unsolicited delta body")
		}
		// Anything that goes wrong from here until the swap means the delta
		// path is poisoned for this base; converge via a full fetch next.
		r.fullNext = true
		delta, err := readDelta(resp.Body, resp.ContentLength, r.h.snapshot().stored.Size())
		if err != nil {
			return nil, fmt.Errorf("snapshot patch: %w", err)
		}
		write = func(w io.Writer) error {
			if err := r.applyDelta(w, delta); err != nil {
				return fmt.Errorf("patch: %w", err)
			}
			return nil
		}
	}

	// The open before the rename checks the CRC trailer, which catches a
	// truncation the transport did not surface; the next tick refetches.
	st, err := store.CreateFileFrom(r.path, write, func(st *store.Store) error {
		if st.Epoch() <= epoch {
			return fmt.Errorf("file epoch %d not newer than %d", st.Epoch(), epoch)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("snapshot publish: %w", err)
	}
	r.fullNext = false
	return st, nil
}

// readDelta reads a delta body of the given Content-Length into one buffer
// of that size. The builder always sends the length, and sends a delta only
// when it is smaller than the full file, so a length above served (the size
// of the file served now) is wrong and allocates nothing up front: such a
// body, like one of unknown length (-1), is read growing, as io.ReadAll
// does. A body shorter than its length is an error.
func readDelta(body io.Reader, size, served int64) ([]byte, error) {
	if size < 0 || size > served {
		return io.ReadAll(body)
	}
	delta := make([]byte, size)
	_, err := io.ReadFull(body, delta)
	return delta, err
}

// applyDelta writes the served snapshot patched by a delta body to w. The
// base is the served store's own bytes — its mapping, not a re-read of the
// file — and the patched file goes to w as it is assembled, never whole in
// memory; it is the exact full-file bytes the primary serves
// (store.ApplyDeltaTo refuses anything else by CRC), so the caller persists
// and validates it exactly like a full download.
func (r *Replica) applyDelta(w io.Writer, delta []byte) error {
	return r.h.snapshot().stored.WithBytes(func(base []byte) error {
		return store.ApplyDeltaTo(w, base, delta)
	})
}
