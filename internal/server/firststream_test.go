package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/quaddiag"
	"repro/internal/store"
)

// First-stream tests: a write neither lays out nor hashes its epoch, and a
// relay's swap does not hash it either; the epoch's first stream hashes it
// once, and every use of the epoch — the manifest, each delta and full
// body, the checkpoint — streams through the state's one encoder, from any
// number of goroutines at once.

var encodedUses = []string{"manifest", "delta", "full", "checkpoint"}

// epochFile encodes d's file stamped with epoch apart from any handler, as
// store.WriteEpoch streams it into a fresh buffer: a reference that shares
// no encoder with the state it checks.
func epochFile(t testing.TB, d *quaddiag.Diagram, epoch uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := store.WriteEpoch(&buf, d, epoch); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encodedBytes reads skyserve_snapshot_encoded_bytes_total for every use.
func encodedBytes(h *Handler) map[string]int64 {
	got := map[string]int64{}
	for _, use := range encodedUses {
		got[use] = counterValue(h, "skyserve_snapshot_encoded_bytes_total", "use", use)
	}
	return got
}

// checkEncoded fails unless each use's counter moved from before by want
// (a use want omits must not move).
func checkEncoded(t *testing.T, h *Handler, before map[string]int64, want map[string]int64) {
	t.Helper()
	for use, n := range encodedBytes(h) {
		if moved := n - before[use]; moved != want[use] {
			t.Errorf("encoded bytes for %s moved by %d, want %d", use, moved, want[use])
		}
	}
}

// TestUnpolledWritesEncodeNothing: writes on a durable builder that nobody
// polls (and that takes no checkpoint) encode no byte, and the ring holds no
// manifest for their epochs.
func TestUnpolledWritesEncodeNothing(t *testing.T) {
	h := newDurableHandler(t, t.TempDir(), Config{CheckpointBytes: -1})
	boot := h.snapshot().epoch
	before := encodedBytes(h)
	const k = 6
	for i := 0; i < k; i++ {
		if i%2 == 0 {
			if code := doInsert(h, 700, 3.5, 4.5); code != http.StatusCreated {
				t.Fatalf("write %d: insert code %d", i, code)
			}
		} else if code := doDelete(h, 700); code != http.StatusOK {
			t.Fatalf("write %d: delete code %d", i, code)
		}
	}
	checkEncoded(t, h, before, nil)
	for e := boot + 1; e <= boot+k; e++ {
		if h.ring.get(e) != nil {
			t.Errorf("the ring holds a manifest for epoch %d, which nothing streamed", e)
		}
	}
	if h.snapshot().enc != nil {
		t.Error("the unpolled epoch was laid out")
	}
}

// TestUnpolledSwapRecordsNothing: a relay records an epoch it swaps in at
// the epoch's first stream, as a builder records a write's: after a Refresh
// that nobody polls, the relay's ring holds no manifest for the new epoch;
// after one /v1/snapshot, it does.
func TestUnpolledSwapRecordsNothing(t *testing.T) {
	builder := newBuilder(t)
	ctx := context.Background()
	h, rep, err := BootstrapReplica(ctx, ReplicaConfig{
		Primary: builder.URL,
		Dir:     t.TempDir(),
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	insertPoint(t, builder.URL, 600)
	if swapped, err := rep.Refresh(ctx); err != nil || !swapped {
		t.Fatalf("refresh: swapped=%v err=%v", swapped, err)
	}
	epoch := h.snapshot().epoch
	if h.ring.get(epoch) != nil {
		t.Fatalf("the relay's ring holds a manifest for epoch %d, which nothing streamed", epoch)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/snapshot", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("snapshot from the relay: code %d", rec.Code)
	}
	if h.ring.get(epoch) == nil {
		t.Fatalf("the relay streamed epoch %d without recording it", epoch)
	}
}

// TestCatchUpEncodesOnce: a replica's delta catch-up to a fresh epoch
// hashes the file once and streams it once for the delta, and the
// checkpoint the poll triggers streams it once more. A second replica
// catching up to the same epoch costs one more delta stream and nothing
// else.
func TestCatchUpEncodesOnce(t *testing.T) {
	dir := t.TempDir()
	h := newDurableHandler(t, dir, Config{CheckpointBytes: -1})
	srv := httptest.NewServer(h)
	defer srv.Close()
	// Epoch 3 holds the boot point set again: a small delta from epoch 1,
	// which the boot recorded.
	doInsert(h, 700, 3.5, 4.5)
	doDelete(h, 700)
	before := encodedBytes(h)
	if code, _, mode := fetchSnapshotMode(t, srv.URL, "?epoch=1&from=1"); code != http.StatusOK || mode != "delta" {
		t.Fatalf("catch-up: code %d mode %s, want a delta", code, mode)
	}
	waitFor(t, 5*time.Second, func() bool { return h.lastCkpt.Load() >= 3 && !h.ckptInFlight.Load() })
	size := h.snapshot().enc.Size()
	checkEncoded(t, h, before, map[string]int64{"manifest": size, "delta": size, "checkpoint": size})

	before = encodedBytes(h)
	if code, _, mode := fetchSnapshotMode(t, srv.URL, "?epoch=1&from=1"); code != http.StatusOK || mode != "delta" {
		t.Fatalf("second catch-up: code %d mode %s, want a delta", code, mode)
	}
	checkEncoded(t, h, before, map[string]int64{"delta": size})
}

// TestConcurrentStreamsOfOneEpoch: goroutines poll one fresh epoch — full
// bodies, and deltas from a base they were streamed — while checkpointNow
// writes it, all through the epoch's one encoder. Every full body, every
// patched delta and the checkpoint byte-equal an independent encode of the
// epoch, and the epoch is hashed once. Run it with -race -count=10.
func TestConcurrentStreamsOfOneEpoch(t *testing.T) {
	pts := randomPoints(120, 21)
	dir := t.TempDir()
	h, err := New(pts, Config{WALDir: dir, CheckpointBytes: -1, MaxDynamicPoints: 1})
	if err != nil {
		t.Fatal(err)
	}
	trailingToggle(t, h, pts, 0)
	baseRec := httptest.NewRecorder()
	h.ServeHTTP(baseRec, httptest.NewRequest(http.MethodGet, "/v1/snapshot", nil))
	base, baseEpoch := baseRec.Body.Bytes(), h.snapshot().epoch
	waitFor(t, 5*time.Second, func() bool { return !h.ckptInFlight.Load() })
	trailingToggle(t, h, pts, 1)
	snap := h.snapshot()
	want := epochFile(t, snap.quadrant.Cells(), snap.epoch)
	before := encodedBytes(h)

	const polls = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < polls; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q, wantMode := fmt.Sprintf("/v1/snapshot?epoch=%d", baseEpoch), "full"
			if g%2 == 1 {
				q, wantMode = q+fmt.Sprintf("&from=%d", baseEpoch), "delta"
			}
			rec := httptest.NewRecorder()
			<-start
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, q, nil))
			body, mode := rec.Body.Bytes(), rec.Header().Get("X-Sky-Snapshot-Mode")
			if rec.Code != http.StatusOK || mode != wantMode {
				t.Errorf("poll %d: code %d mode %q", g, rec.Code, mode)
				return
			}
			if mode == "delta" {
				var err error
				if body, err = store.ApplyDelta(base, body); err != nil {
					t.Errorf("poll %d: delta does not apply: %v", g, err)
					return
				}
			}
			if !bytes.Equal(body, want) {
				t.Errorf("poll %d (%s): bytes differ from the epoch's encode", g, mode)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		if err := h.checkpointNow(snap); err != nil {
			t.Errorf("checkpoint: %v", err)
		}
	}()
	close(start)
	wg.Wait()
	waitFor(t, 5*time.Second, func() bool { return !h.ckptInFlight.Load() })
	got, err := os.ReadFile(filepath.Join(dir, CheckpointFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("the checkpoint differs from the epoch's encode")
	}
	if moved := encodedBytes(h)["manifest"] - before["manifest"]; moved != int64(len(want)) {
		t.Errorf("manifest bytes moved by %d, want the file's %d: one hash", moved, len(want))
	}
}
