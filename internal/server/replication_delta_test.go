package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/store"
)

// newDeltaBuilder is newBuilder with the handler exposed, so tests can read
// the delta hit/fallback counters and tune the ring depth.
func newDeltaBuilder(t *testing.T, cfg Config) (*httptest.Server, *Handler) {
	t.Helper()
	h, err := New(dataset.Hotels(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv, h
}

func deletePoint(t *testing.T, base string, id int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/points/%d", base, id), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete %d: code %d", id, resp.StatusCode)
	}
}

// fetchSnapshotMode is fetchSnapshot plus the transfer-mode header.
func fetchSnapshotMode(t *testing.T, base, query string) (int, []byte, string) {
	t.Helper()
	resp, err := http.Get(base + "/v1/snapshot" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header.Get("X-Sky-Snapshot-Mode")
}

func counterValue(h *Handler, name string, labels ...string) int64 {
	return h.Metrics().Counter(name, "", labels...).Value()
}

// TestSnapshotDeltaNegotiation pins the happy path: a replica whose base
// epoch is in the ring gets a delta body that patches into exactly the bytes
// a full fetch carries.
func TestSnapshotDeltaNegotiation(t *testing.T) {
	srv, h := newDeltaBuilder(t, Config{})

	_, base, _ := fetchSnapshotMode(t, srv.URL, "") // epoch-1 bytes, full
	// A write pair that nets out to the original point set: epoch 3's bytes
	// differ from epoch 1's only in the header epoch, the canonical-persist
	// guarantee that makes this delta a few hundred bytes.
	insertPoint(t, srv.URL, 700)
	deletePoint(t, srv.URL, 700)

	code, full, mode := fetchSnapshotMode(t, srv.URL, "?epoch=1")
	if code != 200 || mode != "full" {
		t.Fatalf("full fetch: code %d mode %s", code, mode)
	}
	code, delta, mode := fetchSnapshotMode(t, srv.URL, "?epoch=1&from=1")
	if code != 200 || mode != "delta" {
		t.Fatalf("delta fetch: code %d mode %s", code, mode)
	}
	if !store.IsDelta(delta) {
		t.Fatal("delta body lacks the delta magic")
	}
	if len(delta) >= len(full) {
		t.Fatalf("delta is %d bytes, full is %d — no savings", len(delta), len(full))
	}
	patched, err := store.ApplyDelta(base, delta)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(patched, full) {
		t.Fatal("patched bytes differ from the full stream")
	}
	if got := counterValue(h, "skyserve_snapshot_delta_hits_total"); got != 1 {
		t.Fatalf("delta hits = %d, want 1", got)
	}
	// The patched file must open and carry the new epoch.
	st, err := store.New(patched)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch() != 3 {
		t.Fatalf("patched epoch = %d, want 3", st.Epoch())
	}

	// A replica that is already current still gets its 304 — the delta query
	// never overrides the not-modified short-circuit.
	if code, _, _ := fetchSnapshotMode(t, srv.URL, "?epoch=3&from=3"); code != http.StatusNotModified {
		t.Fatalf("current replica with from=: code %d, want 304", code)
	}
}

// TestSnapshotDeltaFallbacks pins every documented fallback to a correct,
// counted full stream: base epoch evicted from the ring, and delta not
// smaller than the file.
func TestSnapshotDeltaFallbacks(t *testing.T) {
	t.Run("ring_miss", func(t *testing.T) {
		srv, h := newDeltaBuilder(t, Config{DeltaRing: 1})
		insertPoint(t, srv.URL, 700) // epoch 2 evicts epoch 1 from the 1-deep ring
		code, full, mode := fetchSnapshotMode(t, srv.URL, "?epoch=1&from=1")
		if code != 200 || mode != "full" {
			t.Fatalf("code %d mode %s, want full fallback", code, mode)
		}
		if _, err := store.New(full); err != nil {
			t.Fatalf("fallback body is not a valid store file: %v", err)
		}
		if got := counterValue(h, "skyserve_snapshot_delta_fallbacks_total", "reason", "ring_miss"); got != 1 {
			t.Fatalf("ring_miss fallbacks = %d, want 1", got)
		}
		if got := counterValue(h, "skyserve_snapshot_delta_hits_total"); got != 0 {
			t.Fatalf("delta hits = %d, want 0", got)
		}
	})

	t.Run("not_smaller", func(t *testing.T) {
		srv, h := newDeltaBuilder(t, Config{})
		// A fresh-coordinate insert on the tiny hotels file adds grid lines
		// and re-indexes every (sub-page-sized) section: the "delta" would
		// outweigh the file, so the full stream must win.
		insertPoint(t, srv.URL, 700)
		code, full, mode := fetchSnapshotMode(t, srv.URL, "?epoch=1&from=1")
		if code != 200 || mode != "full" {
			t.Fatalf("code %d mode %s, want full fallback", code, mode)
		}
		if _, err := store.New(full); err != nil {
			t.Fatalf("fallback body is not a valid store file: %v", err)
		}
		if got := counterValue(h, "skyserve_snapshot_delta_fallbacks_total", "reason", "not_smaller"); got != 1 {
			t.Fatalf("not_smaller fallbacks = %d, want 1", got)
		}
	})
}

// TestNegativeDeltaRingMeansDefault: a negative DeltaRing selects the
// default ring, as 0 does, so a replica inside it still catches up by delta.
func TestNegativeDeltaRingMeansDefault(t *testing.T) {
	srv, h := newDeltaBuilder(t, Config{DeltaRing: -1})
	insertPoint(t, srv.URL, 700)
	deletePoint(t, srv.URL, 700)
	code, _, mode := fetchSnapshotMode(t, srv.URL, "?epoch=1&from=1")
	if code != 200 || mode != "delta" {
		t.Fatalf("code %d mode %s, want a delta", code, mode)
	}
	if got := counterValue(h, "skyserve_snapshot_delta_hits_total"); got != 1 {
		t.Fatalf("delta hits = %d, want 1", got)
	}
	if h.ring.cap != DefaultDeltaRing {
		t.Fatalf("ring holds %d epochs, want the default %d", h.ring.cap, DefaultDeltaRing)
	}
}

// TestSnapshotDeltaChurnByteEquivalence drives a randomized churn chain
// through the HTTP surface, simulating a replica that patches its way along:
// at every epoch the patched bytes must equal the full stream's bytes, with
// both hits and fallbacks exercised along the way.
func TestSnapshotDeltaChurnByteEquivalence(t *testing.T) {
	srv, h := newDeltaBuilder(t, Config{})
	rng := rand.New(rand.NewSource(17))

	_, cur, _ := fetchSnapshotMode(t, srv.URL, "")
	curEpoch := uint64(1)
	var inserted []int
	nextID := 800
	for step := 0; step < 15; step++ {
		switch op := rng.Intn(3); {
		case op == 0 && len(inserted) > 0: // delete one of ours
			i := rng.Intn(len(inserted))
			deletePoint(t, srv.URL, inserted[i])
			inserted = append(inserted[:i], inserted[i+1:]...)
		case op == 1: // insert reusing coordinate values already in the set
			stc, err := store.New(cur)
			if err != nil {
				t.Fatal(err)
			}
			pts := stc.Points()
			x := pts[rng.Intn(len(pts))].Coords[0]
			y := pts[rng.Intn(len(pts))].Coords[1]
			resp, err := http.Post(srv.URL+"/v1/points", "application/json",
				strings.NewReader(fmt.Sprintf(`{"id":%d,"coords":[%g,%g]}`, nextID, x, y)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("insert %d: code %d", nextID, resp.StatusCode)
			}
			inserted = append(inserted, nextID)
			nextID++
		default: // fresh coordinates
			insertPoint(t, srv.URL, nextID)
			inserted = append(inserted, nextID)
			nextID++
		}

		_, full, _ := fetchSnapshotMode(t, srv.URL, "")
		code, body, mode := fetchSnapshotMode(t, srv.URL, fmt.Sprintf("?epoch=%d&from=%d", curEpoch, curEpoch))
		if code != 200 {
			t.Fatalf("step %d: code %d", step, code)
		}
		if mode == "delta" {
			patched, err := store.ApplyDelta(cur, body)
			if err != nil {
				t.Fatalf("step %d: apply: %v", step, err)
			}
			body = patched
		}
		if !bytes.Equal(body, full) {
			t.Fatalf("step %d (%s): replica bytes diverge from full stream", step, mode)
		}
		cur = body
		curEpoch += 1
	}
	hits := counterValue(h, "skyserve_snapshot_delta_hits_total")
	if hits == 0 {
		t.Fatal("churn chain never produced a delta hit")
	}
	t.Logf("churn chain: %d delta hits over 15 epochs", hits)
}

// TestReplicaCatchUpViaDelta exercises the real replica loop end to end: the
// cached file is patched, fsynced, renamed, opened, and swapped, and the
// result is byte-identical to the builder's full stream.
func TestReplicaCatchUpViaDelta(t *testing.T) {
	builder, bh := newDeltaBuilder(t, Config{})
	ctx := context.Background()
	h, rep, err := BootstrapReplica(ctx, ReplicaConfig{
		Primary: builder.URL,
		Dir:     t.TempDir(),
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	insertPoint(t, builder.URL, 700)
	deletePoint(t, builder.URL, 700)
	swapped, err := rep.Refresh(ctx)
	if err != nil || !swapped {
		t.Fatalf("refresh: swapped=%v err=%v", swapped, err)
	}
	if got := h.snapshot().epoch; got != 3 {
		t.Fatalf("replica epoch = %d, want 3", got)
	}
	if hits := counterValue(bh, "skyserve_snapshot_delta_hits_total"); hits != 1 {
		t.Fatalf("builder delta hits = %d, want 1", hits)
	}
	_, full, _ := fetchSnapshotMode(t, builder.URL, "")
	cached, err := os.ReadFile(rep.path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cached, full) {
		t.Fatal("replica's patched cache file differs from the builder's full stream")
	}

	// The replica relays delta-capable snapshots itself. Its ring holds only
	// its boot epoch and the epochs it streamed, so a downstream node first
	// streams the swapped epoch from the relay, as a real one would; after a
	// second swap, that node gets a delta of the relayed file. A base the
	// relay never held is a counted ring miss answered with the full file.
	rsrv := httptest.NewServer(h)
	defer rsrv.Close()
	if code, _, _ := fetchSnapshotMode(t, rsrv.URL, "?epoch=1&from=1"); code != 200 {
		t.Fatalf("downstream catch-up to epoch 3: code %d", code)
	}
	insertPoint(t, builder.URL, 701)
	deletePoint(t, builder.URL, 701)
	if swapped, err := rep.Refresh(ctx); err != nil || !swapped {
		t.Fatalf("second refresh: swapped=%v err=%v", swapped, err)
	}
	code, body, mode := fetchSnapshotMode(t, rsrv.URL, "?epoch=3&from=3")
	if code != 200 || mode != "delta" {
		t.Fatalf("relay delta: code %d mode %s", code, mode)
	}
	patched, err := store.ApplyDelta(full, body)
	if err != nil {
		t.Fatalf("relay patch: %v", err)
	}
	_, relayFull, _ := fetchSnapshotMode(t, rsrv.URL, "")
	if !bytes.Equal(patched, relayFull) {
		t.Fatal("relayed delta diverges from the relay's full stream")
	}
	// Epoch 2 existed only inside the builder (the replica leapt 1 -> 3), so
	// the relay's ring never saw it: a downstream claiming it is a ring miss.
	if code, _, mode := fetchSnapshotMode(t, rsrv.URL, "?epoch=2&from=2"); code != 200 || mode != "full" {
		t.Fatalf("relay ring miss: code %d mode %s, want full", code, mode)
	}
	if got := counterValue(h, "skyserve_snapshot_delta_fallbacks_total", "reason", "ring_miss"); got != 1 {
		t.Fatalf("relay ring_miss fallbacks = %d, want 1", got)
	}
}

// TestReplicaTornDeltaFallsBackToFull corrupts delta bodies in transit: the
// patch is rejected (never swapped in), and the very next poll skips delta
// negotiation so the replica converges through a full fetch even while the
// corruptor stays active.
func TestReplicaTornDeltaFallsBackToFull(t *testing.T) {
	builder, _ := newDeltaBuilder(t, Config{})
	var corrupt atomic.Bool
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := http.Get(builder.URL + r.URL.Path + "?" + r.URL.RawQuery)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		for k, v := range resp.Header {
			w.Header()[k] = v
		}
		if corrupt.Load() && resp.Header.Get("X-Sky-Snapshot-Mode") == "delta" && len(body) > 0 {
			body[len(body)/2] ^= 0x40
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
	}))
	defer proxy.Close()

	ctx := context.Background()
	h, rep, err := BootstrapReplica(ctx, ReplicaConfig{
		Primary: proxy.URL,
		Dir:     t.TempDir(),
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	corrupt.Store(true)
	insertPoint(t, builder.URL, 700)
	deletePoint(t, builder.URL, 700)

	if swapped, err := rep.Refresh(ctx); err == nil || swapped {
		t.Fatalf("corrupt delta: swapped=%v err=%v, want rejection", swapped, err)
	}
	if got := h.snapshot().epoch; got != 1 {
		t.Fatalf("epoch after rejected patch = %d, want 1 (unswapped)", got)
	}
	// Next poll must go full (the corruptor only touches deltas) and converge.
	swapped, err := rep.Refresh(ctx)
	if err != nil || !swapped {
		t.Fatalf("full fallback refresh: swapped=%v err=%v", swapped, err)
	}
	if got := h.snapshot().epoch; got != 3 {
		t.Fatalf("epoch after full fallback = %d, want 3", got)
	}
	_, full, _ := fetchSnapshotMode(t, builder.URL, "")
	cached, err := os.ReadFile(rep.path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cached, full) {
		t.Fatal("replica bytes diverge after torn-delta recovery")
	}
}

// readDelta reads a delta of known length into one buffer of exactly that
// size, where io.ReadAll grows by doubling. A length above the served
// file's size is wrong and sizes nothing, and a body shorter than its
// length is an error.
func TestReadDeltaSizedFromContentLength(t *testing.T) {
	body := bytes.Repeat([]byte("delta"), 23<<10/5)
	rd := bytes.NewReader(body)
	var got []byte
	var err error
	allocs := testing.AllocsPerRun(10, func() {
		rd.Reset(body)
		got, err = readDelta(rd, int64(len(body)), 1<<20)
	})
	if err != nil || !bytes.Equal(got, body) || cap(got) != len(body) || allocs != 1 {
		t.Fatalf("read %d of %d bytes into capacity %d with %v allocations (err %v), want all in one exact buffer",
			len(got), len(body), cap(got), allocs, err)
	}
	for _, size := range []int64{-1, 1 << 40} {
		if got, err := readDelta(bytes.NewReader(body), size, 1<<20); err != nil || !bytes.Equal(got, body) {
			t.Fatalf("length %d: read %d bytes, err %v; want the whole body", size, len(got), err)
		}
	}
	if _, err := readDelta(bytes.NewReader(body[:100]), int64(len(body)), 1<<20); err == nil {
		t.Fatal("a body shorter than its Content-Length was read without error")
	}
}
