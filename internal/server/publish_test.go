package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/store"
)

// Publish-path tests: each use of an epoch's file streams it without a
// file-sized buffer, and the bytes every use takes — the delta, the
// checkpoint, a relay's body and manifest — are exactly the bytes a full
// fetch serves.

// randomPoints draws n points uniformly from [0,100)^2.
func randomPoints(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt2(i+1, rng.Float64()*100, rng.Float64()*100)
	}
	return pts
}

// trailingToggle inserts (even k) or deletes (odd k) a point just right of
// the dataset's max-x point: it is dominated at once and only appends a grid
// column, so consecutive epochs differ by a small delta.
func trailingToggle(t testing.TB, h *Handler, pts []geom.Point, k int) {
	t.Helper()
	maxX, y := -1.0, 0.0
	for _, p := range pts {
		if p.Coords[0] > maxX {
			maxX, y = p.Coords[0], p.Coords[1]
		}
	}
	if k%2 == 0 {
		if code := doInsert(h, 9_000_000, maxX+1, y); code != http.StatusCreated {
			t.Fatalf("toggle %d: insert code %d", k, code)
		}
	} else if code := doDelete(h, 9_000_000); code != http.StatusOK {
		t.Fatalf("toggle %d: delete code %d", k, code)
	}
}

// discardWriter is a ResponseWriter that drops the body, so a handler's own
// allocations are measured without a recorder's growing buffer.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// TestPublishAllocationsBoundedByFileSize pins the publish path's memory
// cost on a maintained n=400 diagram: an epoch's first stream (the layout
// and manifest hash of recordState, on a fresh state each time), one delta
// poll, one poll whose delta would not be smaller than the file, and one
// full poll each allocate at most 0.25x the file size — the encoder's
// chunk, the remap a maintained table needs, and the page hashes or the
// delta. Any buffer of the whole file (an encode, a copy, a compacted
// table, a delta laid out and then dropped) crosses the bound.
func TestPublishAllocationsBoundedByFileSize(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an n=400 diagram")
	}
	pts := randomPoints(400, 5)
	h, err := New(pts, Config{Workers: -1, MaxDynamicPoints: 1, CompactRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	w := &discardWriter{h: http.Header{}}
	for k := 0; k < 6; k++ {
		if k == 5 {
			// A replica holds only epochs it was streamed: stream the one
			// the delta poll below comes from.
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/snapshot", nil))
		}
		trailingToggle(t, h, pts, k)
	}
	snap := h.snapshot()
	if live, total := snap.quadrant.Cells().ArenaLive(); live == total {
		t.Fatal("test premise broken: the diagram carries no maintenance garbage")
	}
	size := float64(len(epochFile(t, snap.quadrant.Cells(), snap.epoch)))

	firstStream := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.recordState(&state{epoch: snap.epoch, quadrant: snap.quadrant})
		}
	})
	req := httptest.NewRequest(http.MethodGet,
		fmt.Sprintf("/v1/snapshot?epoch=%d&from=%d", snap.epoch-1, snap.epoch-1), nil)
	h.ServeHTTP(w, req)
	if mode := w.h.Get("X-Sky-Snapshot-Mode"); mode != "delta" {
		t.Fatalf("poll answered mode %q, want delta", mode)
	}
	poll := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.ServeHTTP(w, req)
		}
	})
	// Another dataset's file, recorded under a spare epoch, shares no page
	// with the current one: a poll from it must fall back before a delta is
	// laid out.
	other, err := New(randomPoints(401, 6), Config{Workers: -1, MaxDynamicPoints: 1})
	if err != nil {
		t.Fatal(err)
	}
	const spare = 1 << 40
	otherManifest, err := store.NewManifest(epochFile(t, other.snapshot().quadrant.Cells(), spare))
	if err != nil {
		t.Fatal(err)
	}
	h.ring.add(otherManifest)
	wholeReq := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/snapshot?epoch=%d&from=%d", snap.epoch-1, spare), nil)
	wholePoll := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.ServeHTTP(w, wholeReq)
		}
	})
	if mode := w.h.Get("X-Sky-Snapshot-Mode"); mode != "full" {
		t.Fatalf("poll from another dataset answered mode %q, want full", mode)
	}
	if got := counterValue(h, "skyserve_snapshot_delta_fallbacks_total", "reason", "not_smaller"); got == 0 {
		t.Fatal("poll from another dataset did not fall back as not_smaller")
	}
	fullReq := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/snapshot?epoch=%d", snap.epoch-1), nil)
	fullPoll := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.ServeHTTP(w, fullReq)
		}
	})
	if mode := w.h.Get("X-Sky-Snapshot-Mode"); mode != "full" {
		t.Fatalf("poll answered mode %q, want full", mode)
	}
	for _, c := range []struct {
		name string
		r    testing.BenchmarkResult
	}{{"first stream", firstStream}, {"delta poll", poll}, {"not_smaller poll", wholePoll}, {"full poll", fullPoll}} {
		ratio := float64(c.r.AllocedBytesPerOp()) / size
		t.Logf("%s: %d B/op = %.2fx the %.0f-byte file", c.name, c.r.AllocedBytesPerOp(), ratio, size)
		if ratio > 0.25 {
			t.Errorf("%s allocates %.2fx the file size, want <= 0.25x", c.name, ratio)
		}
	}
}

// TestCheckpointPersistsPulledBytes: the checkpoint a pull triggers writes
// the very bytes that pull served — the full body after a full pull, and
// the bytes the delta patches into after a delta pull.
func TestCheckpointPersistsPulledBytes(t *testing.T) {
	dir := t.TempDir()
	h := newDurableHandler(t, dir, Config{CheckpointBytes: -1})
	srv := httptest.NewServer(h)
	defer srv.Close()
	checkpointAt := func(epoch uint64) []byte {
		t.Helper()
		waitFor(t, 5*time.Second, func() bool {
			return h.lastCkpt.Load() >= epoch && !h.ckptInFlight.Load()
		})
		data, err := os.ReadFile(filepath.Join(dir, CheckpointFile))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	// Epoch 3 holds the boot point set again, so the next pair of writes
	// leaves a delta of a few hundred bytes.
	doInsert(h, 700, 3.5, 4.5)
	doDelete(h, 700)
	code, full, mode := fetchSnapshotMode(t, srv.URL, "?epoch=1")
	if code != http.StatusOK || mode != "full" {
		t.Fatalf("full pull: code %d mode %s", code, mode)
	}
	if got := checkpointAt(3); !bytes.Equal(got, full) {
		t.Fatal("checkpoint after a full pull differs from the served body")
	}

	doInsert(h, 701, 3.5, 4.5)
	doDelete(h, 701)
	code, delta, mode := fetchSnapshotMode(t, srv.URL, "?epoch=3&from=3")
	if code != http.StatusOK || mode != "delta" {
		t.Fatalf("delta pull: code %d mode %s", code, mode)
	}
	patched, err := store.ApplyDelta(full, delta)
	if err != nil {
		t.Fatal(err)
	}
	if got := checkpointAt(5); !bytes.Equal(got, patched) {
		t.Fatal("checkpoint after a delta pull differs from the bytes the delta patches into")
	}
}

// chunkyWriter copies a body in small pieces and yields between them, so a
// handler writing straight from a mapping keeps reading it for a while.
type chunkyWriter struct{ *httptest.ResponseRecorder }

func (c chunkyWriter) Write(p []byte) (int, error) {
	n := 0
	for len(p) > 0 {
		k := min(len(p), 512)
		m, err := c.ResponseRecorder.Write(p[:k])
		n += m
		if err != nil {
			return n, err
		}
		p = p[k:]
		runtime.Gosched()
	}
	return n, nil
}

// TestRelayRetiresStoreUnderStreams: a relay answers queries and sends
// snapshot bodies and deltas straight from its store's mapping, and hashes
// a mapping for its manifest ring when it first streams it, while SwapStore
// and Close retire stores under those readers as fast as they can. No
// reader may touch an
// unmapped page (that would fault the process) — including one that read
// the published state just before a swap and reaches the store only after
// its Close began — every read must succeed, and every body must be exactly
// some epoch's file or a delta between two of them. Run it with -race
// -count=10.
func TestRelayRetiresStoreUnderStreams(t *testing.T) {
	pts := randomPoints(60, 11)
	b, err := New(pts, Config{MaxDynamicPoints: 1})
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 300
	dir := t.TempDir()
	files := map[uint64][]byte{}
	for e := uint64(1); e <= epochs; e++ {
		if e > 1 {
			trailingToggle(t, b, pts, int(e))
		}
		rec := httptest.NewRecorder()
		b.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/snapshot", nil))
		if rec.Code != http.StatusOK || rec.Header().Get("X-Sky-Epoch") != strconv.FormatUint(e, 10) {
			t.Fatalf("builder snapshot %d: code %d epoch %s", e, rec.Code, rec.Header().Get("X-Sky-Epoch"))
		}
		files[e] = rec.Body.Bytes()
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("e%d.sky", e)), files[e], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	open := func(e uint64) *store.Store {
		st, err := store.OpenMmap(filepath.Join(dir, fmt.Sprintf("e%d.sky", e)))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	relay, err := NewServeFrom(open(1), Config{MaxInFlight: -1})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var queries, deltas, fulls atomic.Int64
	// Six readers query and two fetch snapshots: queries are short, so
	// many of them keep landing between a swap and the old store's Close.
	// One fetcher takes full bodies; the other catches up from the epoch it
	// last got, as a downstream replica does, so its base is one the relay
	// streamed and recorded.
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			query := httptest.NewRequest(http.MethodGet,
				fmt.Sprintf("/v1/skyline?x=%d&y=%d", 10*g+5, 95-10*g), nil)
			from := uint64(1) // the relay's boot epoch, recorded at boot
			for {
				select {
				case <-stop:
					return
				default:
				}
				req := query
				switch g {
				case 5:
					req = httptest.NewRequest(http.MethodPost, "/v1/skyline/batch",
						strings.NewReader(`{"queries":[[10,90],[50,50],[90,10],[105,20]]}`))
				case 6:
					req = httptest.NewRequest(http.MethodGet, "/v1/snapshot", nil)
				case 7:
					req = httptest.NewRequest(http.MethodGet,
						fmt.Sprintf("/v1/snapshot?epoch=%d&from=%d", from, from), nil)
				}
				w := chunkyWriter{httptest.NewRecorder()}
				relay.ServeHTTP(w, req)
				if w.Code == http.StatusNotModified {
					continue
				}
				epoch, err := strconv.ParseUint(w.Header().Get("X-Sky-Epoch"), 10, 64)
				if w.Code != http.StatusOK || err != nil {
					t.Errorf("%s %s: code %d epoch %q: %s", req.Method, req.URL, w.Code,
						w.Header().Get("X-Sky-Epoch"), w.Body.String())
					return
				}
				body := w.Body.Bytes()
				switch {
				case g < 6:
					queries.Add(1)
				case w.Header().Get("X-Sky-Snapshot-Mode") == "delta":
					patched, err := store.ApplyDelta(files[from], body)
					if err != nil || !bytes.Equal(patched, files[epoch]) {
						t.Errorf("delta %d -> %d does not patch into that epoch's file (%v)", from, epoch, err)
						return
					}
					deltas.Add(1)
				case !bytes.Equal(body, files[epoch]):
					t.Errorf("full body at epoch %d differs from that epoch's file", epoch)
					return
				default:
					fulls.Add(1)
				}
				from = epoch
			}
		}(g)
	}
	for e := uint64(2); e <= epochs; e++ {
		old, err := relay.SwapStore(open(e))
		if err != nil {
			t.Fatal(err)
		}
		if err := old.Close(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	last := relay.snapshot().stored
	if got := last.Epoch(); got != epochs {
		t.Fatalf("relay serves epoch %d, want %d", got, epochs)
	}
	last.Close()
	if queries.Load() == 0 || fulls.Load() == 0 || deltas.Load() == 0 {
		t.Fatalf("served %d queries, %d full bodies and %d deltas, want all three",
			queries.Load(), fulls.Load(), deltas.Load())
	}
	t.Logf("%d queries, %d full bodies and %d deltas across %d store retirements",
		queries.Load(), fulls.Load(), deltas.Load(), epochs-1)
}
