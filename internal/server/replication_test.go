package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/quaddiag"
	"repro/internal/store"
)

// fetchSnapshot downloads /v1/snapshot and returns (status, body, epoch
// header, etag).
func fetchSnapshot(t *testing.T, base, query string) (int, []byte, string, string) {
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
	return resp.StatusCode, body, resp.Header.Get("X-Sky-Epoch"), resp.Header.Get("ETag")
}

func TestSnapshotEndpointNegotiation(t *testing.T) {
	srv, _ := newTestServer(t)

	code, body, epoch, etag := fetchSnapshot(t, srv.URL, "")
	if code != 200 || epoch != "1" {
		t.Fatalf("initial snapshot: code %d epoch %s", code, epoch)
	}
	if etag != `"sky-e1-quadrant"` {
		t.Fatalf("etag = %s", etag)
	}
	st, err := store.New(body)
	if err != nil {
		t.Fatalf("snapshot body does not open as a store: %v", err)
	}
	if st.Epoch() != 1 {
		t.Fatalf("snapshot epoch %d", st.Epoch())
	}
	// The snapshot must answer like the live server.
	ids := st.QueryXY(10, 80)
	resp, err := http.Get(srv.URL + "/v1/skyline?x=10&y=80")
	if err != nil {
		t.Fatal(err)
	}
	live, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, id := range ids {
		if !strings.Contains(string(live), fmt.Sprintf("%d", id)) {
			t.Fatalf("snapshot id %d missing from live answer %s", id, live)
		}
	}

	// Epoch short-circuit and ETag revalidation are both 304s.
	if code, _, epoch, _ := fetchSnapshot(t, srv.URL, "?epoch=1"); code != http.StatusNotModified || epoch != "1" {
		t.Fatalf("?epoch=1: code %d epoch %s, want 304", code, epoch)
	}
	if code, _, _, _ := fetchSnapshot(t, srv.URL, "?epoch=99"); code != http.StatusNotModified {
		t.Fatal("a replica ahead of the builder must get 304, not a stale body")
	}
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/snapshot", nil)
	req.Header.Set("If-None-Match", etag)
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match: code %d, want 304", r2.StatusCode)
	}

	// A write bumps the epoch; the same negotiation now yields a body.
	ins, err := http.Post(srv.URL+"/v1/points", "application/json",
		strings.NewReader(`{"id":500,"coords":[1,1]}`))
	if err != nil {
		t.Fatal(err)
	}
	ins.Body.Close()
	if ins.StatusCode != http.StatusCreated {
		t.Fatalf("insert failed: %d", ins.StatusCode)
	}
	code, body2, epoch, _ := fetchSnapshot(t, srv.URL, "?epoch=1")
	if code != 200 || epoch != "2" {
		t.Fatalf("post-write snapshot: code %d epoch %s, want 200 epoch 2", code, epoch)
	}
	st2, err := store.New(body2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Epoch() != 2 || len(st2.Points()) != len(st.Points())+1 {
		t.Fatalf("epoch-2 snapshot: epoch %d points %d", st2.Epoch(), len(st2.Points()))
	}

	// Unsupported kinds are explicit, not silently wrong.
	if code, _, _, _ := fetchSnapshot(t, srv.URL, "?kind=global"); code != http.StatusNotImplemented {
		t.Fatalf("kind=global: code %d, want 501", code)
	}
	if code, _, _, _ := fetchSnapshot(t, srv.URL, "?kind=bogus"); code != http.StatusBadRequest {
		t.Fatalf("kind=bogus: code %d, want 400", code)
	}
}

// TestSnapshotKindWire pins what /v1/snapshot answers for each ?kind= on a
// builder and on a serve-from node. A snapshot file holds the quadrant
// diagram only: quadrant, or no kind, streams it with X-Sky-Epoch and an
// ETag naming the epoch and the kind; another known kind is 501 and an
// unknown one 400, with neither header.
func TestSnapshotKindWire(t *testing.T) {
	builder, _ := newTestServer(t)
	d, err := quaddiag.BuildScanning(dataset.Hotels(), 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "hotels.sky")
	if err := store.CreateFileEpoch(path, d, 5); err != nil {
		t.Fatal(err)
	}
	st, err := store.OpenMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	h, err := NewServeFrom(st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	serveFrom := httptest.NewServer(h)
	t.Cleanup(serveFrom.Close)

	for _, node := range []struct{ name, url, epoch string }{
		{"builder", builder.URL, "1"},
		{"serve-from", serveFrom.URL, "5"},
	} {
		for _, c := range []struct {
			query string
			code  int
		}{
			{"", http.StatusOK},
			{"?kind=quadrant", http.StatusOK},
			{"?kind=global", http.StatusNotImplemented},
			{"?kind=dynamic", http.StatusNotImplemented},
			{"?kind=nope", http.StatusBadRequest},
		} {
			code, body, epoch, etag := fetchSnapshot(t, node.url, c.query)
			wantEpoch, wantETag := "", ""
			if c.code == http.StatusOK {
				wantEpoch, wantETag = node.epoch, `"sky-e`+node.epoch+`-quadrant"`
				if s, err := store.New(body); err != nil || fmt.Sprint(s.Epoch()) != node.epoch {
					t.Errorf("%s %q: body is not the epoch-%s file (%v)", node.name, c.query, node.epoch, err)
				}
			}
			if code != c.code || epoch != wantEpoch || etag != wantETag {
				t.Errorf("%s %q: code %d, X-Sky-Epoch %q, ETag %s; want %d, %q, %s",
					node.name, c.query, code, epoch, etag, c.code, wantEpoch, wantETag)
			}
		}
	}
}

// A serve-from replica relays its mapped file byte-identically, so a chain
// of replicas converges on the exact bytes the builder published.
func TestSnapshotServeFromRelay(t *testing.T) {
	srv, st := newServeFromServer(t)
	code, body, epoch, _ := fetchSnapshot(t, srv.URL, "")
	if code != 200 {
		t.Fatalf("code %d", code)
	}
	if err := st.WithBytes(func(file []byte) error {
		if !bytes.Equal(body, file) {
			t.Errorf("relayed snapshot differs from the mapped file (%d vs %d bytes)",
				len(body), len(file))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if epoch != fmt.Sprint(st.Epoch()) {
		t.Fatalf("epoch header %s, file epoch %d", epoch, st.Epoch())
	}
}

func TestSwapStoreGuards(t *testing.T) {
	// Non-serve-from handlers refuse.
	h, err := New(dataset.Hotels(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.SwapStore(nil); err == nil {
		t.Fatal("SwapStore on a builder must refuse")
	}

	// Same-or-older epochs refuse: a replayed snapshot can't roll back.
	srv, st := newServeFromServer(t)
	_ = srv
	var file []byte
	if err := st.WithBytes(func(b []byte) error {
		file = append(file, b...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	dup, err := store.New(file)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := NewServeFrom(st, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hs.SwapStore(dup); err == nil {
		t.Fatal("swapping an equal-epoch snapshot must refuse")
	}
}

// newBuilder serves the hotels dataset over real HTTP as a replication
// primary.
func newBuilder(t *testing.T) *httptest.Server {
	t.Helper()
	h, err := New(dataset.Hotels(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

func insertPoint(t *testing.T, base string, id int) {
	t.Helper()
	resp, err := http.Post(base+"/v1/points", "application/json",
		strings.NewReader(fmt.Sprintf(`{"id":%d,"coords":[%d,%d]}`, id, id%97, (id*7)%97)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("insert %d: code %d", id, resp.StatusCode)
	}
}

func TestReplicaBootstrapAndRefresh(t *testing.T) {
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
	if got := h.snapshot().epoch; got != 1 {
		t.Fatalf("bootstrap epoch = %d, want 1", got)
	}

	// Replica answers like the builder.
	rsrv := httptest.NewServer(h)
	defer rsrv.Close()
	q := "/v1/skyline?x=10&y=80"
	if a, b := mustGet(t, builder.URL+q), mustGet(t, rsrv.URL+q); a != b {
		t.Fatalf("replica answer differs:\nbuilder: %s\nreplica: %s", a, b)
	}

	// No new epoch: Refresh is a cheap 304.
	if swapped, err := rep.Refresh(ctx); err != nil || swapped {
		t.Fatalf("refresh against current primary: swapped=%v err=%v", swapped, err)
	}

	// Builder applies a write; one refresh catches the replica up.
	insertPoint(t, builder.URL, 600)
	swapped, err := rep.Refresh(ctx)
	if err != nil || !swapped {
		t.Fatalf("refresh after write: swapped=%v err=%v", swapped, err)
	}
	if got := h.snapshot().epoch; got != 2 {
		t.Fatalf("post-refresh epoch = %d, want 2", got)
	}
	if a, b := mustGet(t, builder.URL+q), mustGet(t, rsrv.URL+q); a != b {
		t.Fatalf("replica diverged after refresh:\nbuilder: %s\nreplica: %s", a, b)
	}

	// Primary outage: Refresh errors but the replica keeps serving.
	builder.Close()
	if _, err := rep.Refresh(ctx); err == nil {
		t.Fatal("refresh against a dead primary must error")
	}
	if got := mustGet(t, rsrv.URL+q); got == "" {
		t.Fatal("replica stopped serving during primary outage")
	}
}

// TestReplicaStalenessGrowsWhilePrimaryIsDown: a failed poll sets the
// staleness gauge to the time since the last poll that confirmed the served
// snapshot current, so a replica whose primary has gone away does not
// report itself fresh.
func TestReplicaStalenessGrowsWhilePrimaryIsDown(t *testing.T) {
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
	builder.Close()
	rep.lastChange = time.Now().Add(-5 * time.Second)
	if _, err := rep.Refresh(ctx); err == nil {
		t.Fatal("refresh against a dead primary must error")
	}
	if got := h.Metrics().Gauge("skyserve_replica_staleness_seconds", "").Value(); got < 5 {
		t.Fatalf("staleness after a failed poll = %.3fs, want >= 5", got)
	}
}

func mustGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, b)
	}
	return string(b)
}

// A torn snapshot download (truncated mid-body) must never be swapped in:
// the CRC trailer fails at open, the file is dropped, and the replica keeps
// its current snapshot until a clean fetch succeeds.
func TestReplicaRejectsTornSnapshot(t *testing.T) {
	builder := newBuilder(t)
	var truncate atomic.Bool
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
		if truncate.Load() && len(body) > 128 {
			body = body[:len(body)/2] // tear the snapshot mid-flight
			w.Header().Del("Content-Length")
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
	}))
	t.Cleanup(proxy.Close)

	ctx := context.Background()
	dir := t.TempDir()
	h, rep, err := BootstrapReplica(ctx, ReplicaConfig{Primary: proxy.URL, Dir: dir}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	insertPoint(t, builder.URL, 700)
	truncate.Store(true)
	if swapped, err := rep.Refresh(ctx); err == nil || swapped {
		t.Fatalf("torn snapshot: swapped=%v err=%v, want rejection", swapped, err)
	}
	if got := h.snapshot().epoch; got != 1 {
		t.Fatalf("torn snapshot changed served epoch to %d", got)
	}
	// The torn download never replaced the file: a restart serves epoch 1.
	if got := restartOffline(t, dir); got != 1 {
		t.Fatalf("restart after a torn download serves epoch %d, want 1", got)
	}
	// Clean link again: the very next refresh recovers.
	truncate.Store(false)
	if swapped, err := rep.Refresh(ctx); err != nil || !swapped {
		t.Fatalf("recovery refresh: swapped=%v err=%v", swapped, err)
	}
	if got := h.snapshot().epoch; got != 2 {
		t.Fatalf("recovered epoch = %d, want 2", got)
	}
}

// A replica restart reuses its cached snapshot: it serves immediately even
// when the primary is down, then catches up when the primary returns.
func TestReplicaRestartServesFromCache(t *testing.T) {
	builder := newBuilder(t)
	dir := t.TempDir()
	ctx := context.Background()
	h, rep, err := BootstrapReplica(ctx, ReplicaConfig{Primary: builder.URL, Dir: dir}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	insertPoint(t, builder.URL, 800)
	if _, err := rep.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	wantPts := len(h.snapshot().points)
	rep.Close() // "crash" the replica

	// Primary gone AND replica restarting: cache carries it.
	builder.Close()
	bctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	h2, rep2, err := BootstrapReplica(bctx, ReplicaConfig{Primary: builder.URL, Dir: dir}, Config{})
	if err != nil {
		t.Fatalf("restart with cache and dead primary: %v", err)
	}
	defer rep2.Close()
	if got := h2.snapshot().epoch; got != 2 {
		t.Fatalf("restarted epoch = %d, want cached 2", got)
	}
	if got := len(h2.snapshot().points); got != wantPts {
		t.Fatalf("restarted points = %d, want %d", got, wantPts)
	}
}

// restartOffline boots a second replica on dir with the primary down and
// returns the epoch it serves, which only the replica's file can supply.
func restartOffline(t *testing.T, dir string) uint64 {
	t.Helper()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	h, rep, err := BootstrapReplica(ctx, ReplicaConfig{
		Primary:  dead.URL,
		Dir:      dir,
		Interval: 10 * time.Millisecond,
	}, Config{})
	if err != nil {
		t.Fatalf("restart with the primary down: %v", err)
	}
	defer rep.Close()
	return h.snapshot().epoch
}

// TestReplicaCrashAtEveryPublishSite fails each step of a replica's publish
// once during a Refresh: the temporary file's create and fsync, the open
// that vets it, the rename and the directory fsync. The replica keeps
// serving the previous epoch. A restart on the same directory with the
// primary down serves an epoch that opens: the previous one, or the new one
// when the fault hit after the rename. The next clean Refresh catches up to
// the builder's exact bytes.
func TestReplicaCrashAtEveryPublishSite(t *testing.T) {
	defer faultinject.Deactivate()
	for _, c := range []struct {
		site    string
		restart uint64 // the epoch a restart serves
	}{
		{"store.create.create", 1},
		{"store.create.sync", 1},
		{"store.open.read", 1},
		{"store.create.rename", 1},
		{"store.create.dirsync", 2},
	} {
		t.Run(c.site, func(t *testing.T) {
			builder := newBuilder(t)
			ctx := context.Background()
			dir := t.TempDir()
			h, rep, err := BootstrapReplica(ctx, ReplicaConfig{Primary: builder.URL, Dir: dir}, Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer rep.Close()

			insertPoint(t, builder.URL, 900)
			if err := faultinject.Activate(c.site + "=error#1"); err != nil {
				t.Fatal(err)
			}
			swapped, err := rep.Refresh(ctx)
			faultinject.Deactivate()
			if swapped || !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("refresh with %s failing: swapped=%v err=%v, want the injected error", c.site, swapped, err)
			}
			if got := h.snapshot().epoch; got != 1 {
				t.Fatalf("replica serves epoch %d after a failed publish, want 1", got)
			}
			if got := restartOffline(t, dir); got != c.restart {
				t.Fatalf("restart serves epoch %d, want %d", got, c.restart)
			}

			if swapped, err := rep.Refresh(ctx); err != nil || !swapped {
				t.Fatalf("clean refresh: swapped=%v err=%v", swapped, err)
			}
			if got := h.snapshot().epoch; got != 2 {
				t.Fatalf("replica serves epoch %d after a clean refresh, want 2", got)
			}
			_, full, _, _ := fetchSnapshot(t, builder.URL, "")
			file, err := os.ReadFile(rep.path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(file, full) {
				t.Fatal("replica file differs from the builder's snapshot after catching up")
			}
		})
	}
}
