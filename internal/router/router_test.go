package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/quaddiag"
	"repro/internal/server"
	"repro/internal/store"
)

// fakeReplica is a scriptable backend: its mode decides how the data path
// answers while /v1/ready keeps reporting the configured epoch.
type fakeReplica struct {
	srv   *httptest.Server
	mode  atomic.Value // "ok", "err", "shed", "healthdown"
	epoch atomic.Uint64
	hits  atomic.Int64 // data-path requests received
}

func newFakeReplica(t *testing.T) *fakeReplica {
	t.Helper()
	f := &fakeReplica{}
	f.mode.Store("ok")
	f.epoch.Store(1)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/ready", func(w http.ResponseWriter, r *http.Request) {
		if f.mode.Load() == "healthdown" {
			http.Error(w, "unhealthy", http.StatusInternalServerError)
			return
		}
		w.Header().Set("X-Sky-Epoch", strconv.FormatUint(f.epoch.Load(), 10))
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, `{"status":"ready"}`)
	})
	data := func(w http.ResponseWriter, r *http.Request) {
		f.hits.Add(1)
		switch f.mode.Load() {
		case "err":
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
		case "shed":
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"overloaded"}`, http.StatusTooManyRequests)
		default:
			w.Header().Set("X-Sky-Epoch", strconv.FormatUint(f.epoch.Load(), 10))
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"answered_by":%q}`, f.srv.URL)
		}
	}
	mux.HandleFunc("GET /v1/skyline", data)
	mux.HandleFunc("POST /v1/skyline/batch", data)
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func newTestRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// get answers status, body, and the backend attribution header.
func get(t *testing.T, rt *Router, path string) (int, string, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.String(), rec.Header().Get("X-Sky-Backend")
}

// Reads go to the first replica in configured order while it is usable,
// and the order the operator wrote is the order the pool prefers: listing
// the same replicas the other way round flips the home node.
func TestRouterRoutesInConfiguredOrder(t *testing.T) {
	a, b := newFakeReplica(t), newFakeReplica(t)
	for _, pool := range [][]string{{a.srv.URL, b.srv.URL}, {b.srv.URL, a.srv.URL}} {
		rt := newTestRouter(t, Config{Replicas: pool})
		for i := 0; i < 5; i++ {
			code, body, backend := get(t, rt, "/v1/skyline?x=1&y=2")
			if code != 200 {
				t.Fatalf("code = %d, body %s", code, body)
			}
			if backend != pool[0] {
				t.Fatalf("pool %v: read %d answered by %s, want the first replica", pool, i, backend)
			}
		}
	}
}

// A replica listed twice, once with a trailing slash, is one node: New
// refuses the pool instead of giving it two breakers, which would "fail
// over" a read to the node that just failed it.
func TestRouterRejectsDuplicateReplica(t *testing.T) {
	a, b := newFakeReplica(t), newFakeReplica(t)
	for _, pool := range [][]string{
		{a.srv.URL, a.srv.URL},
		{a.srv.URL + "/", b.srv.URL, a.srv.URL},
	} {
		if _, err := New(Config{Replicas: pool}); err == nil || !strings.Contains(err.Error(), "duplicate replica") {
			t.Fatalf("pool %v: err = %v, want a duplicate replica error", pool, err)
		}
	}
	rt := newTestRouter(t, Config{Replicas: []string{a.srv.URL + "/", b.srv.URL}})
	if got := rt.backends[0].base; got != a.srv.URL {
		t.Fatalf("backend base = %q, want the trimmed URL %q", got, a.srv.URL)
	}
	// The metric label is the trimmed URL too, so the health gauges and the
	// error counter of one replica are one series.
	rt.HealthCheck(context.Background())
	var prom strings.Builder
	if err := rt.Metrics().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("skyrouter_backend_healthy{backend=%q} 1", a.srv.URL); !strings.Contains(prom.String(), want) {
		t.Fatalf("metrics lack %q:\n%s", want, prom.String())
	}
	if strings.Contains(prom.String(), a.srv.URL+"/") {
		t.Fatalf("metrics label the replica with its untrimmed URL:\n%s", prom.String())
	}
}

// Failover matrix: the first candidate misbehaves, the second answers.
func TestRouterFailover(t *testing.T) {
	cases := []struct {
		name         string
		break1       func(*fakeReplica)
		wantFailover bool
	}{
		{"5xx", func(f *fakeReplica) { f.mode.Store("err") }, true},
		{"connection refused", func(f *fakeReplica) { f.srv.Close() }, true},
		{"shed prefers other replica", func(f *fakeReplica) { f.mode.Store("shed") }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := newFakeReplica(t), newFakeReplica(t)
			rt := newTestRouter(t, Config{Replicas: []string{a.srv.URL, b.srv.URL}})
			tc.break1(a)
			code, body, backend := get(t, rt, "/v1/skyline?x=1&y=2")
			if code != 200 {
				t.Fatalf("code = %d body %s", code, body)
			}
			if backend != b.srv.URL {
				t.Fatalf("answered by %s, want failover target %s", backend, b.srv.URL)
			}
			if got := rt.failovers.Value(); (got > 0) != tc.wantFailover {
				t.Fatalf("failovers = %d, want >0 == %v", got, tc.wantFailover)
			}
		})
	}
}

func TestRouterAllShedForwardsShed(t *testing.T) {
	a, b := newFakeReplica(t), newFakeReplica(t)
	a.mode.Store("shed")
	b.mode.Store("shed")
	rt := newTestRouter(t, Config{Replicas: []string{a.srv.URL, b.srv.URL}})
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/skyline?x=1&y=2", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("code = %d, want 429 relayed", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("shed relay lost the Retry-After header")
	}
	if rt.sheds.Value() != 1 {
		t.Fatalf("sheds counter = %d, want 1", rt.sheds.Value())
	}
	// A shed is a success for the breakers: the pool is alive.
	for _, bk := range rt.backends {
		if s := bk.br.State(); s != "closed" {
			t.Fatalf("breaker %s after sheds, want closed", s)
		}
	}
}

func TestRouterAllDown503(t *testing.T) {
	a, b := newFakeReplica(t), newFakeReplica(t)
	a.srv.Close()
	b.srv.Close()
	rt := newTestRouter(t, Config{Replicas: []string{a.srv.URL, b.srv.URL}})
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/skyline?x=1&y=2", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("code = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 must carry Retry-After")
	}
	if rt.noReplica.Value() != 1 {
		t.Fatalf("noReplica = %d, want 1", rt.noReplica.Value())
	}
}

// An open breaker must skip the replica without issuing a request.
func TestRouterBreakerOpenSkipsBackend(t *testing.T) {
	a, b := newFakeReplica(t), newFakeReplica(t)
	rt := newTestRouter(t, Config{
		Replicas:         []string{a.srv.URL, b.srv.URL},
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour, // stays open for the whole test
	})
	first, second := a, b
	first.mode.Store("err")
	// Two failing reads trip the first replica's breaker.
	for i := 0; i < 2; i++ {
		if code, body, _ := get(t, rt, "/v1/skyline?x=1&y=2"); code != 200 {
			t.Fatalf("read %d failed over wrong: %d %s", i, code, body)
		}
	}
	if s := rt.backends[0].br.State(); s != "open" {
		t.Fatalf("first replica breaker = %s, want open", s)
	}
	hitsBefore := first.hits.Load()
	for i := 0; i < 3; i++ {
		if code, _, backend := get(t, rt, "/v1/skyline?x=1&y=2"); code != 200 || backend != second.srv.URL {
			t.Fatalf("read with open breaker: code %d backend %s", code, backend)
		}
	}
	if got := first.hits.Load(); got != hitsBefore {
		t.Fatalf("open breaker still sent %d requests to the broken replica", got-hitsBefore)
	}
}

// 4xx is the client's fault: relay it, never fail over.
func TestRouter4xxNoFailover(t *testing.T) {
	b := newFakeReplica(t)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/skyline", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"bad kind"}`, http.StatusBadRequest)
	})
	mux.HandleFunc("GET /v1/ready", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(200) })
	bad := httptest.NewServer(mux)
	t.Cleanup(bad.Close)
	// The 400-answering replica comes first, so the relay is provable.
	rt := newTestRouter(t, Config{Replicas: []string{bad.URL, b.srv.URL}})
	code, _, backend := get(t, rt, "/v1/skyline?x=a")
	if code != http.StatusBadRequest || backend != bad.URL {
		t.Fatalf("4xx relay: code %d backend %s, want 400 from %s", code, backend, bad.URL)
	}
	if b.hits.Load() != 0 {
		t.Fatal("4xx was retried on the next replica")
	}
	if rt.failovers.Value() != 0 {
		t.Fatal("4xx must not count as failover")
	}
}

// A stale replica (behind on epochs) is demoted behind fresh ones even when
// it is the first in configured order.
func TestRouterStaleReplicaDemoted(t *testing.T) {
	a, b := newFakeReplica(t), newFakeReplica(t)
	rt := newTestRouter(t, Config{Replicas: []string{a.srv.URL, b.srv.URL}})
	home, other := a.srv.URL, b.srv.URL
	a.epoch.Store(3) // home lags
	b.epoch.Store(7)
	rt.HealthCheck(context.Background())
	if code, _, backend := get(t, rt, "/v1/skyline?x=1&y=2"); code != 200 || backend != other {
		t.Fatalf("stale home not demoted: code %d backend %s, want %s", code, backend, other)
	}
	// Once caught up, the home node takes the reads back.
	a.epoch.Store(7)
	rt.HealthCheck(context.Background())
	if _, _, backend := get(t, rt, "/v1/skyline?x=1&y=2"); backend != home {
		t.Fatalf("caught-up home not restored: backend %s, want %s", backend, home)
	}
}

func TestRouterUnhealthyReplicaDemoted(t *testing.T) {
	a, b := newFakeReplica(t), newFakeReplica(t)
	rt := newTestRouter(t, Config{Replicas: []string{a.srv.URL, b.srv.URL}})
	a.mode.Store("healthdown")
	rt.HealthCheck(context.Background())
	if _, _, backend := get(t, rt, "/v1/skyline?x=1&y=2"); backend != b.srv.URL {
		t.Fatalf("unhealthy home not demoted: backend %s, want %s", backend, b.srv.URL)
	}
}

func TestRouterWriteForwardsToPrimary(t *testing.T) {
	var gotBody atomic.Value
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/points", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		gotBody.Store(string(body))
		w.Header().Set("X-Sky-Epoch", "9")
		w.WriteHeader(http.StatusCreated)
		io.WriteString(w, `{"points":12}`)
	})
	primary := httptest.NewServer(mux)
	t.Cleanup(primary.Close)
	a := newFakeReplica(t)
	rt := newTestRouter(t, Config{Replicas: []string{a.srv.URL}, Primary: primary.URL})

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/points",
		io.NopCloser(jsonBody(`{"id":99,"coords":[1,2]}`)))
	req.Header.Set("Content-Type", "application/json")
	req.ContentLength = int64(len(`{"id":99,"coords":[1,2]}`))
	rt.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		t.Fatalf("write relay code = %d body %s", rec.Code, rec.Body.String())
	}
	if gotBody.Load() != `{"id":99,"coords":[1,2]}` {
		t.Fatalf("primary saw body %q", gotBody.Load())
	}
	if rec.Header().Get("X-Sky-Epoch") != "9" {
		t.Fatal("write relay lost X-Sky-Epoch")
	}

	// No primary configured: writes answer 501.
	ro := newTestRouter(t, Config{Replicas: []string{a.srv.URL}})
	rec = httptest.NewRecorder()
	ro.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/points", nil))
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("read-only router write = %d, want 501", rec.Code)
	}
}

func TestRouterHealthReportsPool(t *testing.T) {
	a, b := newFakeReplica(t), newFakeReplica(t)
	a.epoch.Store(4)
	b.epoch.Store(6)
	rt := newTestRouter(t, Config{Replicas: []string{a.srv.URL, b.srv.URL}})
	rt.HealthCheck(context.Background())
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/health", nil))
	var out struct {
		Status   string `json:"status"`
		Epoch    uint64 `json:"epoch"`
		Replicas []struct {
			Backend string `json:"backend"`
			Healthy bool   `json:"healthy"`
			Epoch   uint64 `json:"epoch"`
			Breaker string `json:"breaker"`
		} `json:"replicas"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Status != "ok" || out.Epoch != 6 || len(out.Replicas) != 2 {
		t.Fatalf("health = %+v", out)
	}
	// Kill both: status degrades but the router itself keeps answering.
	a.mode.Store("healthdown")
	b.mode.Store("healthdown")
	rt.HealthCheck(context.Background())
	rec = httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/health", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Status != "degraded" {
		t.Fatalf("all-down status = %q, want degraded", out.Status)
	}
}

func jsonBody(s string) io.Reader { return strings.NewReader(s) }

// TestProbePrefersReadiness: the health loop probes /v1/ready, not
// /v1/health — a replica that is alive but still bootstrapping (503 from the
// startup gate) must not receive traffic.
func TestProbePrefersReadiness(t *testing.T) {
	mk := func(handler http.HandlerFunc) *httptest.Server {
		srv := httptest.NewServer(handler)
		t.Cleanup(srv.Close)
		return srv
	}
	// Serves both endpoints with different epochs: the probe must report
	// readiness's view.
	both := mk(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/ready":
			w.Header().Set("X-Sky-Epoch", "7")
			io.WriteString(w, `{"status":"ready","epoch":7}`)
		case "/v1/health":
			w.Header().Set("X-Sky-Epoch", "3")
			io.WriteString(w, `{"status":"ok","epoch":3}`)
		default:
			http.NotFound(w, r)
		}
	})
	// Alive but starting: liveness green, readiness 503 — must be unhealthy.
	starting := mk(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/ready":
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"starting"}`, http.StatusServiceUnavailable)
		case "/v1/health":
			io.WriteString(w, `{"status":"starting"}`)
		default:
			http.NotFound(w, r)
		}
	})

	rt, err := New(Config{Replicas: []string{both.URL, starting.URL}})
	if err != nil {
		t.Fatal(err)
	}
	rt.HealthCheck(context.Background())

	check := func(i int, wantHealthy bool, wantEpoch uint64) {
		t.Helper()
		b, url := rt.backends[i], rt.backends[i].base
		if got := b.healthy.Load(); got != wantHealthy {
			t.Errorf("%s healthy = %v, want %v", url, got, wantHealthy)
		}
		if got := b.epoch.Load(); got != wantEpoch {
			t.Errorf("%s epoch = %d, want %d", url, got, wantEpoch)
		}
	}
	check(0, true, 7)  // both: readiness view wins over liveness
	check(1, false, 0) // starting: alive but not ready, no traffic
}

// A kind the replicas' files do not hold is the caller's mistake, not a
// replica failure: real serve-from quadrant replicas answer 501 for
// kind=global, and the router must relay that 501 — no 503, no breaker
// failure, no failover or backend-error count — so a burst of such reads
// leaves both replicas serving the kinds they hold.
func TestRouterUnservedKindKeepsBreakersClosed(t *testing.T) {
	d, err := quaddiag.BuildScanning(chaosPoints(40), 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "quadrant.sky")
	if err := store.CreateFileEpoch(path, d, 1); err != nil {
		t.Fatal(err)
	}
	var urls []string
	for i := 0; i < 2; i++ {
		st, err := store.OpenMmap(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		h, err := server.NewServeFrom(st, server.Config{})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	rt := newTestRouter(t, Config{
		Replicas:         urls,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour, // an opened breaker would stay open
	})
	for i := 0; i < 10; i++ {
		code, body, backend := get(t, rt, "/v1/skyline?kind=global&x=50&y=50")
		if code != http.StatusNotImplemented || backend == "" {
			t.Fatalf("global read %d: code %d from %q (%s), want the replica's 501 relayed", i, code, backend, body)
		}
	}
	for _, b := range rt.backends {
		if s := b.br.State(); s != "closed" {
			t.Fatalf("breaker of %s is %s after unserved-kind reads, want closed", b.base, s)
		}
		if n := rt.backendErrs(b).Value(); n != 0 {
			t.Fatalf("%s counted %d backend errors for 501 answers", b.base, n)
		}
	}
	if f, n := rt.failovers.Value(), rt.noReplica.Value(); f != 0 || n != 0 {
		t.Fatalf("failovers = %d, no_replica = %d after 501 answers, want 0 and 0", f, n)
	}
	if code, body, _ := get(t, rt, "/v1/skyline?kind=quadrant&x=50&y=50"); code != http.StatusOK {
		t.Fatalf("quadrant read after unserved-kind reads: code %d (%s), want 200", code, body)
	}
}
