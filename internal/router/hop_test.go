package router

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// slowReplica answers every read after delay, or as soon as the caller
// goes; its health endpoint answers at once.
func slowReplica(t *testing.T, delay time.Duration) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/skyline" {
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"ok":true}`))
	}))
	t.Cleanup(srv.Close)
	return srv
}

// A caller that hangs up is no replica's failure: three reads cancelled at
// 20 ms against two healthy 200 ms replicas leave both breakers closed and
// count no backend error, where recording each cancellation (and failing
// over with the dead context) would open both breakers at threshold 3 and
// answer 503 to every caller for the cooldown.
func TestRouterCallerCancelKeepsBreakersClosed(t *testing.T) {
	a, b := slowReplica(t, 200*time.Millisecond), slowReplica(t, 200*time.Millisecond)
	rt := newTestRouter(t, Config{
		Replicas:         []string{a.URL, b.URL},
		BreakerThreshold: 3,
		BreakerCooldown:  time.Hour,
	})
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/skyline?x=1&y=2", nil).WithContext(ctx))
		cancel()
	}
	for _, bk := range rt.backends {
		if s := bk.br.State(); s != "closed" {
			t.Errorf("breaker of %s is %s after callers hung up, want closed", bk.base, s)
		}
		if n := rt.backendErrs(bk).Value(); n != 0 {
			t.Errorf("%s counted %d backend errors for callers that hung up", bk.base, n)
		}
	}
	if code, body, backend := get(t, rt, "/v1/skyline?x=1&y=2"); code != http.StatusOK || backend != a.URL {
		t.Fatalf("read after the hang-ups: code %d from %q (%s), want 200 from %s", code, backend, body, a.URL)
	}
}

// A caller that hangs up on a half-open probe hands the probe back: the
// next read probes the replica again and, the replica having recovered,
// closes its breaker. Keeping the probe would leave the breaker refusing
// every read until the router restarts, since only a probe's outcome ends
// the half-open state.
func TestRouterCallerCancelHandsBackProbe(t *testing.T) {
	const cooldown = 50 * time.Millisecond
	var mode atomic.Int32 // 0: fail, 1: stall until the caller goes, 2: answer
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch mode.Load() {
		case 0:
			http.Error(w, "down", http.StatusInternalServerError)
		case 1:
			select {
			case <-time.After(2 * time.Second):
			case <-r.Context().Done():
			}
		default:
			w.Write([]byte(`{"ok":true}`))
		}
	}))
	t.Cleanup(srv.Close)
	rt := newTestRouter(t, Config{
		Replicas:         []string{srv.URL},
		BreakerThreshold: 1,
		BreakerCooldown:  cooldown,
	})
	if code, _, _ := get(t, rt, "/v1/skyline?x=1&y=2"); code != http.StatusServiceUnavailable {
		t.Fatalf("read against a failing replica: code %d, want 503", code)
	}
	bk := rt.backends[0]
	if s := bk.br.State(); s != "open" {
		t.Fatalf("breaker is %s after a failure at threshold 1, want open", s)
	}
	time.Sleep(cooldown + 20*time.Millisecond)

	mode.Store(1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	rt.ServeHTTP(httptest.NewRecorder(),
		httptest.NewRequest(http.MethodGet, "/v1/skyline?x=1&y=2", nil).WithContext(ctx))
	cancel()
	if s := bk.br.State(); s == "closed" {
		t.Fatal("a cancelled probe closed the breaker")
	}
	if n := rt.backendErrs(bk).Value(); n != 1 {
		t.Fatalf("backend errors = %d after the cancelled probe, want the first failure only", n)
	}

	mode.Store(2)
	if code, body, backend := get(t, rt, "/v1/skyline?x=1&y=2"); code != http.StatusOK || backend != srv.URL {
		t.Fatalf("read after the cancelled probe: code %d from %q (%s), want 200 from %s", code, backend, body, srv.URL)
	}
	if s := bk.br.State(); s != "closed" {
		t.Fatalf("breaker is %s after a successful probe, want closed", s)
	}
}

// The configured client's Timeout bounds each hop: a replica that stalls
// past it is a backend failure, recorded once on its breaker, and the read
// fails over to the next replica well before the stall ends.
func TestRouterHopTimeoutFailsOver(t *testing.T) {
	stalled, healthy := slowReplica(t, 2*time.Second), slowReplica(t, 0)
	rt := newTestRouter(t, Config{
		Replicas:         []string{stalled.URL, healthy.URL},
		HTTPClient:       &http.Client{Timeout: 200 * time.Millisecond},
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
	})
	start := time.Now()
	code, body, backend := get(t, rt, "/v1/skyline?x=1&y=2")
	took := time.Since(start)
	if code != http.StatusOK || backend != healthy.URL {
		t.Fatalf("code %d from %q (%s), want 200 from %s", code, backend, body, healthy.URL)
	}
	if took > time.Second {
		t.Fatalf("the read took %v behind a 200ms hop bound", took)
	}
	first := rt.backends[0]
	if n := rt.backendErrs(first).Value(); n != 1 {
		t.Fatalf("stalled replica counted %d backend errors, want 1", n)
	}
	// One recorded failure under threshold 2: a second one opens it.
	if s := first.br.State(); s != "closed" {
		t.Fatalf("stalled replica's breaker is %s after one failure, want closed", s)
	}
	if code, _, _ := get(t, rt, "/v1/skyline?x=1&y=2"); code != http.StatusOK {
		t.Fatalf("second read: code %d", code)
	}
	if s := first.br.State(); s != "open" {
		t.Fatalf("stalled replica's breaker is %s after two failures, want open", s)
	}
	if rt.failovers.Value() != 2 {
		t.Fatalf("failovers = %d, want 2", rt.failovers.Value())
	}
}

// A replica that announces a Content-Length of 2^63-1 and sends a short
// body is a backend failure like any torn answer, and the read fails over:
// the announced length sizes no buffer, so the whole read allocates well
// under a MiB where trusting it up to maxProxyBody would take 64 MiB.
func TestRouterFalseContentLengthFailsOver(t *testing.T) {
	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.FormatInt(math.MaxInt64, 10))
		w.Write([]byte(`{"ok":`))
	}))
	t.Cleanup(liar.Close)
	healthy := slowReplica(t, 0)
	rt := newTestRouter(t, Config{Replicas: []string{liar.URL, healthy.URL}})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	code, body, backend := get(t, rt, "/v1/skyline?x=1&y=2")
	runtime.ReadMemStats(&after)
	if code != http.StatusOK || backend != healthy.URL {
		t.Fatalf("code %d from %q (%s), want 200 from %s", code, backend, body, healthy.URL)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("the read allocated %d bytes behind a false Content-Length", n)
	}
	if n := rt.backendErrs(rt.backends[0]).Value(); n != 1 {
		t.Fatalf("the lying replica counted %d backend errors, want 1", n)
	}
}

// A forward goes through the transport, so a replica's redirect is relayed
// to the caller, with its Location, instead of being followed.
func TestRouterRelaysRedirect(t *testing.T) {
	var followed atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/skyline", func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, "/elsewhere", http.StatusTemporaryRedirect)
	})
	mux.HandleFunc("GET /elsewhere", func(w http.ResponseWriter, r *http.Request) { followed.Store(true) })
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	rt := newTestRouter(t, Config{Replicas: []string{srv.URL}})
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/skyline?x=1&y=2", nil))
	if rec.Code != http.StatusTemporaryRedirect || rec.Header().Get("Location") != "/elsewhere" {
		t.Fatalf("code %d Location %q, want the 307 to /elsewhere relayed", rec.Code, rec.Header().Get("Location"))
	}
	if followed.Load() {
		t.Fatal("the router followed the redirect")
	}
}
