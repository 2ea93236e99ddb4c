package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geom"
)

// TestShedWriteRetriedWithRetryAfter: a 429 with Retry-After means the
// server shed the request before touching state, so even a POST is safe to
// resend — and the client must do so.
func TestShedWriteRetriedWithRetryAfter(t *testing.T) {
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) == 1 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"overloaded"}`, http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusCreated)
		w.Write([]byte(`{"status":"inserted"}`))
	}))
	defer srv.Close()

	c := New(srv.URL, WithRetries(2), WithBackoff(time.Millisecond))
	if err := c.Insert(context.Background(), geom.Pt2(7, 1, 2)); err != nil {
		t.Fatalf("shed insert with Retry-After must be retried: %v", err)
	}
	if got := atomic.LoadInt32(&calls); got != 2 {
		t.Fatalf("expected 2 attempts, got %d", got)
	}
	ctr := c.Counters()
	if ctr.Shed != 1 || ctr.Retries != 1 {
		t.Fatalf("counters = %+v, want Shed=1 Retries=1", ctr)
	}
}

// TestWriteNotRetriedOnPlain5xx: a 500 on a POST may mean the server
// applied the write and then died — resending could double-apply. The
// client must surface the error after exactly one attempt.
func TestWriteNotRetriedOnPlain5xx(t *testing.T) {
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	}))
	defer srv.Close()

	c := New(srv.URL, WithRetries(3), WithBackoff(time.Millisecond))
	err := c.Insert(context.Background(), geom.Pt2(7, 1, 2))
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusInternalServerError {
		t.Fatalf("want 500 APIError, got %v", err)
	}
	if got := atomic.LoadInt32(&calls); got != 1 {
		t.Fatalf("non-idempotent POST retried on 5xx: %d attempts", got)
	}

	// A shed 503 without Retry-After is ambiguous for writes too.
	var calls2 int32
	srv2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls2, 1)
		http.Error(w, `{"error":"unavailable"}`, http.StatusServiceUnavailable)
	}))
	defer srv2.Close()
	c2 := New(srv2.URL, WithRetries(3), WithBackoff(time.Millisecond))
	if err := c2.Delete(context.Background(), 7); err == nil {
		t.Fatal("503 without Retry-After on DELETE must fail")
	}
	if got := atomic.LoadInt32(&calls2); got != 1 {
		t.Fatalf("DELETE retried on bare 503: %d attempts", got)
	}
}

// TestWriteRetriedOnConnectError: nothing listens, so every attempt is a
// dial failure — the request never left the machine, and even a POST must
// be retried the configured number of times.
func TestWriteRetriedOnConnectError(t *testing.T) {
	c := New("http://127.0.0.1:1", WithRetries(2), WithBackoff(time.Millisecond))
	err := c.Insert(context.Background(), geom.Pt2(7, 1, 2))
	if err == nil {
		t.Fatal("unreachable service must fail")
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("dial errors should be retried for POST; got %v", err)
	}
	if ctr := c.Counters(); ctr.Retries != 2 {
		t.Fatalf("counters = %+v, want Retries=2", ctr)
	}
}

// TestCircuitBreakerOpensAndRecovers drives the breaker through its full
// cycle: consecutive 5xx failures open it, requests then fail fast without
// touching the server, and after the cooldown a half-open probe against a
// recovered server closes it again.
func TestCircuitBreakerOpensAndRecovers(t *testing.T) {
	var calls, healthy int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		if atomic.LoadInt32(&healthy) == 0 {
			http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer srv.Close()

	c := New(srv.URL, WithRetries(0), WithBackoff(time.Millisecond),
		WithBreaker(3, 50*time.Millisecond))
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := c.Health(ctx); err == nil {
			t.Fatal("broken service must fail")
		}
	}
	if got := atomic.LoadInt32(&calls); got != 3 {
		t.Fatalf("expected 3 real attempts, got %d", got)
	}

	// Breaker is now open: fail fast, no request issued.
	err := c.Health(ctx)
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("want ErrBreakerOpen, got %v", err)
	}
	if got := atomic.LoadInt32(&calls); got != 3 {
		t.Fatalf("open breaker still sent a request (%d calls)", got)
	}
	if ctr := c.Counters(); ctr.BreakerOpens < 1 {
		t.Fatalf("counters = %+v, want BreakerOpens >= 1", ctr)
	}

	// After cooldown, the half-open probe hits a recovered server and
	// closes the breaker for good.
	atomic.StoreInt32(&healthy, 1)
	time.Sleep(70 * time.Millisecond)
	if err := c.Health(ctx); err != nil {
		t.Fatalf("half-open probe against healthy server failed: %v", err)
	}
	if err := c.Health(ctx); err != nil {
		t.Fatalf("closed breaker blocked a request: %v", err)
	}
}

// TestBreakerReopensOnFailedProbe: a failed half-open probe must re-open
// the breaker for another cooldown rather than letting traffic through.
func TestBreakerReopensOnFailedProbe(t *testing.T) {
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
	}))
	defer srv.Close()

	c := New(srv.URL, WithRetries(0), WithBackoff(time.Millisecond),
		WithBreaker(2, 30*time.Millisecond))
	ctx := context.Background()
	c.Health(ctx)
	c.Health(ctx) // breaker opens here
	if err := c.Health(ctx); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("want ErrBreakerOpen, got %v", err)
	}
	time.Sleep(40 * time.Millisecond)
	if err := c.Health(ctx); errors.Is(err, ErrBreakerOpen) {
		t.Fatal("probe after cooldown should reach the server")
	}
	// The failed probe re-opened it.
	if err := c.Health(ctx); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("failed probe must re-open the breaker, got %v", err)
	}
	if got := atomic.LoadInt32(&calls); got != 3 {
		t.Fatalf("expected 3 real attempts (2 failures + 1 probe), got %d", got)
	}
	if ctr := c.Counters(); ctr.BreakerOpens != 2 {
		t.Fatalf("counters = %+v, want BreakerOpens=2", ctr)
	}
}

// TestShedDoesNotTripBreaker: 429s are deliberate overload protection, not
// service failure — hundreds of them must leave the breaker closed.
func TestShedDoesNotTripBreaker(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0")
		http.Error(w, `{"error":"overloaded"}`, http.StatusTooManyRequests)
	}))
	defer srv.Close()

	c := New(srv.URL, WithRetries(0), WithBackoff(time.Millisecond),
		WithBreaker(2, time.Minute))
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		err := c.Health(ctx)
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("request %d: want 429 APIError, got %v", i, err)
		}
	}
	ctr := c.Counters()
	if ctr.BreakerOpens != 0 {
		t.Fatalf("sheds tripped the breaker: %+v", ctr)
	}
	if ctr.Shed != 10 {
		t.Fatalf("counters = %+v, want Shed=10", ctr)
	}
}

// TestCallerCancelDoesNotTripBreaker: a call its own caller cancels ends
// with no outcome of the service's. Three calls cancelled at 20 ms against
// a healthy server that answers in 200 ms must neither open a 3-failure
// breaker nor be retried, so the next call with a live context succeeds.
func TestCallerCancelDoesNotTripBreaker(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(200 * time.Millisecond)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"kind":"quadrant","query":[1,2],"ids":[7],"points":[{"id":7,"coords":[3,4]}]}`))
	}))
	defer srv.Close()

	c := New(srv.URL, WithRetries(2), WithBackoff(time.Millisecond),
		WithBreaker(3, time.Hour))
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		_, err := c.Skyline(ctx, "quadrant", 1, 2)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call %d: want the caller's deadline, got %v", i, err)
		}
	}
	if ctr := c.Counters(); ctr.BreakerOpens != 0 || ctr.Retries != 0 {
		t.Fatalf("cancelled calls: %+v, want no breaker open and no retry", ctr)
	}
	res, err := c.Skyline(context.Background(), "quadrant", 1, 2)
	if err != nil || len(res.IDs) != 1 || res.IDs[0] != 7 {
		t.Fatalf("live call after cancelled ones: %+v, %v", res, err)
	}
}

// TestTimeoutBoundsStalledBody: the HTTP client's Timeout bounds an
// attempt's body read as well as its round trip. A server that sends its
// headers at once and then stalls the body past the timeout fails the call
// within about the timeout, and as the service's failure: it records one
// breaker failure, where a caller's own cancellation records none.
func TestTimeoutBoundsStalledBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"kind":`))
		w.(http.Flusher).Flush()
		select {
		case <-time.After(5 * time.Second):
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()

	const timeout = 200 * time.Millisecond
	c := New(srv.URL, WithHTTPClient(&http.Client{Timeout: timeout}), WithRetries(0),
		WithBreaker(3, time.Hour))
	start := time.Now()
	_, err := c.Skyline(context.Background(), "quadrant", 1, 2)
	if elapsed := time.Since(start); err == nil || elapsed < timeout || elapsed > 10*timeout {
		t.Fatalf("stalled body: err %v after %v, want a failure after about %v", err, elapsed, timeout)
	}
	c.br.mu.Lock()
	fails := c.br.consecFails
	c.br.mu.Unlock()
	if fails != 1 {
		t.Fatalf("breaker recorded %d failures, want 1", fails)
	}
}

// TestRetryAfterParsing pins the header grammar: delay-seconds, HTTP dates,
// and the 5s stall cap.
func TestRetryAfterParsing(t *testing.T) {
	if d, ok := parseRetryAfter("1"); !ok || d != time.Second {
		t.Fatalf(`parse "1" = %v, %v`, d, ok)
	}
	if d, ok := parseRetryAfter("0"); !ok || d != 0 {
		t.Fatalf(`parse "0" = %v, %v`, d, ok)
	}
	if d, ok := parseRetryAfter("9999"); !ok || d != 5*time.Second {
		t.Fatalf(`parse "9999" = %v, %v (want capped at 5s)`, d, ok)
	}
	if _, ok := parseRetryAfter(""); ok {
		t.Fatal("empty header parsed as usable")
	}
	if _, ok := parseRetryAfter("soon"); ok {
		t.Fatal("garbage header parsed as usable")
	}
	future := time.Now().Add(2 * time.Second).UTC().Format(http.TimeFormat)
	if d, ok := parseRetryAfter(future); !ok || d <= 0 || d > 5*time.Second {
		t.Fatalf("parse HTTP-date = %v, %v", d, ok)
	}
	past := time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat)
	if d, ok := parseRetryAfter(past); !ok || d != 0 {
		t.Fatalf("parse past HTTP-date = %v, %v (want 0, usable)", d, ok)
	}
}

// TestBackoffGrowsExponentially: the computed delays must grow roughly
// geometrically and respect the cap, jitter notwithstanding.
func TestBackoffGrowsExponentially(t *testing.T) {
	c := New("http://unused", WithBackoff(10*time.Millisecond),
		WithMaxBackoff(60*time.Millisecond))
	for attempt, want := range []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		60 * time.Millisecond, 60 * time.Millisecond,
	} {
		for trial := 0; trial < 20; trial++ {
			d := c.delay(attempt)
			if d < want || d > want+want/2 {
				t.Fatalf("delay(%d) = %v, want in [%v, %v]", attempt, d, want, want+want/2)
			}
		}
	}
}
