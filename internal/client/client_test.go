package client

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/server"
)

func newService(t *testing.T) *Client {
	t.Helper()
	h, err := server.New(dataset.Hotels(), server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return New(srv.URL)
}

func TestEndToEnd(t *testing.T) {
	c := newService(t)
	ctx := context.Background()

	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Points != 11 || st.Cells != 144 || !st.DynamicEnabled {
		t.Fatalf("stats = %+v", st)
	}

	for kind, want := range map[string][]int32{
		"quadrant": {3, 8, 10},
		"global":   {3, 6, 8, 10, 11},
		"dynamic":  {6, 11},
	} {
		res, err := c.Skyline(ctx, kind, 10, 80)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(res.IDs) != len(want) {
			t.Fatalf("%s: ids %v want %v", kind, res.IDs, want)
		}
		for i := range want {
			if res.IDs[i] != want[i] {
				t.Fatalf("%s: ids %v want %v", kind, res.IDs, want)
			}
		}
		if len(res.Points) != len(res.IDs) {
			t.Fatalf("%s: points/ids mismatch", kind)
		}
	}

	// Insert changes the answer; delete restores it.
	if err := c.Insert(ctx, geom.Pt2(99, 13, 85)); err != nil {
		t.Fatal(err)
	}
	res, err := c.Skyline(ctx, "quadrant", 10, 80)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 2 || res.IDs[1] != 99 {
		t.Fatalf("after insert: %v", res.IDs)
	}
	if err := c.Delete(ctx, 99); err != nil {
		t.Fatal(err)
	}
	res, err = c.Skyline(ctx, "quadrant", 10, 80)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 3 {
		t.Fatalf("after delete: %v", res.IDs)
	}
}

func TestAPIErrorsSurfaceMessages(t *testing.T) {
	c := newService(t)
	ctx := context.Background()
	_, err := c.Skyline(ctx, "nope", 1, 1)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("want 400 APIError, got %v", err)
	}
	if apiErr.Message == "" {
		t.Fatal("server message lost")
	}
	if err := c.Delete(ctx, 424242); err == nil {
		t.Fatal("missing delete must fail")
	}
	if err := c.Insert(ctx, geom.Pt2(3, 1, 1)); err == nil {
		t.Fatal("duplicate id must conflict")
	}
}

func TestRetriesOnTransientFailures(t *testing.T) {
	var calls int32
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) <= 2 {
			http.Error(w, `{"error":"try later"}`, http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer flaky.Close()
	c := New(flaky.URL, WithRetries(3), WithBackoff(time.Millisecond))
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("retried health failed: %v", err)
	}
	if got := atomic.LoadInt32(&calls); got != 3 {
		t.Fatalf("expected 3 attempts, got %d", got)
	}

	// Exhausted retries surface the last error.
	atomic.StoreInt32(&calls, -100)
	c2 := New(flaky.URL, WithRetries(1), WithBackoff(time.Millisecond))
	if err := c2.Health(context.Background()); err == nil {
		t.Fatal("persistent 5xx must fail")
	}
}

func TestContextCancellation(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(200 * time.Millisecond)
	}))
	defer slow.Close()
	c := New(slow.URL, WithRetries(0))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := c.Health(ctx); err == nil {
		t.Fatal("cancelled request must fail")
	}
}

func TestNetworkErrorRetry(t *testing.T) {
	// Nothing listens here: every attempt is a network error.
	c := New("http://127.0.0.1:1", WithRetries(2), WithBackoff(time.Millisecond))
	start := time.Now()
	err := c.Health(context.Background())
	if err == nil {
		t.Fatal("unreachable service must fail")
	}
	if time.Since(start) < 2*time.Millisecond {
		t.Fatal("retries with backoff should have taken at least two backoffs")
	}
}

// A Content-Length is trusted only up to the pooled size: a length of
// 2^63-1 on a short body is a read error, not a panic sizing the buffer,
// and no announced length allocates more than the pool's size before the
// bytes arrive.
func TestReadBodyBoundsContentLength(t *testing.T) {
	for _, size := range []int64{1 << 20, math.MaxInt64} {
		bp, err := ReadBody(strings.NewReader("short"), size, math.MaxInt)
		if err != nil || string(*bp) != "short" || cap(*bp) > maxPooledBody {
			t.Fatalf("size %d: read %q into cap %d, %v; want \"short\" within %d bytes",
				size, *bp, cap(*bp), err, maxPooledBody)
		}
		ReleaseBody(bp)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.FormatInt(math.MaxInt64, 10))
		w.Write([]byte(`{"kind":"quadrant"`))
	}))
	defer srv.Close()
	if res, err := New(srv.URL, WithRetries(0)).Skyline(context.Background(), "quadrant", 1, 2); err == nil {
		t.Fatalf("a short body under a 2^63-1 length decoded as %+v", res)
	}
}
