package main

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
)

// streamWriter is a ResponseWriter that checks the body against want as it
// arrives, without keeping it, and records the write deadline it was given.
type streamWriter struct {
	header   http.Header
	want     []byte
	n        int
	mismatch bool
	code     int
	deadline time.Time
}

func (w *streamWriter) Header() http.Header { return w.header }

func (w *streamWriter) WriteHeader(code int) { w.code = code }

func (w *streamWriter) Write(p []byte) (int, error) {
	if w.n+len(p) > len(w.want) || !bytes.Equal(p, w.want[w.n:w.n+len(p)]) {
		w.mismatch = true
	}
	w.n += len(p)
	return len(p), nil
}

func (w *streamWriter) SetWriteDeadline(t time.Time) error {
	w.deadline = t
	return nil
}

// TestWithTimeoutStreamsSnapshots pins the routing of withTimeout: a
// snapshot body reaches the client byte-identical without being buffered a
// second time, under a write deadline, while a JSON route that outlasts the
// timeout still gets the wrapper's 503.
func TestWithTimeoutStreamsSnapshots(t *testing.T) {
	body := make([]byte, 2<<20)
	rand.New(rand.NewSource(1)).Read(body)
	fake := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/snapshot" {
			// Like the real handler, encode a fresh copy per request.
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write(bytes.Clone(body))
			return
		}
		<-r.Context().Done() // a JSON route slower than the timeout
	})
	const timeout = 50 * time.Millisecond
	h := withTimeout(fake, timeout)

	const polls = 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for k := 0; k < polls; k++ {
		w := &streamWriter{header: http.Header{}, want: body}
		start := time.Now()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/snapshot?from=3", nil))
		if w.mismatch || w.n != len(body) {
			t.Fatalf("snapshot body: %d bytes, mismatch %v; want %d identical bytes", w.n, w.mismatch, len(body))
		}
		if w.code != 0 && w.code != http.StatusOK {
			t.Fatalf("snapshot status %d", w.code)
		}
		if w.deadline.Before(start.Add(timeout)) || w.deadline.After(time.Now().Add(timeout)) {
			t.Fatalf("snapshot write deadline %v, want -request-timeout after the request", w.deadline)
		}
	}
	runtime.ReadMemStats(&after)
	if ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(polls*len(body)); ratio >= 1.25 {
		t.Fatalf("a snapshot poll allocated %.2fx its body, want under 1.25x (no buffering wrapper)", ratio)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/skyline?x=1&y=1", nil))
	if rec.Code != http.StatusServiceUnavailable || rec.Body.String() != `{"error":"request timed out"}` {
		t.Fatalf("slow JSON route: %d %q, want the timeout wrapper's 503", rec.Code, rec.Body.String())
	}
}
