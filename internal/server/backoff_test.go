package server

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/store"
)

// TestReplicaBackoffOnFetchErrors drives the poll loop through an injected
// clock: consecutive fetch failures must grow the delay exponentially with
// jitter in [base/2, base], cap at MaxBackoff, and one success must snap it
// back to the configured interval. No real time passes.
func TestReplicaBackoffOnFetchErrors(t *testing.T) {
	captureLog(t)
	builder, _ := newTestServer(t)
	var failing atomic.Bool
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			http.Error(w, "primary down", http.StatusInternalServerError)
			return
		}
		builder.Config.Handler.ServeHTTP(w, r)
	}))
	t.Cleanup(proxy.Close)

	const interval = time.Second
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, rep, err := BootstrapReplica(ctx, ReplicaConfig{
		Primary:    proxy.URL,
		Dir:        t.TempDir(),
		Interval:   interval,
		MaxBackoff: 8 * interval,
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() })

	// Deterministic jitter, plus a two-phase clock seam: Run announces each
	// delay, then blocks until the test releases it — so the test configures
	// the primary's behavior strictly before the refresh that observes it.
	rep.rng = rand.New(rand.NewSource(7))
	delays := make(chan time.Duration)
	proceed := make(chan struct{})
	rep.after = func(d time.Duration) <-chan time.Time {
		delays <- d
		<-proceed
		ch := make(chan time.Time, 1)
		ch <- time.Time{}
		return ch
	}
	done := make(chan struct{})
	go func() {
		rep.Run(ctx)
		close(done)
	}()
	step := func(setFailing *bool) time.Duration {
		t.Helper()
		d := <-delays
		if setFailing != nil {
			failing.Store(*setFailing)
		}
		proceed <- struct{}{}
		return d
	}
	boolp := func(b bool) *bool { return &b }

	// Healthy: the first two polls wait exactly the interval (the second
	// proves a 304 keeps consecFails at zero).
	if d := step(nil); d != interval {
		t.Fatalf("healthy delay = %v, want %v", d, interval)
	}
	if d := step(boolp(true)); d != interval {
		t.Fatalf("healthy delay after 304 = %v, want %v", d, interval)
	}
	// Failure ladder: bases 2s, 4s, 8s, then capped at 8s; jitter keeps each
	// draw within [base/2, base].
	wantBase := []time.Duration{2 * interval, 4 * interval, 8 * interval, 8 * interval}
	for i, base := range wantBase {
		set := (*bool)(nil)
		if i == len(wantBase)-1 {
			set = boolp(false) // recover before the last failure's delay fires
		}
		d := step(set)
		if d < base/2 || d > base {
			t.Fatalf("failure %d: delay %v outside [%v, %v]", i+1, d, base/2, base)
		}
	}
	// Recovery: the success (304) resets straight back to the interval.
	if d := step(nil); d != interval {
		t.Fatalf("delay after recovery = %v, want %v", d, interval)
	}

	cancel()
	for {
		select {
		case <-delays:
			proceed <- struct{}{}
		case <-done:
			return
		}
	}
}

// TestSnapshotNegotiationRacingSwap hammers /v1/snapshot while writers swap
// epochs underneath: every 200 must be internally consistent — the streamed
// bytes open as a store whose epoch matches both the X-Sky-Epoch header and
// the ETag. An epoch bump landing mid-request must never mix generations.
func TestSnapshotNegotiationRacingSwap(t *testing.T) {
	hotels := dataset.Hotels()
	h, err := New(hotels, Config{MaxDynamicPoints: 12})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	stop := make(chan struct{})
	var writerErr atomic.Value
	var writerWG, readerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := 880000 + i
			if code := doInsert(h, id, float64(i%50)+0.5, float64(i%60)+0.5); code != 201 {
				writerErr.Store(fmt.Sprintf("insert %d: code %d", id, code))
				return
			}
			if code := doDelete(h, id); code != 200 {
				writerErr.Store(fmt.Sprintf("delete %d: code %d", id, code))
				return
			}
		}
	}()

	const readers = 4
	const fetches = 40
	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for i := 0; i < fetches; i++ {
				resp, err := http.Get(srv.URL + "/v1/snapshot")
				if err != nil {
					errs <- fmt.Sprintf("snapshot fetch: %v", err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- fmt.Sprintf("snapshot read: %v", err)
					return
				}
				epochHdr, etag := resp.Header.Get("X-Sky-Epoch"), resp.Header.Get("ETag")
				if resp.StatusCode != 200 {
					errs <- fmt.Sprintf("snapshot code %d", resp.StatusCode)
					return
				}
				epoch, err := strconv.ParseUint(epochHdr, 10, 64)
				if err != nil {
					errs <- fmt.Sprintf("bad epoch header %q", epochHdr)
					return
				}
				if want := snapshotETag(epoch); etag != want {
					errs <- fmt.Sprintf("etag %s does not match header epoch %d (want %s)", etag, epoch, want)
					return
				}
				st, err := store.New(body)
				if err != nil {
					errs <- fmt.Sprintf("epoch %d: body does not open: %v", epoch, err)
					return
				}
				if st.Epoch() != epoch {
					errs <- fmt.Sprintf("streamed bytes carry epoch %d, headers said %d", st.Epoch(), epoch)
					return
				}
			}
		}()
	}
	// Readers run a fixed fetch count; once they finish, stop the writer and
	// surface any failure from either side.
	readerWG.Wait()
	close(stop)
	writerWG.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	if msg := writerErr.Load(); msg != nil {
		t.Fatal(msg)
	}
}
