package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Table-driven breaker state machine pins: each case drives a step string
// through a fresh breaker the way a real caller would (Record only after an
// admitted Allow) and checks the final state, open count, and admission.
// Steps: 'f' = admitted call fails, 'o' = admitted call succeeds (sheds are
// recorded as successes, so 'o' also models a Retry-After shed), 'a' =
// admitted call is abandoned (its caller hung up), 's' = sleep past the
// cooldown.
func TestBreakerSequences(t *testing.T) {
	const cooldown = 25 * time.Millisecond
	cases := []struct {
		name      string
		threshold int
		steps     string
		wantState string
		wantOpens int64
		wantAllow bool
	}{
		{"below threshold stays closed", 3, "ff", BreakerClosed, 0, true},
		{"success resets the failure streak", 3, "ffoff", BreakerClosed, 0, true},
		{"shed between failures resets the streak", 2, "fofofof", BreakerClosed, 0, true},
		{"threshold-th failure opens", 3, "fff", BreakerOpen, 1, false},
		{"open fails fast inside cooldown", 2, "fff", BreakerOpen, 1, false},
		{"cooldown elapses to half-open", 2, "ffs", BreakerHalfOpen, 1, true},
		{"failed probe reopens", 2, "ffsf", BreakerOpen, 2, false},
		{"successful probe closes", 2, "ffso", BreakerClosed, 1, true},
		{"one failure after recovery stays closed", 2, "ffsof", BreakerClosed, 1, true},
		{"second open needs a full fresh streak", 2, "ffsoff", BreakerOpen, 2, false},
		{"abandoned calls count nothing", 2, "faaa", BreakerClosed, 0, true},
		{"abandoned probe admits the next caller", 2, "ffsa", BreakerHalfOpen, 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBreaker(tc.threshold, cooldown)
			for i, step := range tc.steps {
				switch step {
				case 's':
					time.Sleep(cooldown + 10*time.Millisecond)
				case 'f', 'o':
					if !b.Allow() {
						// Blocked callers never Record; a real client fails
						// fast here, so the step is a no-op on breaker state.
						continue
					}
					b.Record(step == 'o')
				case 'a':
					if b.Allow() {
						b.Abandon()
					}
				default:
					t.Fatalf("step %d: unknown step %q", i, step)
				}
			}
			if got := b.State(); got != tc.wantState {
				t.Errorf("state after %q = %s, want %s", tc.steps, got, tc.wantState)
			}
			if got := b.Opens(); got != tc.wantOpens {
				t.Errorf("opens after %q = %d, want %d", tc.steps, got, tc.wantOpens)
			}
			if got := b.Allow(); got != tc.wantAllow {
				t.Errorf("Allow after %q = %v, want %v", tc.steps, got, tc.wantAllow)
			}
		})
	}
}

// TestBreakerHalfOpenAdmitsExactlyOneProbe: when the cooldown elapses,
// concurrent callers race for admission and exactly one must win — the
// half-open probe. Everyone else keeps failing fast until its outcome lands.
func TestBreakerHalfOpenAdmitsExactlyOneProbe(t *testing.T) {
	const cooldown = 20 * time.Millisecond
	b := NewBreaker(1, cooldown)
	b.Record(false)
	if b.Allow() {
		t.Fatal("open breaker admitted a call inside the cooldown")
	}
	time.Sleep(cooldown + 10*time.Millisecond)

	var admitted atomic.Int32
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if b.Allow() {
				admitted.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := admitted.Load(); got != 1 {
		t.Fatalf("half-open admitted %d concurrent probes, want exactly 1", got)
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state with probe in flight = %s, want %s", got, BreakerHalfOpen)
	}

	// The probe fails: breaker reopens and blocks immediately, even though
	// the previous cooldown already elapsed.
	b.Record(false)
	if b.Allow() {
		t.Fatal("reopened breaker admitted a call")
	}
	if got := b.Opens(); got != 2 {
		t.Fatalf("opens = %d, want 2", got)
	}

	// Next cooldown, the probe succeeds: fully closed, everyone admitted.
	time.Sleep(cooldown + 10*time.Millisecond)
	if !b.Allow() {
		t.Fatal("cooldown elapsed but probe was not admitted")
	}
	b.Record(true)
	for i := 0; i < 4; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker blocked call %d", i)
		}
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after successful probe = %s, want %s", got, BreakerClosed)
	}
}

// TestNilBreakerDisabled: threshold <= 0 yields the nil breaker, and every
// method on it must be safe and permissive — call sites have no nil checks.
func TestNilBreakerDisabled(t *testing.T) {
	for _, threshold := range []int{0, -1} {
		if b := NewBreaker(threshold, time.Second); b != nil {
			t.Fatalf("NewBreaker(%d) = %v, want nil (disabled)", threshold, b)
		}
	}
	var b *Breaker
	for i := 0; i < 5; i++ {
		if !b.Allow() {
			t.Fatal("nil breaker blocked a call")
		}
		b.Record(false)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("nil breaker state = %s, want %s", got, BreakerClosed)
	}
	if got := b.Opens(); got != 0 {
		t.Fatalf("nil breaker opens = %d, want 0", got)
	}
}

// TestMixedShedsKeepBreakerClosed drives the full Client against a server
// that alternates hard 500s with Retry-After sheds. Sheds are recorded as
// successes, so the failure streak never reaches the threshold and the
// breaker must stay closed — every request keeps reaching the server.
func TestMixedShedsKeepBreakerClosed(t *testing.T) {
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := atomic.AddInt32(&calls, 1)
		if n%2 == 1 {
			http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
			return
		}
		w.Header().Set("Retry-After", "0")
		http.Error(w, `{"error":"overloaded"}`, http.StatusTooManyRequests)
	}))
	defer srv.Close()

	c := New(srv.URL, WithRetries(0), WithBackoff(time.Millisecond),
		WithBreaker(2, time.Minute))
	ctx := context.Background()
	for i := 0; i < 12; i++ {
		err := c.Health(ctx)
		if errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("request %d failed fast: mixed sheds opened the breaker", i)
		}
		if st := c.br.State(); st != BreakerClosed {
			t.Fatalf("request %d: breaker state %s, want %s", i, st, BreakerClosed)
		}
	}
	if got := atomic.LoadInt32(&calls); got != 12 {
		t.Fatalf("server saw %d calls, want 12 (no fail-fast)", got)
	}
	ctr := c.Counters()
	if ctr.BreakerOpens != 0 {
		t.Fatalf("counters = %+v, want BreakerOpens=0", ctr)
	}
	if ctr.Shed != 6 {
		t.Fatalf("counters = %+v, want Shed=6", ctr)
	}
}
