package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/server"
)

// TestRouterWriteAckCarriesBuilderEpoch: a write through the router answers
// with the X-Sky-Epoch of the builder batch that applied it — the first
// epoch whose builder read holds the write — for a lone write and for ops
// coalesced into one batch, and a rejected write carries none.
func TestRouterWriteAckCarriesBuilderEpoch(t *testing.T) {
	defer faultinject.Deactivate()
	h, err := server.New(dataset.Hotels(), server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	builder := httptest.NewServer(h)
	defer builder.Close()
	front := httptest.NewServer(newTestRouter(t, Config{Replicas: []string{builder.URL}, Primary: builder.URL}))
	defer front.Close()

	type ack struct {
		code  int
		epoch string
	}
	write := func(method, path, body string) ack {
		req, err := http.NewRequest(method, front.URL+path, strings.NewReader(body))
		if err != nil {
			return ack{code: -1}
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return ack{code: -1}
		}
		resp.Body.Close()
		return ack{resp.StatusCode, resp.Header.Get("X-Sky-Epoch")}
	}
	// read asks the builder itself, which serves every epoch as it applies it.
	read := func(x, y float64) (string, []int32) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/v1/skyline?x=%g&y=%g", builder.URL, x, y))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sky struct {
			IDs []int32 `json:"ids"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&sky); err != nil {
			t.Fatal(err)
		}
		return resp.Header.Get("X-Sky-Epoch"), sky.IDs
	}

	// A lone insert: epoch 1 lacks it, its ack says 2, and 2 holds it.
	if e, ids := read(199.5, 199.5); e != "1" || len(ids) != 0 {
		t.Fatalf("before the insert: epoch %s, ids %v", e, ids)
	}
	if got := write(http.MethodPost, "/v1/points", `{"id":700000,"coords":[200,200]}`); got != (ack{http.StatusCreated, "2"}) {
		t.Fatalf("lone insert through the router: %+v, want 201 at epoch 2", got)
	}
	if e, ids := read(199.5, 199.5); e != "2" || len(ids) != 1 || ids[0] != 700000 {
		t.Fatalf("after the insert: epoch %s, ids %v", e, ids)
	}
	if got := write(http.MethodPost, "/v1/points", `{"id":700000,"coords":[1,1]}`); got != (ack{http.StatusConflict, ""}) {
		t.Fatalf("duplicate insert through the router: %+v, want 409 with no epoch", got)
	}

	// Coalesced: the first batch, a lone delete, stalls in the builder
	// while four inserts queue behind it; the next batch applies all four.
	if err := faultinject.Activate("server.update.coalesce=latency:1s#1"); err != nil {
		t.Fatal(err)
	}
	first := make(chan ack, 1)
	go func() { first <- write(http.MethodDelete, "/v1/points/700000", "") }()
	waitQueue := func(n int) {
		t.Helper()
		deadline := time.Now().Add(time.Second)
		for {
			var st struct {
				Depth int `json:"update_queue_depth"`
			}
			resp, err := http.Get(builder.URL + "/v1/stats")
			if err != nil {
				t.Fatal(err)
			}
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if st.Depth == n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("builder queue depth %d, want %d", st.Depth, n)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitQueue(1)
	rest := make([]chan ack, 4)
	for i := range rest {
		rest[i] = make(chan ack, 1)
		go func() {
			rest[i] <- write(http.MethodPost, "/v1/points", fmt.Sprintf(`{"id":%d,"coords":[%d,%d]}`, 800000+i, 150+i, 150-i))
		}()
	}
	waitQueue(5)
	if e, ids := read(149.5, 145.5); e != "2" || len(ids) != 1 || ids[0] != 700000 {
		t.Fatalf("batch queued: epoch %s, ids %v, want epoch 2 holding only 700000", e, ids)
	}
	if got := <-first; got != (ack{http.StatusOK, "3"}) {
		t.Fatalf("stalled delete through the router: %+v, want 200 at epoch 3", got)
	}
	for i, ch := range rest {
		if got := <-ch; got != (ack{http.StatusCreated, "4"}) {
			t.Errorf("coalesced insert %d through the router: %+v, want 201 at epoch 4", i, got)
		}
	}
	if e, ids := read(149.5, 145.5); e != "4" || len(ids) != 4 {
		t.Fatalf("after the batch: epoch %s, ids %v, want epoch 4 holding the 4 inserts", e, ids)
	}
}
