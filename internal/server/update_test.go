package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
)

// TestReadersNotBlockedDuringRebuild is the acceptance test for the
// non-blocking write path: an insert is parked mid-update via the rebuild
// hook (after the base snapshot is derived, before the global/dynamic
// rebuilds), and while it is parked every read endpoint must answer from the
// old snapshot. Under the previous design — rebuild under the snapshot write
// lock — every one of these reads would deadlock until the hook released.
func TestReadersNotBlockedDuringRebuild(t *testing.T) {
	h, err := New(dataset.Hotels(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	h.rebuildHook = func() {
		close(entered)
		<-release
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	insDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/v1/points", "application/json",
			strings.NewReader(`{"id":99,"coords":[13,85]}`))
		if err != nil {
			insDone <- err
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			insDone <- fmt.Errorf("insert code %d", resp.StatusCode)
			return
		}
		insDone <- nil
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("insert never reached the rebuild stage")
	}

	// The update is now parked indefinitely; if readers shared its lock,
	// every request below would hang until the test timed out.
	var sky skylineResponse
	if code := getJSON(t, srv.URL+"/v1/skyline?x=10&y=80", &sky); code != 200 {
		t.Fatalf("query during rebuild: code %d", code)
	}
	if len(sky.IDs) != 3 {
		t.Fatalf("query during rebuild saw %v, want the pre-insert snapshot of 3 ids", sky.IDs)
	}
	resp, err := http.Post(srv.URL+"/v1/skyline/batch", "application/json",
		strings.NewReader(`{"kind":"global","queries":[[10,80],[20,30]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("batch during rebuild: code %d", resp.StatusCode)
	}
	var stats statsResponse
	if code := getJSON(t, srv.URL+"/v1/stats", &stats); code != 200 {
		t.Fatalf("stats during rebuild: code %d", code)
	}
	if !stats.UpdateInFlight {
		t.Fatal("stats during rebuild: update_in_flight = false, want true")
	}
	if stats.UpdateQueueDepth < 1 {
		t.Fatalf("stats during rebuild: update_queue_depth = %d, want >= 1", stats.UpdateQueueDepth)
	}
	if stats.SnapshotSwaps != 0 {
		t.Fatalf("snapshot swapped before the rebuild finished (swaps=%d)", stats.SnapshotSwaps)
	}
	if h.updateStart.Value() <= 0 {
		t.Fatal("stall gauge is zero while an update is in flight")
	}
	// A reader that raced ahead still sees the old snapshot: the swap is
	// strictly after the rebuild completes.
	select {
	case err := <-insDone:
		t.Fatalf("insert finished while parked: %v", err)
	default:
	}

	close(release)
	if err := <-insDone; err != nil {
		t.Fatal(err)
	}
	if code := getJSON(t, srv.URL+"/v1/skyline?x=10&y=80", &sky); code != 200 {
		t.Fatalf("query after rebuild: code %d", code)
	}
	if len(sky.IDs) != 2 || sky.IDs[0] != 8 || sky.IDs[1] != 99 {
		t.Fatalf("after insert ids = %v, want [8 99]", sky.IDs)
	}
	if code := getJSON(t, srv.URL+"/v1/stats", &stats); code != 200 {
		t.Fatalf("stats after rebuild: code %d", code)
	}
	if stats.SnapshotSwaps != 1 || stats.UpdateInFlight || stats.UpdateQueueDepth != 0 {
		t.Fatalf("stats after rebuild: swaps=%d in_flight=%v depth=%d, want 1/false/0",
			stats.SnapshotSwaps, stats.UpdateInFlight, stats.UpdateQueueDepth)
	}
	if stats.RebuildLatency == nil || stats.RebuildLatency.Count != 1 {
		t.Fatalf("rebuild_latency = %+v, want one observation", stats.RebuildLatency)
	}
	if h.updateStart.Value() != 0 {
		t.Fatal("stall gauge not reset after the update completed")
	}
}

// TestWritesCoalesceIntoOneBatch pins the happy path of write coalescing: a
// burst of queued writers folds into ONE maintenance pass and ONE snapshot
// swap, each writer still gets its own 201, and the coalescing metrics
// account for the batch. The writer slot is held to stage the burst
// deterministically, exactly like the chaos atomicity test.
func TestWritesCoalesceIntoOneBatch(t *testing.T) {
	h, err := New(dataset.Hotels(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	swapsBefore := h.swaps.Value()
	h.updateSlot <- struct{}{} // park the writers in the queue

	const n = 5
	statuses := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			resp, err := http.Post(srv.URL+"/v1/points", "application/json",
				strings.NewReader(fmt.Sprintf(`{"id":%d,"coords":[%d,%d]}`, 800000+i, 150+i, 150-i)))
			if err != nil {
				statuses <- -1
				return
			}
			resp.Body.Close()
			statuses <- resp.StatusCode
		}(i)
	}
	waitFor(t, time.Second, func() bool {
		h.pendMu.Lock()
		defer h.pendMu.Unlock()
		return len(h.pending) == n
	})
	<-h.updateSlot // one leader claims all n as a single batch

	for i := 0; i < n; i++ {
		if code := <-statuses; code != http.StatusCreated {
			t.Fatalf("coalesced insert: status %d, want 201", code)
		}
	}
	if got := h.swaps.Value() - swapsBefore; got != 1 {
		t.Fatalf("coalesced burst swapped %d snapshots, want exactly 1", got)
	}
	if got := h.coalesced.Value(); got != n {
		t.Fatalf("skyserve_coalesced_writes_total = %d, want %d", got, n)
	}
	snap := h.batchSize.Snapshot()
	if snap.Count != 1 || snap.Sum != n {
		t.Fatalf("batch size histogram: count=%d sum=%g, want one batch of %d", snap.Count, snap.Sum, n)
	}
	// All five landed: they form an anti-chain in the quadrant above
	// (149.5, 145.5), well outside the hotel data, so the query returns
	// exactly the five batch inserts.
	var sky skylineResponse
	if code := getJSON(t, srv.URL+"/v1/skyline?x=149.5&y=145.5", &sky); code != 200 {
		t.Fatalf("query after coalesced batch: code %d", code)
	}
	if len(sky.IDs) != n {
		t.Fatalf("query after coalesced batch = %v, want the %d batch inserts", sky.IDs, n)
	}
}

// TestBatchBodyLimitBoundaries pins the body-cap derivation: the default
// MaxBatch stays on the 4 MiB floor, and a larger MaxBatch raises the cap
// proportionally instead of 413-ing legitimate requests.
func TestBatchBodyLimitBoundaries(t *testing.T) {
	cases := []struct {
		maxBatch int
		want     int64
	}{
		{8192, minBatchBody},  // default: well under the floor
		{65536, minBatchBody}, // 65536*64+4096 = 4 MiB + 4096... see below
		{1 << 20, int64(1<<20)*maxBatchQueryBytes + 4096},
	}
	// 65536 queries * 64 bytes = exactly 4 MiB, so +4096 crosses the floor.
	cases[1].want = int64(65536)*maxBatchQueryBytes + 4096
	for _, c := range cases {
		if got := batchBodyLimit(c.maxBatch); got != c.want {
			t.Errorf("batchBodyLimit(%d) = %d, want %d", c.maxBatch, got, c.want)
		}
	}
	if batchBodyLimit(1) != minBatchBody {
		t.Error("tiny MaxBatch must keep the floor")
	}
}

// TestBatchBodyCapScalesWithMaxBatch sends the same >4 MiB body to a server
// configured for large batches (accepted) and to a default one (413 at the
// old fixed cap).
func TestBatchBodyCapScalesWithMaxBatch(t *testing.T) {
	pts := dataset.Hotels()
	const n = 700_000 // ~5.6 MiB of "[10,80]," — past the 4 MiB floor
	var sb strings.Builder
	sb.Grow(n*8 + 64)
	sb.WriteString(`{"kind":"quadrant","queries":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`[10,80]`)
	}
	sb.WriteString(`]}`)
	body := sb.String()
	if int64(len(body)) <= minBatchBody {
		t.Fatalf("test body only %d bytes, need > %d", len(body), minBatchBody)
	}

	big, err := New(pts, Config{MaxBatch: 1 << 20, MaxDynamicPoints: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	big.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/skyline/batch", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("large-MaxBatch server rejected a %d-byte body: code %d", len(body), rec.Code)
	}

	def, err := New(pts, Config{MaxDynamicPoints: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	def.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/skyline/batch", strings.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("default server accepted a %d-byte body: code %d", len(body), rec.Code)
	}
}

// ackEpoch is one write's answer: its status and X-Sky-Epoch header.
type ackEpoch struct {
	code  int
	epoch string
}

// sendWrite sends one insert (body set) or delete to base and returns its
// status and epoch header; a transport error is status -1.
func sendWrite(base, method, path, body string) ackEpoch {
	req, err := http.NewRequest(method, base+path, strings.NewReader(body))
	if err != nil {
		return ackEpoch{code: -1}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return ackEpoch{code: -1}
	}
	resp.Body.Close()
	return ackEpoch{resp.StatusCode, resp.Header.Get("X-Sky-Epoch")}
}

// readEpoch queries the quadrant skyline at (x, y) on base and returns the
// epoch that answered and the answer's ids.
func readEpoch(t *testing.T, base string, x, y float64) (string, []int32) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/skyline?x=%g&y=%g", base, x, y))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sky skylineResponse
	if err := json.NewDecoder(resp.Body).Decode(&sky); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("read (%g,%g): status %d, %v", x, y, resp.StatusCode, err)
	}
	return resp.Header.Get("X-Sky-Epoch"), sky.IDs
}

// TestWriteAckCarriesBatchEpoch: an applied insert or delete answers with
// X-Sky-Epoch set to the epoch of the batch that applied it — the first
// epoch whose read holds the write — and a rejected op answers with none.
// A lone write gets the epoch after the one before it; ops coalesced into
// one batch all get that batch's epoch.
func TestWriteAckCarriesBatchEpoch(t *testing.T) {
	h, err := New(dataset.Hotels(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	// Lone writes: (200,200) is the whole skyline above (199.5,199.5) once
	// inserted, and nothing is there before or after its delete.
	e0, ids := readEpoch(t, srv.URL, 199.5, 199.5)
	if len(ids) != 0 || e0 != "1" {
		t.Fatalf("before the insert: epoch %s, ids %v", e0, ids)
	}
	ack := sendWrite(srv.URL, http.MethodPost, "/v1/points", `{"id":700000,"coords":[200,200]}`)
	if ack != (ackEpoch{http.StatusCreated, "2"}) {
		t.Fatalf("lone insert ack = %+v, want 201 at epoch 2", ack)
	}
	if e, ids := readEpoch(t, srv.URL, 199.5, 199.5); e != "2" || len(ids) != 1 || ids[0] != 700000 {
		t.Fatalf("after the insert: epoch %s, ids %v, want epoch 2 holding 700000", e, ids)
	}
	ack = sendWrite(srv.URL, http.MethodDelete, "/v1/points/700000", "")
	if ack != (ackEpoch{http.StatusOK, "3"}) {
		t.Fatalf("lone delete ack = %+v, want 200 at epoch 3", ack)
	}
	if e, ids := readEpoch(t, srv.URL, 199.5, 199.5); e != "3" || len(ids) != 0 {
		t.Fatalf("after the delete: epoch %s, ids %v, want epoch 3 without 700000", e, ids)
	}

	// One batch: four inserts, a duplicate insert and a delete of an absent
	// id, parked in the queue and applied together.
	h.updateSlot <- struct{}{}
	type write struct{ method, path, body string }
	writes := []write{
		{http.MethodPost, "/v1/points", `{"id":1,"coords":[5,5]}`},
		{http.MethodDelete, "/v1/points/123456", ""},
	}
	for i := 0; i < 4; i++ {
		writes = append(writes, write{http.MethodPost, "/v1/points",
			fmt.Sprintf(`{"id":%d,"coords":[%d,%d]}`, 800000+i, 150+i, 150-i)})
	}
	acks := make([]chan ackEpoch, len(writes))
	for i, w := range writes {
		acks[i] = make(chan ackEpoch, 1)
		go func() { acks[i] <- sendWrite(srv.URL, w.method, w.path, w.body) }()
	}
	waitFor(t, time.Second, func() bool {
		h.pendMu.Lock()
		defer h.pendMu.Unlock()
		return len(h.pending) == len(writes)
	})
	if e, ids := readEpoch(t, srv.URL, 149.5, 145.5); e != "3" || len(ids) != 0 {
		t.Fatalf("batch queued: epoch %s, ids %v, want epoch 3 without the batch", e, ids)
	}
	<-h.updateSlot
	want := []ackEpoch{{http.StatusConflict, ""}, {http.StatusNotFound, ""}}
	for range 4 {
		want = append(want, ackEpoch{http.StatusCreated, "4"})
	}
	for i, ch := range acks {
		if got := <-ch; got != want[i] {
			t.Errorf("%s %s %s: ack %+v, want %+v", writes[i].method, writes[i].path, writes[i].body, got, want[i])
		}
	}
	if e, ids := readEpoch(t, srv.URL, 149.5, 145.5); e != "4" || len(ids) != 4 {
		t.Fatalf("after the batch: epoch %s, ids %v, want epoch 4 holding the 4 inserts", e, ids)
	}
}
