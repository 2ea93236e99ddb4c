package router

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/server"
	"repro/internal/store"
)

// restartable serves one handler on a fixed address so it can be killed and
// brought back mid-test — the serving-layer equivalent of a replica process
// dying and restarting on its well-known port.
type restartable struct {
	handler http.Handler
	addr    string
	mu      sync.Mutex
	srv     *http.Server
}

func newRestartable(t *testing.T, h http.Handler) *restartable {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rs := &restartable{handler: h, addr: ln.Addr().String()}
	rs.serve(ln)
	t.Cleanup(rs.kill)
	return rs
}

func (rs *restartable) serve(ln net.Listener) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.srv = &http.Server{Handler: rs.handler}
	go rs.srv.Serve(ln)
}

func (rs *restartable) kill() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.srv != nil {
		rs.srv.Close()
		rs.srv = nil
	}
}

// restart rebinds the replica's address; the OS may hold the port briefly
// after the close, so it retries.
func (rs *restartable) restart() error {
	var err error
	for attempt := 0; attempt < 100; attempt++ {
		var ln net.Listener
		ln, err = net.Listen("tcp", rs.addr)
		if err == nil {
			rs.serve(ln)
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("rebind %s: %w", rs.addr, err)
}

func (rs *restartable) url() string { return "http://" + rs.addr }

func chaosPoints(n int) []geom.Point {
	rnd := rand.New(rand.NewSource(7))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{ID: i + 1, Coords: []float64{
			float64(rnd.Intn(1000)) / 10, float64(rnd.Intn(1000)) / 10}}
	}
	return pts
}

// TestChaosReplicaKillFailover is the scale-out tier's correctness gate: a
// builder applying writes, two replicas pulling epoch-stamped snapshots
// (one deliberately slow, so propagation lag is always present), and a
// router failing over — while replicas are killed and restarted under
// traffic. The invariant: every routed 200 is byte-identical to what the
// snapshot it claims to come from (X-Sky-Epoch) answers, for an epoch the
// builder actually published. Sheds and 503s are allowed and attributed;
// wrong or torn answers are not.
//
// The catch-up path is deliberately mixed-mode: half the writes reuse
// existing coordinate values (grid shape stable, so those epochs propagate
// as page deltas) and half add fresh grid lines (near-total rewrites that
// must fall back to full streams), while the builder's manifest ring is kept
// shallow so the slow replica's multi-epoch lag forces ring misses. The
// byte-check above applies unchanged to every response — replicas that
// caught up by patching must be indistinguishable from ones that fetched
// full files.
func TestChaosReplicaKillFailover(t *testing.T) {
	pts := chaosPoints(150)
	h, err := server.New(pts, server.Config{MaxDynamicPoints: 1, DeltaRing: 2})
	if err != nil {
		t.Fatal(err)
	}
	builder := httptest.NewServer(h)
	defer builder.Close()

	// published records the exact bytes of every epoch the builder serves.
	// The test is the only writer and records synchronously after each
	// write, so the map is complete before verification reads it.
	published := map[uint64][]byte{}
	record := func(wantEpoch uint64) {
		t.Helper()
		resp, err := http.Get(builder.URL + "/v1/snapshot")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		e, err := strconv.ParseUint(resp.Header.Get("X-Sky-Epoch"), 10, 64)
		if err != nil || e != wantEpoch {
			t.Fatalf("snapshot epoch header %q, want %d", resp.Header.Get("X-Sky-Epoch"), wantEpoch)
		}
		published[e] = body
	}
	record(1)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	reps := make([]*restartable, 2)
	for i := range reps {
		interval := 40 * time.Millisecond
		if i == 1 {
			// The second replica refreshes slowly: snapshot propagation is
			// permanently delayed for it, so the pool is mixed-epoch for
			// most of the test.
			interval = 400 * time.Millisecond
		}
		rh, rep, err := server.BootstrapReplica(ctx, server.ReplicaConfig{
			Primary:  builder.URL,
			Dir:      t.TempDir(),
			Interval: interval,
		}, server.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer rep.Close()
		go rep.Run(ctx)
		reps[i] = newRestartable(t, rh)
	}

	rt, err := New(Config{
		Replicas:         []string{reps[0].url(), reps[1].url()},
		Primary:          builder.URL,
		HealthInterval:   40 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  150 * time.Millisecond,
		StaleEpochs:      1 << 30, // lag is expected here; don't demote for it
	})
	if err != nil {
		t.Fatal(err)
	}
	go rt.Run(ctx)
	front := httptest.NewServer(rt)
	defer front.Close()

	type obs struct {
		method string
		path   string
		body   string
		status int
		epoch  uint64
		resp   []byte
	}
	var (
		obsMu    sync.Mutex
		observed []obs
		netErrs  int
	)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rnd := rand.New(rand.NewSource(seed))
			httpc := &http.Client{Timeout: 5 * time.Second}
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				x := float64(rnd.Intn(1000)) / 10
				y := float64(rnd.Intn(1000)) / 10
				var (
					resp *http.Response
					err  error
					o    obs
				)
				if n%8 == 7 {
					o.method = http.MethodPost
					o.path = "/v1/skyline/batch"
					o.body = fmt.Sprintf(`{"kind":"quadrant","queries":[[%g,%g],[%g,%g]]}`,
						x, y, y, x)
					resp, err = httpc.Post(front.URL+o.path, "application/json",
						strings.NewReader(o.body))
				} else {
					o.method = http.MethodGet
					o.path = fmt.Sprintf("/v1/skyline?x=%g&y=%g", x, y)
					resp, err = httpc.Get(front.URL + o.path)
				}
				if err != nil {
					obsMu.Lock()
					netErrs++
					obsMu.Unlock()
					continue
				}
				data, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil {
					obsMu.Lock()
					netErrs++
					obsMu.Unlock()
					continue
				}
				o.status = resp.StatusCode
				o.epoch, _ = strconv.ParseUint(resp.Header.Get("X-Sky-Epoch"), 10, 64)
				o.resp = data
				obsMu.Lock()
				observed = append(observed, o)
				obsMu.Unlock()
				time.Sleep(time.Millisecond)
			}
		}(int64(g) + 1)
	}

	// Chaos: kill and restart replicas, alternating victims, while writes
	// advance the epoch.
	chaosErr := make(chan error, 1)
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		rnd := rand.New(rand.NewSource(99))
		for i := 0; i < 6; i++ {
			victim := reps[i%2]
			victim.kill()
			time.Sleep(time.Duration(100+rnd.Intn(150)) * time.Millisecond)
			if err := victim.restart(); err != nil {
				select {
				case chaosErr <- err:
				default:
				}
				return
			}
			time.Sleep(time.Duration(100+rnd.Intn(150)) * time.Millisecond)
		}
	}()

	// Odd writes land just past the current max-x edge at an existing y
	// value: the point is immediately dominated, so it joins no result list
	// and only appends a trailing grid column — those epochs ship as small
	// deltas. Even writes use fresh interior coordinates, which re-index
	// everything and must fall back to full streams.
	maxX, yAtMaxX := -1.0, 0.0
	for _, p := range pts {
		if p.Coords[0] > maxX {
			maxX, yAtMaxX = p.Coords[0], p.Coords[1]
		}
	}
	for i := 0; i < 10; i++ {
		x, y := float64((i*37)%100), float64((i*53)%100)
		if i%2 == 1 {
			x, y = maxX+float64(i), yAtMaxX
		}
		body := fmt.Sprintf(`{"id":%d,"coords":[%g,%g]}`, 1000+i, x, y)
		resp, err := http.Post(builder.URL+"/v1/points", "application/json",
			strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("chaos write %d: status %d", i, resp.StatusCode)
		}
		record(uint64(2 + i))
		time.Sleep(250 * time.Millisecond)
	}

	<-chaosDone
	select {
	case err := <-chaosErr:
		t.Fatal(err)
	default:
	}
	close(stop)
	readers.Wait()
	cancel()

	// Build one reference handler per published epoch from the recorded
	// bytes and replay every 200 against the snapshot it claims.
	refs := map[uint64]http.Handler{}
	for e, b := range published {
		st, err := store.New(b)
		if err != nil {
			t.Fatalf("published epoch %d does not open: %v", e, err)
		}
		rh, err := server.NewServeFrom(st, server.Config{})
		if err != nil {
			t.Fatal(err)
		}
		refs[e] = rh
	}

	statusCounts := map[int]int{}
	epochsSeen := map[uint64]int{}
	wrong := 0
	for _, o := range observed {
		statusCounts[o.status]++
		switch {
		case o.status == http.StatusOK:
			ref, ok := refs[o.epoch]
			if !ok {
				t.Errorf("200 %s %s claims unpublished epoch %d", o.method, o.path, o.epoch)
				wrong++
				continue
			}
			epochsSeen[o.epoch]++
			var req *http.Request
			if o.method == http.MethodPost {
				req = httptest.NewRequest(o.method, o.path, strings.NewReader(o.body))
				req.Header.Set("Content-Type", "application/json")
			} else {
				req = httptest.NewRequest(o.method, o.path, nil)
			}
			rec := httptest.NewRecorder()
			ref.ServeHTTP(rec, req)
			if !bytes.Equal(rec.Body.Bytes(), o.resp) {
				wrong++
				if wrong <= 3 {
					t.Errorf("wrong answer at epoch %d for %s %s:\n got %s\nwant %s",
						o.epoch, o.method, o.path, o.resp, rec.Body.Bytes())
				}
			}
		case o.status == http.StatusTooManyRequests, o.status == http.StatusServiceUnavailable:
			// Sheds and no-replica windows are allowed; they are attributed
			// in statusCounts below, never silently dropped.
		default:
			t.Errorf("unexpected status %d for %s %s: %s", o.status, o.method, o.path, o.resp)
		}
	}
	if wrong > 0 {
		t.Fatalf("%d wrong answers out of %d responses", wrong, len(observed))
	}
	if statusCounts[http.StatusOK] == 0 {
		t.Fatal("no successful reads at all — the tier never served")
	}
	maxEpoch := uint64(0)
	for e := range epochsSeen {
		if e > maxEpoch {
			maxEpoch = e
		}
	}
	if maxEpoch < 2 {
		t.Fatalf("no post-write epoch was ever served (max %d): replication never propagated", maxEpoch)
	}
	deltaHits := h.Metrics().Counter("skyserve_snapshot_delta_hits_total", "").Value()
	if deltaHits == 0 {
		t.Fatal("no replica ever caught up via a delta body")
	}
	var fallbacks int64
	fallbackByReason := map[string]int64{}
	if v := h.Metrics().Counter("skyserve_snapshot_delta_fallbacks_total", "", "reason", "mismatch").Value(); v != 0 {
		t.Fatalf("%d polls streamed bytes that differ from the manifest recorded at publish", v)
	}
	for _, reason := range []string{"ring_miss", "not_smaller"} {
		v := h.Metrics().Counter("skyserve_snapshot_delta_fallbacks_total", "", "reason", reason).Value()
		fallbacks += v
		if v > 0 {
			fallbackByReason[reason] = v
		}
	}
	if fallbacks == 0 {
		t.Fatal("chaos never exercised a delta fallback — the mixed workload is broken")
	}
	t.Logf("chaos summary: %d responses (%v by status), %d net errors, epochs served %v, failovers %d, no-replica %d, delta hits %d, fallbacks %v",
		len(observed), statusCounts, netErrs, epochsSeen, rt.failovers.Value(), rt.noReplica.Value(), deltaHits, fallbackByReason)
}
