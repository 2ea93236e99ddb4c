package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/server"
)

// workload is one traffic mix against one topology. drive runs the load on
// r's schedule and returns its measured streams; op names the stream of the
// workload's own operation.
type workload struct {
	name  string
	why   string
	op    string
	topo  topoSpec
	drive func(r *runner) streams
}

// streams are one run's measured samples by request type: "read" (single
// queries), "batch", "write" (from send or due time to the write's ack) and
// "visible" (from a write's due time until a routed read answers at its
// epoch). A workload fills the types it issues.
type streams map[string]*series

var workloads = []*workload{
	{
		name: "read-routed",
		why:  "routed quadrant reads through router and mmap replica at n=1024 (12 MB file, larger than L2); core maintenance and WAL idle",
		op:   "read",
		topo: topoSpec{n: 1024, replicated: true},
		drive: func(r *runner) streams {
			s := r.parallel(
				func() *series { return r.readStream(0, 1000, []string{"quadrant"}) },
				func() *series { return r.readStream(1, 1000, []string{"quadrant"}) },
			)
			s[0].merge(s[1])
			return streams{"read": s[0]}
		},
	},
	{
		name: "batch-kinds",
		why:  "256-query batches rotating quadrant, global, dynamic on the builder at n=128 (dynamic on, file fits L2): JSON decode, QueryXY, batch encoder",
		op:   "batch",
		topo: topoSpec{n: 128},
		drive: func(r *runner) streams {
			return streams{"batch": r.batchStream(0)}
		},
	},
	{
		name: "write-durable",
		why:  "closed-loop insert/delete churn on a WAL builder at n=400 with frequent checkpoints, next to quadrant and global reads; no replica",
		op:   "write",
		topo: topoSpec{n: 400, walCheckpointBytes: 2048},
		drive: func(r *runner) streams {
			s := r.parallel(
				func() *series { return r.writeStream(0) },
				func() *series { return r.readStream(1, 500, []string{"quadrant", "global"}) },
			)
			return streams{"write": s[0], "read": s[1]}
		},
	},
	{
		name: "replica-catchup",
		why:  "write until a routed read sees it: trailing-edge toggles, Refresh with delta catch-up, at n=400, next to routed reads",
		op:   "visible",
		topo: topoSpec{n: 400, walCheckpointBytes: server.DefaultCheckpointBytes, replicated: true},
		drive: func(r *runner) streams {
			writes := &series{}
			s := r.parallel(
				func() *series { return r.catchupStream(0, writes) },
				func() *series { return r.readStream(1, 500, []string{"quadrant"}) },
			)
			return streams{"visible": s[0], "write": writes, "read": s[1]}
		},
	},
}

var allKinds = []string{"quadrant", "global", "dynamic"}

// kindFor picks request i's kind. Kinds change every second request, so the
// traced (even) and untraced (odd) halves of a traced run see the same mix.
func kindFor(kinds []string, i int) string { return kinds[(i/2)%len(kinds)] }

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

const (
	// batchSize is the number of queries per batch request.
	batchSize = 256
	// checkEvery samples one read in this many for the oracle check (one
	// batch in this many, and one query in this many of its answers).
	checkEvery = 16
	// maxReplayQueries bounds the queries kept for the layer replay.
	maxReplayQueries = 4096
	// churnIDBase and toggleID keep written ids clear of the dataset's 0..n-1.
	churnIDBase = 1_000_000
	toggleID    = 2_000_000
	// catchupRate is the replica-catchup write rate, per second.
	catchupRate = 8
)

// check is one answer kept for verification: the query, the epoch the
// response carried, and the ids it returned.
type check struct {
	kind  string
	x, y  float64
	epoch uint64
	ids   []int32
}

// runner drives one workload against one running topology.
type runner struct {
	wl    *workload
	seed  int64
	n     int
	base  []geom.Point // the dataset at epoch 1
	topo  *topology
	tr    *tracer
	sched schedule
	cli   *client.Client
	httpc *http.Client

	// hist is every write in the order the builder applies it. The
	// benchmark is the only writer and writes one at a time, so epoch e
	// holds the dataset plus hist[:e-1].
	hist []core.Op

	mu      sync.Mutex
	checks  []check
	queries [][2]float64
	errLogs atomic.Int32
}

func newRunner(wl *workload, seed int64, base []geom.Point, topo *topology, tr *tracer, sched schedule) *runner {
	gen := newTransport()
	// At most two generator connections: one per stream.
	gen.MaxConnsPerHost = 2
	httpc := &http.Client{Transport: &transport{base: gen}, Timeout: 30 * time.Second}
	return &runner{
		wl: wl, seed: seed, n: len(base), base: base, topo: topo, tr: tr, sched: sched, httpc: httpc,
		// No retries and no breaker: every refused or failed request is one
		// failed attempt, never hidden behind a retry.
		cli: client.New(topo.url(), client.WithHTTPClient(httpc), client.WithRetries(0), client.WithBreaker(0, 0)),
	}
}

func (r *runner) close() {
	r.httpc.CloseIdleConnections()
}

// parallel runs the streams concurrently and returns their samples.
func (r *runner) parallel(streams ...func() *series) []*series {
	out := make([]*series, len(streams))
	var wg sync.WaitGroup
	for i, s := range streams {
		wg.Add(1)
		go func(i int, s func() *series) {
			defer wg.Done()
			out[i] = s()
		}(i, s)
	}
	wg.Wait()
	return out
}

func (r *runner) tracing() bool { return r.tr != nil }

func (r *runner) rng(stream int) *rand.Rand {
	return rand.New(rand.NewSource(r.seed*1000 + int64(stream)))
}

// query draws a uniform point on odd integer coordinates, which no grid
// line of any diagram kind passes through, slightly beyond the data range.
func (r *runner) query(rng *rand.Rand) (x, y float64) {
	x = float64(2*rng.Intn(4*r.n+8) - 7)
	y = float64(2*rng.Intn(4*r.n+8) - 7)
	r.mu.Lock()
	if len(r.queries) < maxReplayQueries {
		r.queries = append(r.queries, [2]float64{x, y})
	}
	r.mu.Unlock()
	return x, y
}

func (r *runner) addChecks(cs ...check) {
	r.mu.Lock()
	r.checks = append(r.checks, cs...)
	r.mu.Unlock()
}

// logErr reports the first few failures, so a failing run says why.
func (r *runner) logErr(what string, err error) {
	if r.errLogs.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "%s: %s: %v\n", r.wl.name, what, err)
	}
}

// begin opens the root span of request i, timed from from; untraced
// requests (every odd one, those in the warm-up, and all of them in untraced
// runs) get the zero span.
func (r *runner) begin(i int, name string, from time.Time) span {
	if r.tr == nil || i%2 != 0 || !r.sched.measured(from) {
		return span{}
	}
	return span{ID: r.tr.newID(), Module: "op", Op: name, Start: r.tr.at(from)}
}

func (r *runner) end(s span) {
	if s.ID != 0 {
		s.End = r.tr.now()
		r.tr.add(s)
	}
}

// spanned runs fn inside a child span of parent; parent 0 means untraced.
func (r *runner) spanned(ctx context.Context, parent uint64, module, name string, fn func(context.Context) error) error {
	if parent == 0 {
		return fn(ctx)
	}
	s := span{ID: r.tr.newID(), Parent: parent, Module: module, Op: name, Start: r.tr.now()}
	err := fn(withSpan(ctx, s.ID))
	s.End = r.tr.now()
	r.tr.add(s)
	return err
}

// read issues one single-query read. When keep is set its answer and epoch
// are kept for verification; the epoch is returned either way.
func (r *runner) read(parent uint64, kind string, x, y float64, keep bool) (uint64, bool) {
	var epoch uint64
	ctx := withEpochSlot(context.Background(), &epoch)
	var res client.Result
	err := r.spanned(ctx, parent, "client", "read", func(ctx context.Context) (err error) {
		res, err = r.cli.Skyline(ctx, kind, x, y)
		return err
	})
	if err != nil {
		r.logErr("read", err)
		return 0, false
	}
	if keep {
		r.addChecks(check{kind: kind, x: x, y: y, epoch: epoch, ids: res.IDs})
	}
	return epoch, true
}

// readStream is an open-loop stream of single-query reads, cycling kinds.
func (r *runner) readStream(stream int, rate float64, kinds []string) *series {
	rng := r.rng(stream)
	return openLoop(r.sched, rate, r.tracing(), func(i int, from time.Time) bool {
		x, y := r.query(rng)
		root := r.begin(i, "read", from)
		_, ok := r.read(root.ID, kindFor(kinds, i), x, y, i%checkEvery == 0)
		r.end(root)
		return ok
	})
}

type batchRequest struct {
	Kind    string       `json:"kind"`
	Queries [][2]float64 `json:"queries"`
}

// batchResponse is decoded in full, as a caller would.
type batchResponse struct {
	Kind    string `json:"kind"`
	Count   int    `json:"count"`
	Results []struct {
		Query []float64 `json:"query"`
		IDs   []int32   `json:"ids"`
	} `json:"results"`
}

// batchStream is a closed loop of batch requests, the kind rotating
// quadrant -> global -> dynamic. The client encodes each request and decodes
// each response inside the timed call, as any caller would.
func (r *runner) batchStream(stream int) *series {
	rng := r.rng(stream)
	return closedLoop(r.sched, r.tracing(), func(i int, sent time.Time) bool {
		req := batchRequest{Kind: kindFor(allKinds, i), Queries: make([][2]float64, batchSize)}
		for k := range req.Queries {
			x, y := r.query(rng)
			req.Queries[k] = [2]float64{x, y}
		}
		root := r.begin(i, "batch", sent)
		defer r.end(root)
		var epoch uint64
		var resp batchResponse
		ctx := withEpochSlot(context.Background(), &epoch)
		err := r.spanned(ctx, root.ID, "client", "batch", func(ctx context.Context) error {
			return r.postBatch(ctx, req, &resp)
		})
		if err == nil && len(resp.Results) != batchSize {
			err = fmt.Errorf("batch answered %d of %d queries", len(resp.Results), batchSize)
		}
		if err != nil {
			r.logErr("batch", err)
			return false
		}
		if i%checkEvery == 0 {
			var cs []check
			for k := 0; k < batchSize; k += checkEvery {
				q := req.Queries[k]
				cs = append(cs, check{kind: req.Kind, x: q[0], y: q[1], epoch: epoch, ids: resp.Results[k].IDs})
			}
			r.addChecks(cs...)
		}
		return true
	})
}

func (r *runner) postBatch(ctx context.Context, req batchRequest, out *batchResponse) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, r.topo.url()+"/v1/skyline/batch", bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := r.httpc.Do(hreq)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("batch: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// write sends one insert or delete through the client.
func (r *runner) write(parent uint64, o core.Op) bool {
	err := r.spanned(context.Background(), parent, "client", "write", func(ctx context.Context) error {
		if o.Insert {
			return r.cli.Insert(ctx, o.Point)
		}
		return r.cli.Delete(ctx, o.ID)
	})
	if err != nil {
		r.logErr(o.String(), err)
	}
	return err == nil
}

// writeStream is a closed loop alternating an insert of a new point at a
// random 8k+4 position (between the dataset's grid lines, so it adds a row
// and a column) with the delete of a random live point.
func (r *runner) writeStream(stream int) *series {
	rng := r.rng(stream)
	live := make([]int, r.n)
	for i := range live {
		live[i] = i
	}
	return closedLoop(r.sched, r.tracing(), func(i int, sent time.Time) bool {
		var o core.Op
		if i%2 == 0 {
			id := churnIDBase + i/2
			live = append(live, id)
			o = core.InsertOp(geom.Pt2(id, float64(8*rng.Intn(r.n)+4), float64(8*rng.Intn(r.n)+4)))
		} else {
			k := rng.Intn(len(live))
			o = core.DeleteOp(live[k])
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		r.hist = append(r.hist, o)
		root := r.begin(i, "write", sent)
		defer r.end(root)
		return r.write(root.ID, o)
	})
}

// catchupStream is an open loop of writes that each end when a routed read
// answers at the write's epoch: toggle a point just past the dataset's
// max-x edge (it joins no result and only appends a grid column, so the
// replica catches up with a small delta), call Refresh on the replica, then
// read through the router. Calling Refresh directly keeps the replica's poll
// interval out of the number. Every confirming answer is verified. Each
// successful write's own latency, up to its ack, goes to writes.
func (r *runner) catchupStream(stream int, writes *series) *series {
	rng := r.rng(stream)
	edge := r.base[0]
	for _, p := range r.base {
		if p.Coords[0] > edge.Coords[0] {
			edge = p
		}
	}
	insert := core.InsertOp(geom.Pt2(toggleID, edge.Coords[0]+8, edge.Coords[1]))
	return openLoop(r.sched, catchupRate, r.tracing(), func(i int, from time.Time) bool {
		o := core.DeleteOp(toggleID)
		if i%2 == 0 {
			o = insert
		}
		r.hist = append(r.hist, o)
		want := uint64(1 + len(r.hist))
		root := r.begin(i, "visible", from)
		defer r.end(root)
		if !r.write(root.ID, o) {
			return false
		}
		// A failed write counts once, as a failed catch-up.
		if r.sched.measured(from) {
			writes.lat = append(writes.lat, time.Since(from).Seconds())
		}
		err := r.spanned(context.Background(), root.ID, "replica", "refresh", func(ctx context.Context) error {
			_, err := r.topo.replica.Refresh(ctx)
			return err
		})
		if err != nil {
			r.logErr("refresh", err)
			return false
		}
		x, y := r.query(rng)
		epoch, ok := r.read(root.ID, "quadrant", x, y, true)
		if ok && epoch < want {
			r.logErr("catch-up", fmt.Errorf("routed read answered at epoch %d after Refresh, want %d", epoch, want))
			return false
		}
		return ok
	})
}
