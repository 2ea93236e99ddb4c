package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/router"
	"repro/internal/server"
)

// topoSpec is the serving topology one workload runs against.
type topoSpec struct {
	n int
	// walCheckpointBytes > 0 gives the builder a write-ahead log with that
	// checkpoint threshold; 0 runs it without one.
	walCheckpointBytes int64
	// replicated adds one mmap replica bootstrapped from the builder and a
	// router in front of it (reads go to the replica, writes to the builder).
	replicated bool
}

// topology is one running instance of a topoSpec, every node served over
// loopback TCP in this process.
type topology struct {
	builder    *server.Handler
	builderSrv *httptest.Server
	replica    *server.Replica
	replicaH   *server.Handler
	replicaSrv *httptest.Server
	router     *router.Router
	routerSrv  *httptest.Server
	transports []*http.Transport
	dir        string
}

// points generates the n-point Independent dataset of a seed. Coordinates
// are distinct multiples of 8 on each axis (ranks scaled by 8), which leaves
// room for writes that add grid lines (8k+4) and for queries that sit on no
// grid line of any diagram kind (odd integers: the dynamic arrangement's
// lines are midpoints and reflections of even values, so they are even).
func points(n int, seed int64) ([]geom.Point, error) {
	pts, err := dataset.Generate(dataset.Config{N: n, Dim: 2, Dist: dataset.Independent, Seed: seed})
	if err != nil {
		return nil, err
	}
	pts = dataset.GeneralPosition(pts)
	for _, p := range pts {
		p.Coords[0] *= 8
		p.Coords[1] *= 8
	}
	return pts, nil
}

func newTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 4
	return t
}

// startTopology builds and serves the topology: the builder's diagrams, its
// first publish, the replica's bootstrap fetch and the router's first health
// pass. tr, when non-nil, wraps every node and transport with spans.
func startTopology(ctx context.Context, spec topoSpec, pts []geom.Point, scratch string, tr *tracer) (_ *topology, err error) {
	t := &topology{}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	if t.dir, err = os.MkdirTemp(scratch, "topo-"); err != nil {
		return nil, err
	}
	cfg := server.Config{Workers: -1}
	if spec.walCheckpointBytes > 0 {
		cfg.WALDir = filepath.Join(t.dir, "wal")
		cfg.CheckpointBytes = spec.walCheckpointBytes
	}
	if t.builder, err = server.New(pts, cfg); err != nil {
		return nil, fmt.Errorf("builder: %w", err)
	}
	t.builderSrv = httptest.NewServer(traceHandler(t.builder, tr, "server", "builder"))
	if !spec.replicated {
		return t, nil
	}

	fetch := newTransport()
	hop := newTransport()
	t.transports = append(t.transports, fetch, hop)
	t.replicaH, t.replica, err = server.BootstrapReplica(ctx, server.ReplicaConfig{
		Primary:    t.builderSrv.URL,
		Dir:        filepath.Join(t.dir, "replica"),
		HTTPClient: &http.Client{Transport: &transport{base: fetch, tr: tr, module: "replica"}, Timeout: 30 * time.Second},
	}, server.Config{})
	if err != nil {
		return nil, fmt.Errorf("replica: %w", err)
	}
	t.replicaSrv = httptest.NewServer(traceHandler(t.replicaH, tr, "server", "replica"))
	t.router, err = router.New(router.Config{
		Replicas:   []string{t.replicaSrv.URL},
		Primary:    t.builderSrv.URL,
		HTTPClient: &http.Client{Transport: &transport{base: hop, tr: tr, module: "router"}, Timeout: 15 * time.Second},
	})
	if err != nil {
		return nil, fmt.Errorf("router: %w", err)
	}
	t.routerSrv = httptest.NewServer(traceHandler(t.router, tr, "router", ""))
	t.router.HealthCheck(ctx)
	return t, nil
}

// url is where the generator sends requests: the router when there is one.
func (t *topology) url() string {
	if t.routerSrv != nil {
		return t.routerSrv.URL
	}
	return t.builderSrv.URL
}

// close stops every server and removes the topology's files. httptest's
// Close waits for in-flight requests.
func (t *topology) close() {
	if t.routerSrv != nil {
		t.routerSrv.Close()
	}
	if t.replicaSrv != nil {
		t.replicaSrv.Close()
	}
	if t.replica != nil {
		t.replica.Close()
	}
	if t.builderSrv != nil {
		t.builderSrv.Close()
	}
	if t.builder != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := t.builder.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "builder shutdown: %v\n", err)
		}
		cancel()
	}
	for _, tr := range t.transports {
		tr.CloseIdleConnections()
	}
	if t.dir != "" {
		os.RemoveAll(t.dir)
	}
}
