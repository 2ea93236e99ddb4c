// Command skyserve builds the skyline diagrams for a dataset and serves
// skyline queries over HTTP:
//
//	skyserve -in points.csv -addr :8080
//	curl 'localhost:8080/v1/skyline?kind=global&x=10&y=80'
//	curl 'localhost:8080/metrics'
//
// Omitting -in serves the paper's 11-hotel running example.
//
// Alternatively, -serve-from serves a persisted diagram file (written by
// `skydiag save`) with no build step at all: the file is memory-mapped
// (falling back to buffered reads where mmap is unavailable) and queries
// are answered straight from the mapping. Only the file's diagram kind is
// served and the dataset is read-only — inserts and deletes answer 501:
//
//	skyserve -serve-from diagram.sky -addr :8080
//
// -primary makes the process a read replica of a builder: it serves one
// file, snapshot.sky in -snapshot-dir, the same way, and every -refresh
// publishes a newer epoch from the builder over that file crash-safely
// (temp, fsync, open and check, rename). A restart serves the file before
// catching up. See docs/SCALEOUT.md:
//
//	skyserve -primary http://builder:8080 -snapshot-dir /var/sky -addr :8081
//
// Diagram builds run the scanning constructions (the paper's Algorithms 3
// and 7) on -workers goroutines (default: all CPUs; 0 builds on one), with
// the same answers for every count. Inserts and deletes never block queries:
// all three diagrams are maintained incrementally from the previous snapshot
// (use -full-rebuild to restore from-scratch rebuilds), queued writes are
// coalesced into batches of up to 64 ops sharing one maintenance pass and
// one snapshot swap, and readers keep answering from the previous snapshot
// until the new one is swapped in. See docs/MAINTENANCE.md.
//
// -wal-dir makes writes durable: every coalesced batch is appended to a
// write-ahead log in that directory and fsynced once (group commit) before
// it is acknowledged, and on restart the log is replayed on top of the
// checkpoint snapshot kept alongside it — a crash loses no acknowledged
// write. -checkpoint-bytes bounds the retained log between checkpoints:
//
//	skyserve -in points.csv -wal-dir /var/lib/skyserve -addr :8080
//
// The listener binds immediately; until the initial build, WAL replay, or
// replica bootstrap completes, liveness endpoints answer 200 "starting" and
// everything else — including GET /v1/ready, the readiness probe — answers
// 503, flipping to 200 once the first snapshot is servable.
//
// Every API request runs under -request-timeout via http.TimeoutHandler,
// except GET /v1/snapshot: the wrapper buffers a whole body, so snapshot
// files and deltas stream around it under a write deadline of the same
// length. -pprof additionally mounts net/http/pprof under /debug/pprof/
// outside the timeout wrapper (profiles stream for longer than any API
// deadline). On SIGINT/SIGTERM the server drains in-flight requests for up
// to -shutdown-grace, then flushes the pending write queue through the WAL
// (append + fsync + apply), checkpoints, and closes the log — queued
// acknowledged ops are never stranded. See docs/OBSERVABILITY.md and
// docs/RELIABILITY.md.
//
// Overload protection is tuned with -max-inflight, -max-queue, and
// -update-wait: excess traffic is shed with 429/503 + Retry-After while
// /healthz, /v1/health, and /metrics keep answering. -faults (or the
// SKYFAULTS environment variable) activates the fault-injection registry
// for chaos drills — never in production. See docs/RELIABILITY.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	in := flag.String("in", "", "input CSV (default: the paper's hotel example)")
	serveFrom := flag.String("serve-from", "", "serve a persisted diagram file (mmap'd, read-only) instead of building from -in")
	primary := flag.String("primary", "", "replica mode: builder base URL to pull epoch-stamped snapshots from (read-only serving)")
	snapshotDir := flag.String("snapshot-dir", "", "replica mode: directory holding the served snapshot file, snapshot.sky (required with -primary)")
	refresh := flag.Duration("refresh", server.DefaultRefreshInterval, "replica mode: snapshot poll interval")
	deltaRing := flag.Int("delta-ring", 0,
		"per-epoch snapshot manifests retained for page-delta catch-up: 0 default ("+
			strconv.Itoa(server.DefaultDeltaRing)+")")
	addr := flag.String("addr", ":8080", "listen address")
	maxDyn := flag.Int("max-dynamic", 128, "largest dataset for which the dynamic diagram is built")
	maxBatch := flag.Int("max-batch", 8192, "largest accepted /v1/skyline/batch query count")
	workers := flag.Int("workers", -1, "goroutines per diagram build: -1 all CPUs, 0 or 1 one, n exactly n")
	reqTimeout := flag.Duration("request-timeout", 15*time.Second, "per-request deadline for API endpoints (0 disables)")
	grace := flag.Duration("shutdown-grace", 10*time.Second, "in-flight request drain budget on SIGINT/SIGTERM")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	maxInFlight := flag.Int("max-inflight", server.DefaultMaxInFlight,
		"concurrently executing requests on limited endpoints (-1 disables the limiter)")
	maxQueue := flag.Int("max-queue", server.DefaultMaxQueue,
		"requests allowed to wait for a slot before shedding with 429 (-1: shed immediately at max-inflight)")
	updateWait := flag.Duration("update-wait", server.DefaultUpdateWait,
		"how long an insert/delete may wait for the writer slot before a 503 shed (-1 waits forever)")
	fullRebuild := flag.Bool("full-rebuild", false,
		"rebuild the global/dynamic diagrams from scratch on every write instead of maintaining them incrementally")
	walDir := flag.String("wal-dir", "",
		"write-ahead log directory: fsync writes before acking, replay on restart (empty disables durability)")
	ckptBytes := flag.Int64("checkpoint-bytes", server.DefaultCheckpointBytes,
		"retained WAL bytes that trigger a snapshot checkpoint and log truncation (-1 disables automatic checkpoints)")
	compactRatio := flag.Float64("compact-ratio", server.DefaultCompactRatio,
		"arena garbage fraction that triggers off-lock compaction after a write batch (-1 disables)")
	faults := flag.String("faults", os.Getenv(faultinject.EnvVar),
		"fault-injection spec, e.g. 'store.open.read=error@0.01;server.query=latency:5ms' (default: $"+faultinject.EnvVar+"; testing only)")
	flag.Parse()

	if *faults != "" {
		if err := faultinject.Activate(*faults); err != nil {
			log.Fatalf("skyserve: -faults: %v", err)
		}
		log.Printf("skyserve: FAULT INJECTION ACTIVE: %s", *faults)
	}

	cfg := server.Config{
		MaxDynamicPoints: *maxDyn,
		MaxBatch:         *maxBatch,
		Workers:          *workers,
		MaxInFlight:      *maxInFlight,
		MaxQueue:         *maxQueue,
		UpdateWait:       *updateWait,
		FullRebuild:      *fullRebuild,
		CompactRatio:     *compactRatio,
		WALDir:           *walDir,
		CheckpointBytes:  *ckptBytes,
		DeltaRing:        *deltaRing,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Bind the listener before the (possibly long) build, WAL replay, or
	// replica bootstrap: port conflicts surface immediately, liveness probes
	// see 200 "starting", and readiness (/v1/ready and every other endpoint)
	// answers 503 until the gate flips to the real handler.
	gate := server.NewGate()
	root := http.NewServeMux()
	root.Handle("/", gate)
	if *pprofOn {
		root.HandleFunc("/debug/pprof/", pprof.Index)
		root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		root.HandleFunc("/debug/pprof/profile", pprof.Profile)
		root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		root.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           root,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	var h *server.Handler
	var pts []geom.Point
	if *walDir != "" && (*serveFrom != "" || *primary != "") {
		log.Fatal("skyserve: -wal-dir applies to builder mode only (not -serve-from or -primary)")
	}
	switch {
	case *primary != "":
		if *serveFrom != "" || *in != "" {
			log.Fatal("skyserve: -primary is mutually exclusive with -serve-from and -in")
		}
		var rep *server.Replica
		var err error
		h, rep, err = server.BootstrapReplica(ctx, server.ReplicaConfig{
			Primary:  *primary,
			Dir:      *snapshotDir,
			Interval: *refresh,
		}, cfg)
		if err != nil {
			log.Fatalf("skyserve: replica: %v", err)
		}
		defer rep.Close()
		go rep.Run(ctx)
		pts = nil // logged below from /v1/stats-visible state instead
		log.Printf("skyserve: replica of %s, refreshing every %s into %s",
			*primary, *refresh, *snapshotDir)
	case *serveFrom != "":
		if *in != "" {
			log.Fatal("skyserve: -serve-from and -in are mutually exclusive")
		}
		st, err := store.OpenMmap(*serveFrom)
		if err != nil {
			log.Fatalf("skyserve: -serve-from: %v", err)
		}
		defer st.Close()
		mode := "mmap"
		if !st.Mapped() {
			mode = "the file read into memory (mmap unavailable)"
		}
		log.Printf("skyserve: serving quadrant diagram from %s via %s, read-only (epoch %d)",
			*serveFrom, mode, st.Epoch())
		h, err = server.NewServeFrom(st, cfg)
		if err != nil {
			log.Fatal(err)
		}
		pts = st.Points()
	default:
		if *in == "" {
			pts = dataset.Hotels()
		} else {
			f, err := os.Open(*in)
			if err != nil {
				log.Fatal(err)
			}
			loaded, err := dataset.ReadCSV(f)
			f.Close()
			if err != nil {
				log.Fatal(err)
			}
			pts = loaded
		}
		var err error
		h, err = server.New(pts, cfg)
		if err != nil {
			log.Fatal(err)
		}
	}

	gate.Ready(withTimeout(h, *reqTimeout))
	fmt.Printf("skyserve: %d points, listening on %s (pprof %v)\n", len(pts), *addr, *pprofOn)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("skyserve: shutting down, draining for up to %s", *grace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("skyserve: shutdown: %v", err)
	}
	// Flush the pending write queue through the WAL and checkpoint, within
	// what remains of the grace budget — a queued op whose writer already got
	// (or will get) a 200 must be on disk before the process exits.
	if err := h.Shutdown(shutdownCtx); err != nil {
		log.Printf("skyserve: flush: %v", err)
	}
}

// withTimeout puts every API route under timeout (0 disables it). JSON routes
// run inside http.TimeoutHandler, which answers a 503 when the deadline
// passes but buffers the whole body until the handler returns. Snapshot
// bodies are store files or deltas, megabytes each, so /v1/snapshot streams
// around the wrapper instead, under a write deadline of the same length.
func withTimeout(api http.Handler, timeout time.Duration) http.Handler {
	if timeout <= 0 {
		return api
	}
	wrapped := http.TimeoutHandler(api, timeout, `{"error":"request timed out"}`)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/snapshot" {
			wrapped.ServeHTTP(w, r)
			return
		}
		// Every connection net/http serves supports write deadlines; a writer
		// that does not can only stream without one.
		_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(timeout))
		api.ServeHTTP(w, r)
	})
}
