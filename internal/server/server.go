// Package server exposes precomputed skyline diagrams over HTTP — the
// serving shape of the paper's precompute-then-lookup design: one process
// builds the diagrams, every replica answers skyline queries with a point
// location each. A replica can skip the build entirely: NewServeFrom
// serves a persisted diagram file (ideally memory-mapped via
// store.OpenMmap) as a read-only snapshot — only the file's kind,
// quadrant, is served, writes answer 501.
//
// Endpoints:
//
//	GET    /healthz                                liveness
//	GET    /v1/health                              liveness (never load-shed)
//	GET    /v1/ready                               readiness (503 until a snapshot is published)
//	GET    /metrics                                Prometheus text exposition
//	GET    /v1/stats                               dataset, diagram, and traffic stats
//	GET    /v1/skyline?kind=quadrant&x=10&y=80     skyline query
//	POST   /v1/skyline/batch                       many queries, one snapshot
//	GET    /v1/snapshot?kind=quadrant&epoch=3      epoch-stamped snapshot bytes (replication)
//	POST   /v1/points   {"id":99,"coords":[13,85]} insert a point
//	DELETE /v1/points/{id}                         delete a point
//
// Query, batch, health, stats, and snapshot responses carry the serving
// snapshot's replication epoch in an X-Sky-Epoch header. An applied insert
// or delete carries the epoch of the batch that applied it — the first
// epoch whose reads hold the write — and a rejected one (409/404) carries
// none. /v1/snapshot is the replication feed: it streams the store-format
// bytes of the current snapshot with an ETag derived from the epoch,
// answering 304 when the caller's ?epoch= (or If-None-Match) is already
// current. BootstrapReplica turns a process into a read replica of a
// primary exposing that endpoint: it keeps one file in its snapshot dir,
// memory-maps it, serves it via NewServeFrom, and on each refresh
// publishes a strictly newer epoch over that file and swaps it in with
// SwapStore (see docs/SCALEOUT.md and cmd/skyrouter for the routing tier).
//
// kind is quadrant (default), global, or dynamic, matched case-insensitively;
// any other value is a 400 with a JSON error body on every path that accepts
// it. Single-query responses are JSON:
//
//	{"kind":"quadrant","query":[10,80],"ids":[3,8,10],
//	 "points":[{"id":3,"coords":[14,91]}, ...]}
//
// The batch endpoint answers up to Config.MaxBatch queries against one
// consistent snapshot, amortizing the snapshot read lock and the JSON
// round-trip:
//
//	POST /v1/skyline/batch
//	{"kind":"global","queries":[[10,80],[20,30]]}
//	-> {"kind":"global","count":2,"results":[{"query":[10,80],"ids":[...]},...]}
//
// An empty batch is a 400; one exceeding MaxBatch is a 413. Batch results
// carry ids only — resolve coordinates client-side or via single queries.
//
// Every endpoint is instrumented: request counts by endpoint and status
// code, latency histograms, error counts, snapshot swap counts, and diagram
// size gauges are exported at GET /metrics in the Prometheus text format
// (see docs/OBSERVABILITY.md for the full metric list), and /v1/stats
// includes latency percentiles computed from the same histograms.
//
// Updates never block readers: the next snapshot is computed entirely
// outside the read-write lock (all three kinds are maintained incrementally
// from the previous snapshot, or with Config.FullRebuild the global and
// dynamic kinds are rebuilt concurrently), writers are serialized by a
// dedicated update slot so no two derive from the same base, and the
// read-write lock is taken only for the pointer swap. Readers therefore
// always see a consistent snapshot and wait at most one pointer assignment,
// even while a multi-second rebuild is in flight. Datasets beyond the
// dynamic threshold keep dynamic queries disabled.
//
// Overload protection: at most Config.MaxInFlight requests run concurrently;
// up to Config.MaxQueue more wait for a slot, and everything beyond that is
// shed immediately with 429 and a Retry-After header. A queued request whose
// context is canceled before a slot frees gets 503 + Retry-After. Writers
// waiting on the update slot give up after Config.UpdateWait with the same
// 503 — the shed happens strictly before any state change, so a shed update
// is always safe to retry. Every handler runs under a panic-recovery
// middleware that converts an escaped panic into a 500 (counted in
// skyserve_panics_total) without killing the process; the recovery log line
// carries only the route pattern, never the request URL or headers.
// /healthz, /v1/health, and /metrics bypass the limiter so liveness and
// observability stay green while the server sheds load.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/wal"
)

// Config controls which diagrams the handler builds.
type Config struct {
	// MaxDynamicPoints disables the dynamic diagram (O(n^4) subcells) when
	// the dataset exceeds it. 0 means the default of 128.
	MaxDynamicPoints int
	// MaxBatch caps the number of queries one /v1/skyline/batch call may
	// carry. 0 means the default of 8192.
	MaxBatch int
	// Workers is how many goroutines run the initial build and every full
	// rebuild, as core.Options.Workers: 0 and 1 build on one goroutine,
	// negative uses GOMAXPROCS, positive uses exactly that many. The answers
	// are the same for every value.
	Workers int
	// MaxInFlight caps concurrently executing requests on the query, batch,
	// stats, and update endpoints. Requests beyond it wait in a bounded
	// queue. 0 means the default of 256; negative disables the limiter.
	// Liveness endpoints (/healthz, /v1/health) and /metrics are never
	// limited, so observability survives overload.
	MaxInFlight int
	// MaxQueue bounds how many requests may wait for an execution slot.
	// Once the queue is full further requests are shed immediately with
	// 429 and a Retry-After header. 0 means the default of 512; negative
	// means no queue (shed as soon as MaxInFlight is reached).
	MaxQueue int
	// UpdateWait bounds how long an insert/delete may wait for the writer
	// slot before being shed with 503 + Retry-After. The wait aborts only
	// BEFORE any state changes, so a shed update is always safe to retry.
	// 0 means the default of 10s; negative waits forever.
	UpdateWait time.Duration
	// FullRebuild disables incremental maintenance of the global and
	// dynamic diagrams: every write rebuilds them from scratch, the
	// pre-incremental behavior. An escape hatch and benchmark baseline.
	FullRebuild bool
	// WALDir enables durable writes: every coalesced batch is appended to a
	// write-ahead log in this directory and fsynced once (group commit)
	// before the snapshot is published and the writers are acknowledged. On
	// construction the log is replayed on top of the checkpoint snapshot in
	// the same directory, so a crash loses no acknowledged write. Empty
	// (the default) disables the WAL: writes are in-memory only, the
	// pre-durability behavior. See docs/RELIABILITY.md.
	WALDir string
	// CheckpointBytes bounds the retained WAL: once the log exceeds it
	// after a write batch, the published snapshot is persisted as the
	// checkpoint and the segments it covers are truncated. 0 means the
	// default of 1 MiB; negative disables automatic checkpoints (boot,
	// shutdown, and snapshot-serve checkpoints still run). Ignored without
	// WALDir.
	CheckpointBytes int64
	// CompactRatio triggers arena compaction: incremental maintenance
	// copies-on-write, so deleted and superseded skyline results accumulate
	// as garbage in the interned result arenas. When the garbage fraction
	// (dead arena entries / total) reaches this ratio after a maintenance
	// batch, the batch leader compacts the arenas off-lock and publishes the
	// compacted snapshot with one more pointer swap. 0 means the default of
	// 0.5; negative disables compaction.
	CompactRatio float64
	// DeltaRing sets how many epochs of page-hash manifests are retained so
	// GET /v1/snapshot?from=N can answer with a delta instead of the full
	// file (see docs/SCALEOUT.md). 0 or negative means the default of 32.
	DeltaRing int
	// Metrics receives the handler's instrumentation. nil means a fresh
	// registry, retrievable via Handler.Metrics.
	Metrics *metrics.Registry
}

// Overload-protection defaults; see Config.
const (
	DefaultMaxInFlight  = 256
	DefaultMaxQueue     = 512
	DefaultUpdateWait   = 10 * time.Second
	DefaultCompactRatio = 0.5
	// retryAfterSeconds is the backoff hint sent with every 429/503 shed
	// response.
	retryAfterSeconds = "1"
)

// Batch body sizing: the cap scales with MaxBatch so a server configured
// for large batches does not 413 legitimate requests, with a floor that
// comfortably fits the default 8192 queries. maxBatchQueryBytes is a
// generous bound on one JSON-encoded query: two full-precision floats
// ("-2.2250738585072014e-308") plus brackets and commas.
const (
	minBatchBody       = 4 << 20
	maxBatchQueryBytes = 64
)

func batchBodyLimit(maxBatch int) int64 {
	limit := int64(maxBatch)*maxBatchQueryBytes + 4096
	if limit < minBatchBody {
		return minBatchBody
	}
	return limit
}

// state is one immutable snapshot of the served diagrams.
type state struct {
	// epoch is the snapshot generation: 1 for the initial build, +1 per
	// applied write batch (compaction republishes the same epoch — answers
	// are unchanged). A serve-from snapshot carries its file's epoch. The
	// epoch is echoed on every read response as X-Sky-Epoch, and on the
	// ack of every write its batch applied; it stamps published snapshot
	// files and drives the /v1/snapshot catch-up negotiation.
	epoch uint64
	// points ascend by id: a builder state's are its DiagramSet's (the
	// quadrant diagram's), a serve-from or replica state's the store's.
	// A single-query answer renders its points from them.
	points   []geom.Point
	quadrant *core.QuadrantDiagram
	global   *core.GlobalDiagram
	dynamic  *core.DynamicDiagram // nil when disabled
	// stored, when non-nil, is a serve-from snapshot: every quadrant query
	// is answered straight from the (ideally memory-mapped) diagram
	// file, the in-memory diagrams above are all nil, and writes are
	// rejected — the file IS the snapshot.
	stored *store.Store
	// epochHeader is the X-Sky-Epoch value every read answered from this
	// state carries, made once when setState publishes it.
	epochHeader []string

	// A builder state's file is laid out once, by encoder on first use,
	// and a state's file is hashed once, by recordState at the epoch's
	// first stream or at boot; both then serve every later use.
	encOnce sync.Once
	enc     *store.Encoder
	encErr  error
	manOnce sync.Once
	man     *store.Manifest
}

// Handler serves skyline queries for one dataset.
type Handler struct {
	mux          *http.ServeMux
	maxDynamic   int
	maxBatch     int
	maxBatchBody int64
	workers      int
	start        time.Time

	reg         *metrics.Registry
	requests    *metrics.Counter   // all requests, any endpoint
	swaps       *metrics.Counter   // snapshot swaps from inserts/deletes
	queryLat    *metrics.Histogram // /v1/skyline latency, for /v1/stats
	queueDepth  *metrics.Gauge     // writers queued or applying
	updateStart *metrics.Gauge     // unix start of the in-flight update, 0 when idle
	rebuildLat  *metrics.Histogram // whole-update rebuild latency (kind=total)
	panics      *metrics.Counter   // panics recovered by the middleware
	shed        *metrics.Counter   // requests rejected by overload protection
	inflight    *metrics.Gauge     // requests currently executing on limited endpoints
	waitDepth   *metrics.Gauge     // requests waiting for an execution slot

	// slots is the concurrency limiter for the protected endpoints: holding
	// an element = executing. nil means the limiter is disabled.
	slots    chan struct{}
	maxQueue int64
	waiting  atomic.Int64

	// updateSlot serializes writers (capacity 1, acquired by send): each
	// derives its snapshot from the one published by the previous writer,
	// entirely outside mu, so concurrent writers cannot both derive from
	// the same base and readers never wait on a rebuild. A channel rather
	// than a mutex so the wait can be abandoned on deadline: a stuck
	// rebuild then sheds queued writers instead of wedging them forever.
	updateSlot chan struct{}
	updateWait time.Duration
	// rebuildHook, when non-nil, runs inside the update critical section
	// after the base snapshot is read and before the rebuild — a test seam
	// for making rebuilds artificially slow without touching the build code.
	rebuildHook func()

	// Write coalescing (see coalesce.go): queued ops awaiting a batch
	// leader, guarded by pendMu.
	pendMu       sync.Mutex
	pending      []*pendingOp
	fullRebuild  bool
	coalesced    *metrics.Counter   // writes applied through coalesced batches
	batchSize    *metrics.Histogram // ops per coalesced batch
	compactRatio float64            // arena garbage fraction that triggers compaction; <=0 disables
	compactions  *metrics.Counter   // arena compactions performed

	// Durable writes (see durable.go): nil wal means durability is off.
	wal             *wal.WAL
	snapPath        string // checkpoint snapshot path inside WALDir
	checkpointBytes int64
	lastCkpt        atomic.Uint64 // epoch of the newest persisted checkpoint
	ckptMu          sync.Mutex    // serializes checkpointNow
	ckptInFlight    atomic.Bool   // gates checkpointAsync to one goroutine
	walCommits      *metrics.Counter
	walCkpts        *metrics.Counter
	walBytes        *metrics.Gauge

	// Delta snapshot serving (see delta.go): ring retains per-epoch page
	// hashes of the published bytes.
	ring      *manifestRing
	deltaHits *metrics.Counter // snapshot requests answered with a delta body

	// readOnly marks a serve-from handler: the snapshot is a diagram file,
	// inserts and deletes answer 501.
	readOnly bool

	mu sync.RWMutex // guards st; held only for pointer reads and swaps
	st *state
}

// errRebuildFailed marks an update that failed while rebuilding diagrams
// (as opposed to a rejected derivation, e.g. a duplicate or unknown id).
var errRebuildFailed = errors.New("rebuild failed")

// errUpdateShed marks an update that timed out waiting for the writer slot,
// strictly before any state changed — safe for the client to retry.
var errUpdateShed = errors.New("update shed: writer queue wait exceeded")

func (h *Handler) buildState(pts []geom.Point) (*state, error) {
	set, err := core.BuildSet(pts, core.UpdateOptions{
		MaxDynamicPoints: h.maxDynamic,
		Workers:          h.workers,
		Metrics:          h.reg,
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	return stateFromSet(set), nil
}

// New builds the diagrams and the routing table. With Config.WALDir set it
// additionally recovers durable state first: the checkpoint snapshot in
// that directory (when present) replaces pts as the base, the write-ahead
// log is replayed on top, and every subsequent write batch is logged and
// fsynced before it is acknowledged (see durable.go).
func New(pts []geom.Point, cfg Config) (*Handler, error) {
	if cfg.WALDir != "" {
		return newDurable(pts, cfg)
	}
	h := newHandler(cfg)
	st, err := h.buildState(pts)
	if err != nil {
		return nil, err
	}
	st.epoch = 1
	h.recordState(st)
	h.setState(st)
	h.initRoutes()
	return h, nil
}

// NewServeFrom serves skyline queries directly from a persisted diagram
// file opened as st — typically via store.OpenMmap, so the snapshot IS the
// mapped file: no diagram build, no materialization, queries resolve by
// rank-table point location plus a label load from the mapping, and the
// answer's ids are decoded from it into the response buffer. Only the
// file's kind, quadrant, is served (a store file holds that one diagram);
// other kinds and all writes answer 501. The caller keeps ownership of st and must not
// close it while the handler serves.
func NewServeFrom(st *store.Store, cfg Config) (*Handler, error) {
	h := newHandler(cfg)
	h.readOnly = true
	first := serveFromState(st)
	h.recordState(first)
	h.setState(first)
	h.initRoutes()
	return h, nil
}

// serveFromState assembles the snapshot for a serve-from store: the mapped
// file IS the snapshot, carrying its own epoch stamp.
func serveFromState(st *store.Store) *state {
	return &state{
		epoch:  st.Epoch(),
		points: st.Points(),
		stored: st,
	}
}

// newHandler applies config defaults and registers the metric families —
// everything except the initial snapshot and the routing table.
func newHandler(cfg Config) *Handler {
	if cfg.MaxDynamicPoints == 0 {
		cfg.MaxDynamicPoints = 128
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 8192
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = DefaultMaxQueue
	}
	if cfg.UpdateWait == 0 {
		cfg.UpdateWait = DefaultUpdateWait
	}
	if cfg.CompactRatio == 0 {
		cfg.CompactRatio = DefaultCompactRatio
	}
	if cfg.CheckpointBytes == 0 {
		cfg.CheckpointBytes = DefaultCheckpointBytes
	}
	if cfg.DeltaRing <= 0 {
		cfg.DeltaRing = DefaultDeltaRing
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	h := &Handler{
		maxDynamic:      cfg.MaxDynamicPoints,
		maxBatch:        cfg.MaxBatch,
		maxBatchBody:    batchBodyLimit(cfg.MaxBatch),
		workers:         cfg.Workers,
		updateWait:      cfg.UpdateWait,
		checkpointBytes: cfg.CheckpointBytes,
		updateSlot:      make(chan struct{}, 1),
		fullRebuild:     cfg.FullRebuild,
		compactRatio:    cfg.CompactRatio,
		ring:            newManifestRing(cfg.DeltaRing),
		start:           time.Now(),
		reg:             reg,
		requests: reg.Counter("skyserve_requests_total",
			"HTTP requests served, all endpoints."),
		swaps: reg.Counter("skyserve_snapshot_swaps_total",
			"Snapshot swaps from successful inserts and deletes."),
		queryLat: reg.Histogram("skyserve_http_request_seconds",
			"HTTP request latency in seconds, by endpoint.",
			"endpoint", "/v1/skyline"),
		queueDepth: reg.Gauge("skyserve_update_queue_depth",
			"Writers queued for or applying an insert/delete."),
		updateStart: reg.Gauge("skyserve_update_started_timestamp_seconds",
			"Unix time the in-flight update began; 0 when idle. Stall detection: alert when non-zero and now minus this is large."),
		rebuildLat: reg.Histogram("skyserve_rebuild_seconds",
			"Update rebuild duration in seconds, by diagram kind (total = whole update).",
			"kind", "total"),
		panics: reg.Counter("skyserve_panics_total",
			"Panics recovered by the request middleware (each answered with a 500)."),
		shed: reg.Counter("skyserve_shed_total",
			"Requests shed by overload protection (429/503 with Retry-After)."),
		inflight: reg.Gauge("skyserve_inflight",
			"Requests currently executing on concurrency-limited endpoints."),
		waitDepth: reg.Gauge("skyserve_queue_depth",
			"Requests waiting for an execution slot on concurrency-limited endpoints."),
		coalesced: reg.Counter("skyserve_coalesced_writes_total",
			"Writes applied through coalesced maintenance batches."),
		batchSize: reg.Histogram("skyserve_coalesce_batch_size",
			"Ops folded into one coalesced maintenance batch (count = batches)."),
		compactions: reg.Counter("skyserve_compactions_total",
			"Arena compactions triggered by the garbage-ratio policy."),
		deltaHits: reg.Counter("skyserve_snapshot_delta_hits_total",
			"Snapshot catch-ups answered with a page-level delta body."),
	}
	if cfg.MaxInFlight > 0 {
		h.slots = make(chan struct{}, cfg.MaxInFlight)
		if cfg.MaxQueue > 0 {
			h.maxQueue = int64(cfg.MaxQueue)
		}
	}
	return h
}

// initRoutes builds the routing table. Callers must have published the
// initial snapshot first.
func (h *Handler) initRoutes() {
	mux := http.NewServeMux()
	// Liveness and metrics bypass the limiter: they must answer while the
	// service sheds load, or overload becomes invisible exactly when it
	// matters.
	mux.HandleFunc("GET /healthz", h.instrument("/healthz", h.handleHealth))
	mux.HandleFunc("GET /v1/health", h.instrument("/v1/health", h.handleHealth))
	mux.HandleFunc("GET /v1/ready", h.instrument("/v1/ready", h.handleReady))
	mux.HandleFunc("GET /metrics", h.instrument("/metrics", h.handleMetrics))
	mux.HandleFunc("GET /v1/stats", h.instrument("/v1/stats", h.limit(h.handleStats)))
	mux.HandleFunc("GET /v1/snapshot", h.instrument("/v1/snapshot", h.limit(h.handleSnapshot)))
	mux.HandleFunc("GET /v1/skyline", h.instrument("/v1/skyline", h.limit(h.handleSkyline)))
	mux.HandleFunc("POST /v1/skyline/batch", h.instrument("/v1/skyline/batch", h.limit(h.handleBatch)))
	mux.HandleFunc("POST /v1/points", h.instrument("/v1/points", h.limit(h.handleInsert)))
	mux.HandleFunc("DELETE /v1/points/{id}", h.instrument("/v1/points/{id}", h.limit(h.handleDelete)))
	h.mux = mux
}

// limit applies the bounded-queue concurrency limiter: up to MaxInFlight
// requests execute, up to MaxQueue wait for a slot, and everything beyond
// that is shed immediately with 429 + Retry-After — a cheap rejection the
// client can back off on, instead of a timeout that ties up both sides.
// A queued request whose client gives up (context done) leaves the queue.
func (h *Handler) limit(fn http.HandlerFunc) http.HandlerFunc {
	if h.slots == nil {
		return fn
	}
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case h.slots <- struct{}{}:
		default:
			// Saturated: try the bounded wait queue.
			if h.waiting.Add(1) > h.maxQueue {
				h.waiting.Add(-1)
				h.shed.Inc()
				w.Header().Set("Retry-After", retryAfterSeconds)
				writeError(w, http.StatusTooManyRequests, "server overloaded; retry later")
				return
			}
			h.waitDepth.Set(float64(h.waiting.Load()))
			select {
			case h.slots <- struct{}{}:
				h.waiting.Add(-1)
				h.waitDepth.Set(float64(h.waiting.Load()))
			case <-r.Context().Done():
				h.waiting.Add(-1)
				h.waitDepth.Set(float64(h.waiting.Load()))
				h.shed.Inc()
				w.Header().Set("Retry-After", retryAfterSeconds)
				writeError(w, http.StatusServiceUnavailable, "request abandoned while queued")
				return
			}
		}
		h.inflight.Add(1)
		defer func() {
			h.inflight.Add(-1)
			<-h.slots
		}()
		fn(w, r)
	}
}

// Metrics returns the handler's registry, for callers that want to merge in
// their own series or expose it elsewhere.
func (h *Handler) Metrics() *metrics.Registry { return h.reg }

// setState publishes a new snapshot and refreshes the diagram size gauges.
// Callers must hold h.mu for writing (or be the constructor).
func (h *Handler) setState(st *state) {
	st.epochHeader = []string{strconv.FormatUint(st.epoch, 10)}
	h.st = st
	h.reg.Gauge("skyserve_points", "Points in the served dataset.").
		Set(float64(len(st.points)))
	h.reg.Gauge("skyserve_snapshot_epoch",
		"Generation of the published snapshot (replicas lag the builder by the epoch delta).").
		Set(float64(st.epoch))
	cells := func(kind string, n float64) {
		h.reg.Gauge("skyserve_cells", "Grid cells in the served diagram, by kind.",
			"kind", kind).Set(n)
	}
	if st.stored != nil {
		cells("quadrant", float64(st.stored.NumCells()))
		return
	}
	cells("quadrant", float64(st.quadrant.Grid().NumCells()))
	cells("global", float64(st.global.Grid().NumCells()))
	sub := 0.0
	if st.dynamic != nil {
		sub = float64(st.dynamic.SubGrid().NumSubcells())
	}
	cells("dynamic", sub)
}

func (h *Handler) snapshot() *state {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.st
}

// acquire returns the published snapshot for a read that touches its
// diagrams, holding a serve-from snapshot's store against Close's unmap
// until release. SwapStore publishes the newer store before its caller
// closes the old one, so a failed hold means this read raced a retirement
// and moves on to the state that replaced it. nil means the published store
// itself is closed: the node is shutting down.
func (h *Handler) acquire() *state {
	for {
		st := h.snapshot()
		if st.stored == nil || st.stored.Acquire() {
			return st
		}
		if h.snapshot() == st {
			return nil
		}
	}
}

// release ends a read begun by acquire.
func (st *state) release() {
	if st.stored != nil {
		st.stored.Release()
	}
}

// errStoreClosed answers a read that found the published store closed.
func errStoreClosed(w http.ResponseWriter) {
	writeError(w, http.StatusServiceUnavailable, "the served snapshot file is closed")
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// statusWriter captures the response code for instrumentation.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.code == 0 {
		sw.code = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

// instrument wraps an endpoint handler with request counting, latency
// observation, error counting, and panic recovery, labelled by the route
// pattern (never the raw URL, keeping metric cardinality bounded).
//
// A panic anywhere below — handler bug, poisoned snapshot, injected fault —
// is converted into a 500 for this request only: the goroutine survives, the
// process keeps serving, and skyserve_panics_total records the event. The
// log line carries the route pattern and the panic value, never the raw URL,
// query string, or headers, so credentials in requests cannot leak into logs.
func (h *Handler) instrument(endpoint string, fn http.HandlerFunc) http.HandlerFunc {
	lat := h.reg.Histogram("skyserve_http_request_seconds",
		"HTTP request latency in seconds, by endpoint.", "endpoint", endpoint)
	errs := h.reg.Counter("skyserve_http_errors_total",
		"HTTP responses with status >= 400, by endpoint.", "endpoint", endpoint)
	// The endpoint's request counter of each status code, resolved in the
	// registry once: a request after the first of its code only loads it.
	var byCode sync.Map // int -> *metrics.Counter
	requests := func(code int) *metrics.Counter {
		if c, ok := byCode.Load(code); ok {
			return c.(*metrics.Counter)
		}
		c := h.reg.Counter("skyserve_http_requests_total",
			"HTTP requests, by endpoint and status code.",
			"endpoint", endpoint, "code", strconv.Itoa(code))
		byCode.Store(code, c)
		return c
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if p := recover(); p != nil {
				h.panics.Inc()
				log.Printf("skyserve: recovered panic on %s: %v", endpoint, p)
				if sw.code == 0 {
					writeError(sw, http.StatusInternalServerError, "internal error")
				}
			}
			if sw.code == 0 {
				sw.code = http.StatusOK
			}
			lat.ObserveDuration(time.Since(start))
			h.requests.Inc()
			requests(sw.code).Inc()
			if sw.code >= 400 {
				errs.Inc()
			}
		}()
		fn(sw, r)
	}
}

func (h *Handler) handleHealth(w http.ResponseWriter, _ *http.Request) {
	epoch := h.snapshot().epoch
	setEpochHeader(w, epoch)
	writeJSON(w, http.StatusOK, healthResponse{Status: "ok", Epoch: epoch})
}

type healthResponse struct {
	Status string `json:"status"`
	Epoch  uint64 `json:"epoch"`
}

// handleReady answers readiness, distinct from liveness: a Handler only
// exists once its snapshot is published (build, WAL replay, or replica
// bootstrap complete), so here readiness is always 200. The 503 phase is
// served by the startup Gate in front of the handler (see gate.go) while
// construction is still in flight — probes therefore see "starting" until
// the first snapshot is servable, then flip to ready.
func (h *Handler) handleReady(w http.ResponseWriter, _ *http.Request) {
	epoch := h.snapshot().epoch
	setEpochHeader(w, epoch)
	writeJSON(w, http.StatusOK, healthResponse{Status: "ready", Epoch: epoch})
}

// setEpochHeader stamps a response with the snapshot generation it was
// answered from, so clients and the router can track replica freshness
// without extra round trips.
func setEpochHeader(w http.ResponseWriter, epoch uint64) {
	w.Header().Set("X-Sky-Epoch", strconv.FormatUint(epoch, 10))
}

// jsonContentType is the Content-Type of every JSON read answer, shared and
// never mutated.
var jsonContentType = []string{"application/json"}

// setReadHeader stamps a read answered from st with its epoch and JSON
// content type. Both values are shared slices, so a read allocates neither.
func (st *state) setReadHeader(w http.ResponseWriter) {
	hdr := w.Header()
	hdr["X-Sky-Epoch"] = st.epochHeader
	hdr["Content-Type"] = jsonContentType
}

func (h *Handler) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", metrics.ContentType)
	_ = h.reg.WritePrometheus(w)
}

type latencySummary struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

type statsResponse struct {
	Epoch          uint64 `json:"epoch"`
	Points         int    `json:"points"`
	Cells          int    `json:"cells"`
	Polyominoes    int    `json:"polyominoes"`
	DynamicEnabled bool   `json:"dynamic_enabled"`
	Subcells       int    `json:"subcells,omitempty"`

	UptimeSeconds float64         `json:"uptime_seconds"`
	RequestsTotal int64           `json:"requests_total"`
	SnapshotSwaps int64           `json:"snapshot_swaps"`
	QueryLatency  *latencySummary `json:"query_latency,omitempty"`

	UpdateQueueDepth int             `json:"update_queue_depth"`
	UpdateInFlight   bool            `json:"update_in_flight"`
	RebuildLatency   *latencySummary `json:"rebuild_latency,omitempty"`

	Inflight    int   `json:"inflight"`
	QueueDepth  int   `json:"queue_depth"`
	ShedTotal   int64 `json:"shed_total"`
	PanicsTotal int64 `json:"panics_total"`
}

func (h *Handler) handleStats(w http.ResponseWriter, _ *http.Request) {
	snap := h.snapshot()
	resp := statsResponse{
		Epoch:          snap.epoch,
		Points:         len(snap.points),
		DynamicEnabled: snap.dynamic != nil,
		UptimeSeconds:  time.Since(h.start).Seconds(),
		RequestsTotal:  h.requests.Value(),
		SnapshotSwaps:  h.swaps.Value(),
	}
	switch {
	case snap.stored != nil:
		resp.Cells = snap.stored.NumCells()
	default:
		st, err := snap.quadrant.Stats()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		resp.Cells = st.Cells
		resp.Polyominoes = st.Polyominoes
	}
	if snap.dynamic != nil {
		resp.Subcells = snap.dynamic.SubGrid().NumSubcells()
	}
	if qs := h.queryLat.Snapshot(); qs.Count > 0 {
		resp.QueryLatency = &latencySummary{
			Count:  qs.Count,
			MeanMs: qs.Mean() * 1e3,
			P50Ms:  qs.Quantile(0.50) * 1e3,
			P90Ms:  qs.Quantile(0.90) * 1e3,
			P99Ms:  qs.Quantile(0.99) * 1e3,
		}
	}
	resp.UpdateQueueDepth = int(h.queueDepth.Value())
	resp.UpdateInFlight = h.updateStart.Value() > 0
	resp.Inflight = int(h.inflight.Value())
	resp.QueueDepth = int(h.waitDepth.Value())
	resp.ShedTotal = h.shed.Value()
	resp.PanicsTotal = h.panics.Value()
	if rs := h.rebuildLat.Snapshot(); rs.Count > 0 {
		resp.RebuildLatency = &latencySummary{
			Count:  rs.Count,
			MeanMs: rs.Mean() * 1e3,
			P50Ms:  rs.Quantile(0.50) * 1e3,
			P90Ms:  rs.Quantile(0.90) * 1e3,
			P99Ms:  rs.Quantile(0.99) * 1e3,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// errDynamicDisabled marks dynamic-kind queries against a dataset too large
// for the dynamic diagram.
var errDynamicDisabled = errors.New("dynamic diagram disabled for this dataset size")

// errKindNotServed marks queries for a kind the serve-from snapshot file
// does not contain: every file holds the quadrant diagram only.
var errKindNotServed = errors.New(`kind not present in the served snapshot file (file contains kind "quadrant")`)

// errReadOnly marks writes against a serve-from handler.
var errReadOnly = errors.New("server is serving a read-only snapshot file")

// normalizeKind canonicalizes the kind parameter. Every path that accepts a
// kind goes through here, so an unknown value is always a 400 with a JSON
// error — never a silent fallthrough.
func normalizeKind(raw string) (string, error) {
	kind := strings.ToLower(strings.TrimSpace(raw))
	if kind == "" {
		return "quadrant", nil
	}
	switch kind {
	case "quadrant", "global", "dynamic":
		return kind, nil
	}
	return "", fmt.Errorf("unknown kind %q (want quadrant, global, or dynamic)", raw)
}

// diagramFor selects the diagram answering the (already normalized) kind.
func (st *state) diagramFor(kind string) (answerer, error) {
	if st.stored != nil {
		if kind == "quadrant" {
			return st.stored, nil
		}
		return nil, errKindNotServed
	}
	switch kind {
	case "quadrant":
		return st.quadrant, nil
	case "global":
		return st.global, nil
	case "dynamic":
		if st.dynamic == nil {
			return nil, errDynamicDisabled
		}
		return st.dynamic, nil
	}
	return nil, fmt.Errorf("unknown kind %q", kind)
}

func parseCoord(s, name string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("%s must be a number", name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%s must be finite", name)
	}
	return v, nil
}

// skylineParams returns the kind, x and y of a raw query as url.Values'
// Get would after url.ParseQuery, without building the map: pairs split at
// '&', a pair holding ';' or a bad escape skipped, keys and values
// unescaped (url.QueryUnescape returns its input when there is nothing to
// unescape), and the first value of a key kept.
func skylineParams(raw string) (kind, x, y string) {
	var vals [3]string
	var seen [3]bool
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		k, err := url.QueryUnescape(k)
		if err != nil {
			continue
		}
		i := 0
		switch k {
		case "kind":
		case "x":
			i = 1
		case "y":
			i = 2
		default:
			continue
		}
		if v, err = url.QueryUnescape(v); err == nil && !seen[i] {
			vals[i], seen[i] = v, true
		}
	}
	return vals[0], vals[1], vals[2]
}

func (h *Handler) handleSkyline(w http.ResponseWriter, r *http.Request) {
	rawKind, rawX, rawY := skylineParams(r.URL.RawQuery)
	kind, err := normalizeKind(rawKind)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	x, errX := parseCoord(rawX, "x")
	y, errY := parseCoord(rawY, "y")
	if errX != nil || errY != nil {
		writeError(w, http.StatusBadRequest, "x and y must be finite numbers")
		return
	}
	// Failpoint covering the read path: latency simulates a slow diagram
	// walk (for overload drills), error a poisoned lookup, panic a handler
	// bug the recovery middleware must contain.
	if err := faultinject.Hit("server.query"); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	snap := h.acquire()
	if snap == nil {
		errStoreClosed(w)
		return
	}
	defer snap.release()
	d, err := snap.diagramFor(kind)
	if err != nil {
		writeError(w, statusForKindErr(err), err.Error())
		return
	}
	bp := getBuf()
	buf := appendAnswers(*bp, d, kind, [][]float64{{x, y}}, false, snap.points)
	snap.setReadHeader(w)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf)
	*bp = buf
	putBuf(bp)
}

func statusForKindErr(err error) int {
	if errors.Is(err, errDynamicDisabled) || errors.Is(err, errKindNotServed) {
		return http.StatusNotImplemented
	}
	return http.StatusBadRequest
}

type batchRequest struct {
	Kind    string      `json:"kind"`
	Queries [][]float64 `json:"queries"`
}

// handleBatch answers every query in the request against one snapshot, so a
// batch observes a single consistent diagram even while writers swap
// snapshots concurrently.
func (h *Handler) handleBatch(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, h.maxBatchBody)
	var req batchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	kind, err := normalizeKind(req.Kind)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, "queries must be non-empty")
		return
	}
	if len(req.Queries) > h.maxBatch {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d queries exceeds the limit of %d", len(req.Queries), h.maxBatch))
		return
	}
	for i, c := range req.Queries {
		if len(c) != 2 {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("query %d has %d coordinates, want 2", i, len(c)))
			return
		}
		if math.IsNaN(c[0]) || math.IsInf(c[0], 0) || math.IsNaN(c[1]) || math.IsInf(c[1], 0) {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("query %d has non-finite coordinates", i))
			return
		}
	}
	if err := faultinject.Hit("server.query"); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	snap := h.acquire()
	if snap == nil {
		errStoreClosed(w)
		return
	}
	defer snap.release()
	d, err := snap.diagramFor(kind)
	if err != nil {
		writeError(w, statusForKindErr(err), err.Error())
		return
	}
	bp := getBuf()
	buf := appendAnswers(*bp, d, kind, req.Queries, true, snap.points)
	h.reg.Counter("skyserve_batch_queries_total",
		"Queries answered through /v1/skyline/batch.").Add(int64(len(req.Queries)))
	snap.setReadHeader(w)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf)
	*bp = buf
	putBuf(bp)
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

type insertRequest struct {
	ID     int       `json:"id"`
	Coords []float64 `json:"coords"`
}

func (h *Handler) handleInsert(w http.ResponseWriter, r *http.Request) {
	if h.readOnly {
		writeError(w, http.StatusNotImplemented, errReadOnly.Error())
		return
	}
	var req insertRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	if len(req.Coords) != 2 {
		writeError(w, http.StatusBadRequest, "coords must have exactly 2 values")
		return
	}
	if math.IsNaN(req.Coords[0]) || math.IsInf(req.Coords[0], 0) ||
		math.IsNaN(req.Coords[1]) || math.IsInf(req.Coords[1], 0) {
		writeError(w, http.StatusBadRequest, "coords must be finite")
		return
	}
	if req.ID != int(int32(req.ID)) {
		// Diagrams store ids as int32; a wider id would alias another's.
		writeError(w, http.StatusBadRequest, "id must be within the int32 range")
		return
	}
	p := geom.Point{ID: req.ID, Coords: req.Coords}

	res, err := h.submitOp(r.Context(), core.InsertOp(p))
	if err != nil {
		writeUpdateError(w, err, http.StatusConflict)
		return
	}
	setEpochHeader(w, res.epoch)
	writeJSON(w, http.StatusCreated, map[string]int{"points": res.points})
}

// writeUpdateError maps a submitOp failure: a shed wait is 503 +
// Retry-After (nothing was applied; safe to retry), a batch failure is a
// 500, and a rejected op gets the caller's status (409 duplicate, 404
// unknown id).
func writeUpdateError(w http.ResponseWriter, err error, deriveStatus int) {
	switch {
	case errors.Is(err, errUpdateShed):
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, errRebuildFailed):
		writeError(w, http.StatusInternalServerError, err.Error())
	default:
		writeError(w, deriveStatus, err.Error())
	}
}

func (h *Handler) handleDelete(w http.ResponseWriter, r *http.Request) {
	if h.readOnly {
		writeError(w, http.StatusNotImplemented, errReadOnly.Error())
		return
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid id")
		return
	}
	res, err := h.submitOp(r.Context(), core.DeleteOp(id))
	if err != nil {
		writeUpdateError(w, err, http.StatusNotFound)
		return
	}
	setEpochHeader(w, res.epoch)
	writeJSON(w, http.StatusOK, map[string]int{"points": res.points})
}
