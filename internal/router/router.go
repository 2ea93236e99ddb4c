// Package router is the scale-out tier: it fronts a pool of read replicas
// of one dataset, health-checks them over /v1/ready (readiness plus snapshot
// epoch), and sends each read to the first usable replica in the pool's
// preference order — the configured order, with healthy epoch-fresh
// replicas first — failing over on errors and open circuit breakers (the
// same breaker the typed client uses). Writes are forwarded to the builder
// node, which is the single source of truth for snapshot epochs.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/metrics"
)

// Config configures a Router.
type Config struct {
	// Replicas are the read replicas' base URLs, in preference order. At
	// least one is required; a trailing slash does not make a second
	// replica.
	Replicas []string
	// Primary is the builder's base URL; inserts and deletes forward to it.
	// Empty rejects writes with 501 (a read-only tier).
	Primary string
	// StaleEpochs is the snapshot lag a replica may accumulate and still be
	// preferred: a replica whose last observed epoch is more than this many
	// generations behind the freshest pool member is demoted behind fresh
	// ones (still served — stale answers are consistent answers). Default 0:
	// any lag demotes.
	StaleEpochs uint64
	// HealthInterval is the /v1/ready probe cadence. 0 means 1s.
	HealthInterval time.Duration
	// BreakerThreshold and BreakerCooldown tune each replica's circuit
	// breaker (see client.WithBreaker). Threshold 0 means the client
	// default; negative disables the breakers.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// HTTPClient's Transport carries the forwards and the health probes
	// (nil: http.DefaultTransport), and its Timeout bounds each forward's
	// round trip and body read together (0: unbounded). A forward calls the
	// Transport directly, so a 3xx is relayed, not followed. nil uses a
	// client with a 15s timeout.
	HTTPClient *http.Client
	// Metrics receives the router's instrumentation; nil means a fresh
	// registry, retrievable via Router.Metrics.
	Metrics *metrics.Registry
}

// backend is one replica's routing state: health and epoch are written by
// the health loop, the breaker by the data path. url and name are made once
// at New and shared, never mutated, by every forward.
type backend struct {
	base    string
	url     *url.URL // base, parsed; a forward copies it
	name    []string // the X-Sky-Backend value of every relayed answer
	br      *client.Breaker
	healthy atomic.Bool
	epoch   atomic.Uint64
}

func newBackend(base string, br *client.Breaker) (*backend, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("router: backend %q: %w", base, err)
	}
	return &backend{base: base, url: u, name: []string{base}, br: br}, nil
}

// Router fans skyline reads out across replicas and forwards writes to the
// builder. It implements http.Handler with the same API surface the
// replicas expose, so clients point at the router unchanged.
type Router struct {
	mux         *http.ServeMux
	backends    []*backend // configured order: the pool's preference order
	primary     *backend   // nil: writes answer 501
	staleEpochs uint64
	interval    time.Duration
	httpc       *http.Client      // health probes
	transport   http.RoundTripper // forwards: httpc's Transport
	timeout     time.Duration     // one forward's bound: httpc's Timeout

	reg       *metrics.Registry
	requests  *metrics.Counter
	failovers *metrics.Counter
	sheds     *metrics.Counter
	noReplica *metrics.Counter
}

// maxProxyBody caps a buffered request or response body. Batch requests are
// bounded by the backend anyway; this only protects the router's memory.
const maxProxyBody = 64 << 20

// healthProbeTimeout bounds one /v1/ready round trip.
const healthProbeTimeout = 2 * time.Second

// New builds a router over the configured replica pool.
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("router: at least one replica is required")
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = time.Second
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{Timeout: 15 * time.Second}
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = client.DefaultBreakerThreshold
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	rt := &Router{
		staleEpochs: cfg.StaleEpochs,
		interval:    cfg.HealthInterval,
		httpc:       cfg.HTTPClient,
		transport:   cfg.HTTPClient.Transport,
		timeout:     cfg.HTTPClient.Timeout,
		reg:         reg,
		requests: reg.Counter("skyrouter_requests_total",
			"Requests routed, all endpoints."),
		failovers: reg.Counter("skyrouter_failovers_total",
			"Reads answered by a non-first candidate after earlier ones failed."),
		sheds: reg.Counter("skyrouter_sheds_total",
			"Reads where every candidate shed; the shed was forwarded."),
		noReplica: reg.Counter("skyrouter_no_replica_total",
			"Reads with no usable candidate (all breakers open or all failed)."),
	}
	if rt.transport == nil {
		rt.transport = http.DefaultTransport
	}
	if cfg.Primary != "" {
		var err error
		if rt.primary, err = newBackend(trimSlash(cfg.Primary), nil); err != nil {
			return nil, err
		}
	}
	seen := make(map[string]bool, len(cfg.Replicas))
	for _, raw := range cfg.Replicas {
		base := trimSlash(raw)
		if seen[base] {
			return nil, fmt.Errorf("router: duplicate replica %q", base)
		}
		seen[base] = true
		b, err := newBackend(base, client.NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown))
		if err != nil {
			return nil, err
		}
		// Optimistic until the first health pass: with no data yet, every
		// candidate sorts equal instead of all landing in the last-resort
		// bucket.
		b.healthy.Store(true)
		rt.backends = append(rt.backends, b)
	}
	rt.initRoutes()
	return rt, nil
}

func trimSlash(s string) string {
	for len(s) > 0 && s[len(s)-1] == '/' {
		s = s[:len(s)-1]
	}
	return s
}

func (rt *Router) initRoutes() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.handleHealth)
	mux.HandleFunc("GET /v1/health", rt.handleHealth)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /v1/skyline", rt.handleRead)
	mux.HandleFunc("POST /v1/skyline/batch", rt.handleRead)
	mux.HandleFunc("GET /v1/stats", rt.handleRead)
	mux.HandleFunc("POST /v1/points", rt.handleWrite)
	mux.HandleFunc("DELETE /v1/points/{id}", rt.handleWrite)
	rt.mux = mux
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.requests.Inc()
	rt.mux.ServeHTTP(w, r)
}

// Metrics returns the router's registry.
func (rt *Router) Metrics() *metrics.Registry { return rt.reg }

// Run polls replica health until ctx is done.
func (rt *Router) Run(ctx context.Context) {
	rt.HealthCheck(ctx)
	t := time.NewTicker(rt.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.HealthCheck(ctx)
		}
	}
}

// HealthCheck probes every replica's /v1/ready once, concurrently, and
// updates the pool's health and epoch view. Exported so tests drive the
// pool state deterministically instead of racing a background loop.
func (rt *Router) HealthCheck(ctx context.Context) {
	var wg sync.WaitGroup
	for _, b := range rt.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			rt.probe(ctx, b)
		}(b)
	}
	wg.Wait()
}

// probe checks one replica's readiness rather than its liveness: /v1/ready
// distinguishes "process up, snapshot not yet published" (WAL replay or
// replica bootstrap in progress — alive but unable to answer queries) from
// actually serving.
func (rt *Router) probe(ctx context.Context, b *backend) {
	ctx, cancel := context.WithTimeout(ctx, healthProbeTimeout)
	defer cancel()
	status, epoch, hasEpoch, err := rt.probeURL(ctx, b.base+"/v1/ready")
	ok := false
	if err == nil {
		ok = status == http.StatusOK
		if hasEpoch {
			b.epoch.Store(epoch)
		}
	}
	b.healthy.Store(ok)
	up := 0.0
	if ok {
		up = 1
	}
	rt.reg.Gauge("skyrouter_backend_healthy",
		"1 while the replica's last health probe succeeded.", "backend", b.base).Set(up)
	rt.reg.Gauge("skyrouter_backend_epoch",
		"Snapshot epoch the replica last reported.", "backend", b.base).
		Set(float64(b.epoch.Load()))
}

// probeURL performs one probe round trip, reporting the status and the
// X-Sky-Epoch header when present (hasEpoch distinguishes a missing header
// from epoch 0, so a 503 from a still-starting gate never zeroes the view).
func (rt *Router) probeURL(ctx context.Context, url string) (status int, epoch uint64, hasEpoch bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, 0, false, err
	}
	resp, err := rt.httpc.Do(req)
	if err != nil {
		return 0, 0, false, err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if e, perr := strconv.ParseUint(resp.Header.Get("X-Sky-Epoch"), 10, 64); perr == nil {
		epoch, hasEpoch = e, true
	}
	return resp.StatusCode, epoch, hasEpoch, nil
}

// candidates appends the replicas to out in try-order: the configured
// order, partitioned healthy-and-fresh first, then healthy-but-stale, then
// unhealthy as a last resort (a probe may be wrong, and a stale answer from
// a live replica beats no answer).
func (rt *Router) candidates(out []*backend) []*backend {
	var maxEpoch uint64
	for _, b := range rt.backends {
		if e := b.epoch.Load(); e > maxEpoch {
			maxEpoch = e
		}
	}
	fresh := func(b *backend) bool {
		return b.epoch.Load()+rt.staleEpochs >= maxEpoch
	}
	for _, b := range rt.backends { // healthy + fresh
		if b.healthy.Load() && fresh(b) {
			out = append(out, b)
		}
	}
	for _, b := range rt.backends { // healthy + stale
		if b.healthy.Load() && !fresh(b) {
			out = append(out, b)
		}
	}
	for _, b := range rt.backends { // unhealthy
		if !b.healthy.Load() {
			out = append(out, b)
		}
	}
	return out
}

// bufferedResp is a fully-read backend response, safe to forward: the body
// arrived complete before the first byte goes to the client, so a replica
// dying mid-transfer can never produce a torn downstream answer. Its body is
// pooled (client.ReadBody): whoever holds it last calls release, written or
// dropped.
type bufferedResp struct {
	status  int
	header  http.Header
	body    *[]byte
	backend []string // X-Sky-Backend
}

// forwardHeaders are the response headers the router relays, in canonical
// form, because the relay reads and writes the header maps directly.
var forwardHeaders = []string{"Content-Type", "X-Sky-Epoch", "Etag", "Retry-After", "Location"}

// write relays the answer. The relayed headers share the backend's value
// slices, which nothing mutates once the response is read.
func (br bufferedResp) write(w http.ResponseWriter) {
	h := w.Header()
	for _, k := range forwardHeaders {
		if v := br.header[k]; len(v) > 0 && v[0] != "" {
			h[k] = v
		}
	}
	h["X-Sky-Backend"] = br.backend
	w.WriteHeader(br.status)
	w.Write(*br.body)
}

func (br bufferedResp) release() { client.ReleaseBody(br.body) }

func (br bufferedResp) shed() bool {
	return br.status == http.StatusTooManyRequests ||
		(br.status == http.StatusServiceUnavailable && br.header.Get("Retry-After") != "")
}

// hopHeader is the header of every bodiless forward, shared and never
// mutated. Asking for an identity body keeps the transport from adding an
// Accept-Encoding of its own, which costs a header map per request.
var hopHeader = http.Header{"Accept-Encoding": {"identity"}}

// forward replays the (already buffered) request against one backend
// through the transport and buffers the full response. The configured
// Timeout bounds the round trip and the body read together.
func (rt *Router) forward(r *http.Request, body []byte, b *backend) (bufferedResp, error) {
	ctx := r.Context()
	if rt.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, rt.timeout)
		defer cancel()
	}
	u := *b.url // a base with a path prefixes it to the request's
	u.Path, u.RawPath, u.RawQuery = b.url.Path+r.URL.Path, "", r.URL.RawQuery
	out := http.Request{
		Method: r.Method, URL: &u, Header: hopHeader,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
	}
	if body != nil {
		out.Header = hopHeader.Clone()
		if ct := r.Header.Get("Content-Type"); ct != "" {
			out.Header.Set("Content-Type", ct)
		}
		out.ContentLength = int64(len(body))
		out.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
		out.Body, _ = out.GetBody()
	}
	resp, err := rt.transport.RoundTrip(out.WithContext(ctx))
	if err != nil {
		return bufferedResp{}, err
	}
	defer resp.Body.Close()
	br := bufferedResp{status: resp.StatusCode, header: resp.Header, backend: b.name}
	br.body, err = client.ReadBody(resp.Body, resp.ContentLength, maxProxyBody)
	if err != nil {
		br.release()
		return bufferedResp{}, fmt.Errorf("read %s response: %w", b.base, err)
	}
	return br, nil
}

// handleRead routes one read with failover. Candidates are tried in order;
// network errors and 5xx fail over to the next (recording a breaker
// failure), sheds are remembered and failed over (recording success — a
// shedding replica is alive), anything else is forwarded as-is. A 501 is a
// healthy node's answer that it does not serve the request (a kind its
// file lacks): it records success, counts as no failure, and the next
// candidate is asked. If every candidate shed, the first shed is
// forwarded; else if one answered 501, the first 501 is; if none was
// usable, 503 + Retry-After. A caller that hangs up ends the read at once:
// its cancellation is no replica's failure, so it counts on no breaker, and
// a half-open probe it held is handed back (Breaker.Abandon).
func (rt *Router) handleRead(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, err.Error())
		return
	}
	var firstShed, firstUnserved bufferedResp
	defer func() {
		firstShed.release()
		firstUnserved.release()
	}()
	tried, unserved := 0, 0
	var room [8]*backend // a pool of up to 8 is ordered on the stack
	for _, b := range rt.candidates(room[:0]) {
		if !b.br.Allow() {
			continue
		}
		tried++
		resp, err := rt.forward(r, body, b)
		if err != nil {
			if r.Context().Err() != nil {
				b.br.Abandon() // a half-open probe goes to the next caller
				return
			}
			b.br.Record(false)
			rt.backendErrs(b).Inc()
			log.Printf("skyrouter: %s %s via %s: %v", r.Method, r.URL.Path, b.base, err)
			continue
		}
		switch {
		case resp.shed():
			b.br.Record(true)
			if firstShed.body == nil {
				firstShed = resp
			} else {
				resp.release()
			}
		case resp.status == http.StatusNotImplemented:
			b.br.Record(true)
			unserved++
			if firstUnserved.body == nil {
				firstUnserved = resp
			} else {
				resp.release()
			}
		case resp.status >= 500:
			b.br.Record(false)
			rt.backendErrs(b).Inc()
			resp.release()
		default:
			b.br.Record(true)
			if tried-unserved > 1 {
				rt.failovers.Inc()
			}
			resp.write(w)
			resp.release()
			return
		}
	}
	if firstShed.body != nil {
		rt.sheds.Inc()
		firstShed.write(w)
		return
	}
	if firstUnserved.body != nil {
		firstUnserved.write(w)
		return
	}
	rt.noReplica.Inc()
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, "no replica available")
}

// handleWrite forwards a mutation to the builder — the single writer, so
// there is no failover target. Responses (including sheds) relay verbatim.
func (rt *Router) handleWrite(w http.ResponseWriter, r *http.Request) {
	if rt.primary == nil {
		writeError(w, http.StatusNotImplemented, "router has no primary; writes are not accepted")
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, err.Error())
		return
	}
	resp, err := rt.forward(r, body, rt.primary)
	if err != nil {
		writeError(w, http.StatusBadGateway, fmt.Sprintf("primary unreachable: %v", err))
		return
	}
	resp.write(w)
	resp.release()
}

func (rt *Router) backendErrs(b *backend) *metrics.Counter {
	return rt.reg.Counter("skyrouter_backend_errors_total",
		"Network errors and 5xx responses other than 501, by backend.", "backend", b.base)
}

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.Body == nil || r.ContentLength == 0 {
		return nil, nil
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxProxyBody)
	return io.ReadAll(r.Body)
}

// replicaHealth is one pool member's state in the router health response.
type replicaHealth struct {
	Backend string `json:"backend"`
	Healthy bool   `json:"healthy"`
	Epoch   uint64 `json:"epoch"`
	Breaker string `json:"breaker"`
}

func (rt *Router) handleHealth(w http.ResponseWriter, _ *http.Request) {
	out := struct {
		Status   string          `json:"status"`
		Epoch    uint64          `json:"epoch"`
		Replicas []replicaHealth `json:"replicas"`
	}{Status: "ok"}
	healthyN := 0
	for _, b := range rt.backends {
		rh := replicaHealth{
			Backend: b.base,
			Healthy: b.healthy.Load(),
			Epoch:   b.epoch.Load(),
			Breaker: b.br.State(),
		}
		if rh.Healthy {
			healthyN++
		}
		if rh.Epoch > out.Epoch {
			out.Epoch = rh.Epoch
		}
		out.Replicas = append(out.Replicas, rh)
	}
	if healthyN == 0 {
		out.Status = "degraded"
	}
	w.Header().Set("X-Sky-Epoch", strconv.FormatUint(out.Epoch, 10))
	writeJSON(w, http.StatusOK, out)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", metrics.ContentType)
	_ = rt.reg.WritePrometheus(w)
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{msg})
}
