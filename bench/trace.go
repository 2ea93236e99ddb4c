package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing lives entirely in this benchmark: spans are recorded around the
// public entry points of each layer (client calls, Router.ServeHTTP, the
// router's and replica's HTTP transports, Handler.ServeHTTP,
// Replica.Refresh), and the span id travels from node to node in an extra
// query parameter. The router forwards RawQuery verbatim and the server
// ignores parameters it does not know, so the program is unchanged.

// spanParam is the query parameter carrying the caller's span id.
const spanParam = "bspan"

// span is one timed interval at a layer boundary. Module names the layer:
// op (the generator's root span of a request), client, router, server or
// replica. Op names the request type (read, batch, write, visible,
// snapshot, refresh), or hop for a transport's round trip to the next node.
// Start and End are nanoseconds since the tracer's origin.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Module string `json:"module"`
	Op     string `json:"op"`
	Node   string `json:"node,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span in memory until the run ends. A nil tracer
// records nothing, which is how untraced runs skip all of this.
type tracer struct {
	origin time.Time
	next   atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer(origin time.Time) *tracer {
	return &tracer{origin: origin, spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.origin)) }

func (t *tracer) newID() uint64 { return t.next.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// all returns the recorded spans.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type ctxKey int

const (
	spanKey ctxKey = iota
	epochKey
)

// withSpan makes id the parent of whatever the callee records.
func withSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanKey, id)
}

func spanOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey).(uint64)
	return id
}

// withEpochSlot asks the transport to store the response's X-Sky-Epoch.
func withEpochSlot(ctx context.Context, slot *uint64) context.Context {
	return context.WithValue(ctx, epochKey, slot)
}

// spanFromQuery extracts the span id from a raw query string, 0 if absent.
func spanFromQuery(raw string) uint64 {
	for _, kv := range strings.Split(raw, "&") {
		if v, ok := strings.CutPrefix(kv, spanParam+"="); ok {
			id, _ := strconv.ParseUint(v, 10, 64)
			return id
		}
	}
	return 0
}

// setSpanQuery returns raw with the span parameter set to id.
func setSpanQuery(raw string, id uint64) string {
	var kept []string
	for _, kv := range strings.Split(raw, "&") {
		if kv != "" && !strings.HasPrefix(kv, spanParam+"=") {
			kept = append(kept, kv)
		}
	}
	kept = append(kept, spanParam+"="+strconv.FormatUint(id, 10))
	return strings.Join(kept, "&")
}

// transport wraps an http.RoundTripper. Its parent span comes from the
// request context (a client call or a Refresh) or, for the router's
// forwarded requests, from the span parameter the router copied over. With
// module set and a tracer present it records a hop span covering the round
// trip until the response body is drained, and passes the hop's id on;
// otherwise it passes the parent's id on unchanged. It also stores the
// response epoch when the context asks for it.
type transport struct {
	base   http.RoundTripper
	tr     *tracer
	module string
	node   string
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx := req.Context()
	parent := spanOf(ctx)
	if parent == 0 {
		parent = spanFromQuery(req.URL.RawQuery)
	}
	var hop span
	if parent != 0 {
		id := parent
		if t.module != "" && t.tr != nil {
			hop = span{ID: t.tr.newID(), Parent: parent, Module: t.module, Op: "hop", Node: t.node, Start: t.tr.now()}
			id = hop.ID
		}
		req = req.Clone(ctx)
		req.URL.RawQuery = setSpanQuery(req.URL.RawQuery, id)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if slot, ok := ctx.Value(epochKey).(*uint64); ok {
		*slot, _ = strconv.ParseUint(resp.Header.Get("X-Sky-Epoch"), 10, 64)
	}
	if hop.ID != 0 {
		resp.Body = &hopBody{ReadCloser: resp.Body, end: func() {
			hop.End = t.tr.now()
			t.tr.add(hop)
		}}
	}
	return resp, nil
}

// hopBody ends the hop span at the first EOF or Close, whichever comes
// first: the hop covers the whole transfer, not just the headers.
type hopBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *hopBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.once.Do(b.end)
	}
	return n, err
}

func (b *hopBody) Close() error {
	b.once.Do(b.end)
	return b.ReadCloser.Close()
}

// traceHandler records a span around a node's ServeHTTP for requests that
// carry a span id, and rewrites the parameter to its own id so whatever the
// node forwards is parented to it. op classifies the request by route.
func traceHandler(h http.Handler, tr *tracer, module, node string) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent := spanFromQuery(r.URL.RawQuery)
		if parent == 0 {
			h.ServeHTTP(w, r)
			return
		}
		s := span{ID: tr.newID(), Parent: parent, Module: module, Op: routeOp(r), Node: node, Start: tr.now()}
		r.URL.RawQuery = setSpanQuery(r.URL.RawQuery, s.ID)
		h.ServeHTTP(w, r)
		s.End = tr.now()
		tr.add(s)
	})
}

// routeOp names the request type of an API request.
func routeOp(r *http.Request) string {
	switch {
	case r.URL.Path == "/v1/skyline":
		return "read"
	case r.URL.Path == "/v1/skyline/batch":
		return "batch"
	case r.URL.Path == "/v1/snapshot":
		return "snapshot"
	case strings.HasPrefix(r.URL.Path, "/v1/points"):
		return "write"
	}
	return "other"
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children's intervals.
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
			continue
		}
		hi = max(hi, x[1])
	}
	return total + hi - lo
}
