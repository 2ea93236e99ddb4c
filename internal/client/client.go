// Package client is the Go client for the skyline query service
// (internal/server): typed wrappers over the HTTP JSON API with context
// support, bounded retries with jittered exponential backoff, Retry-After
// handling for shed requests, and a circuit breaker that stops hammering a
// service that is consistently failing.
//
// Retry rules are idempotency-aware. GETs retry on any network error, any
// 5xx, and shed (429/503) responses. POST and DELETE retry only when the
// request provably never reached the application: a connect-level (dial)
// failure, or a 429/503 shed response carrying Retry-After — the server
// sheds strictly before applying state, so those are safe to resend. A plain
// 5xx on a write is surfaced immediately rather than risking a double apply.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
)

// ErrBreakerOpen is returned without issuing a request while the circuit
// breaker is open: the service failed DefaultBreakerThreshold consecutive
// times and the cooldown has not elapsed.
var ErrBreakerOpen = errors.New("skyline client: circuit breaker open")

// Defaults for the resilience knobs.
const (
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = time.Second
	DefaultMaxBackoff       = 2 * time.Second
)

// Client talks to one skyline query service. It is safe for concurrent use.
type Client struct {
	base       string
	transport  http.RoundTripper // carries every request
	timeout    time.Duration     // one attempt's bound; 0 is none
	retries    int
	backoff    time.Duration
	maxBackoff time.Duration

	breakerThreshold int
	breakerCooldown  time.Duration
	br               *Breaker

	nRetries  atomic.Int64
	nShed     atomic.Int64
	lastEpoch atomic.Uint64
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient sets what carries the requests: h's Transport (nil:
// http.DefaultTransport), with h's Timeout bounding each attempt's round
// trip and body read together (0: unbounded). Nothing else of h is used:
// a request calls the Transport directly, as the router's forwards do, so
// no redirect is followed and no cookie jar is consulted. The default is
// http.DefaultTransport with a 10s timeout.
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.transport, c.timeout = h.Transport, h.Timeout }
}

// WithRetries sets how many times a retryable failure is retried. Default 2.
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithBackoff sets the base delay between retries; each retry doubles it
// (plus up to 50% jitter) up to the max backoff. Default 50ms.
func WithBackoff(d time.Duration) Option { return func(c *Client) { c.backoff = d } }

// WithMaxBackoff caps the exponential backoff. Default 2s.
func WithMaxBackoff(d time.Duration) Option { return func(c *Client) { c.maxBackoff = d } }

// WithBreaker tunes the circuit breaker: after threshold consecutive
// failures (5xx or network errors — shed responses do not count) the
// breaker opens and requests fail fast with ErrBreakerOpen until cooldown
// elapses, when a single half-open probe is let through. threshold <= 0
// disables the breaker. Defaults: threshold 5, cooldown 1s.
func WithBreaker(threshold int, cooldown time.Duration) Option {
	return func(c *Client) {
		c.breakerThreshold = threshold
		if cooldown > 0 {
			c.breakerCooldown = cooldown
		}
	}
}

// New creates a client for the service at base (e.g. "http://localhost:8080").
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:             strings.TrimRight(base, "/"),
		timeout:          10 * time.Second,
		retries:          2,
		backoff:          50 * time.Millisecond,
		maxBackoff:       DefaultMaxBackoff,
		breakerThreshold: DefaultBreakerThreshold,
		breakerCooldown:  DefaultBreakerCooldown,
	}
	for _, o := range opts {
		o(c)
	}
	if c.transport == nil {
		c.transport = http.DefaultTransport
	}
	c.br = NewBreaker(c.breakerThreshold, c.breakerCooldown)
	return c
}

// Counters are cumulative resilience statistics for one Client.
type Counters struct {
	Retries      int64 // re-attempts issued after a retryable failure
	Shed         int64 // 429 / Retry-After 503 responses received
	BreakerOpens int64 // times the circuit breaker (re)opened
}

// Counters returns a snapshot of the client's resilience counters.
func (c *Client) Counters() Counters {
	return Counters{
		Retries:      c.nRetries.Load(),
		Shed:         c.nShed.Load(),
		BreakerOpens: c.br.Opens(),
	}
}

// LastEpoch returns the highest snapshot epoch observed in any response's
// X-Sky-Epoch header — which published generation of the diagram the service
// (or the replica a router picked) answered from. 0 until an epoch-stamped
// response arrives.
func (c *Client) LastEpoch() uint64 { return c.lastEpoch.Load() }

// APIError is a non-2xx response from the service.
type APIError struct {
	StatusCode int
	Message    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("skyline service: HTTP %d: %s", e.StatusCode, e.Message)
}

// Stats mirrors the /v1/stats response.
type Stats struct {
	Points         int  `json:"points"`
	Cells          int  `json:"cells"`
	Polyominoes    int  `json:"polyominoes"`
	DynamicEnabled bool `json:"dynamic_enabled"`
	Subcells       int  `json:"subcells"`
}

// Result mirrors the /v1/skyline response.
type Result struct {
	Kind   string    `json:"kind"`
	Query  []float64 `json:"query"`
	IDs    []int32   `json:"ids"`
	Points []Point   `json:"points"`
}

// Point is one result point.
type Point struct {
	ID     int       `json:"id"`
	Coords []float64 `json:"coords"`
}

// Health checks the service's liveness endpoint.
func (c *Client) Health(ctx context.Context) error {
	return c.getJSON(ctx, "/healthz", &struct{}{})
}

// Stats fetches the dataset and diagram sizes.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var s Stats
	err := c.getJSON(ctx, "/v1/stats", &s)
	return s, err
}

// Skyline answers a skyline query of the given kind ("quadrant", "global",
// or "dynamic") at (x, y).
func (c *Client) Skyline(ctx context.Context, kind string, x, y float64) (Result, error) {
	var room [128]byte
	u := append(room[:0], c.base...)
	u = append(u, "/v1/skyline?kind="...)
	u = append(u, url.QueryEscape(kind)...)
	u = append(u, "&x="...)
	u = appendQueryFloat(u, x)
	u = append(u, "&y="...)
	u = appendQueryFloat(u, y)
	var r Result
	err := c.do(ctx, http.MethodGet, string(u), nil, func(data []byte) (err error) {
		r, err = decodeResult(data)
		return err
	})
	return r, err
}

// appendQueryFloat appends f as %g formats it, with an exponent's '+'
// escaped: a bare '+' in a query value decodes as a space.
func appendQueryFloat(b []byte, f float64) []byte {
	var room [32]byte
	for _, c := range strconv.AppendFloat(room[:0], f, 'g', -1, 64) {
		if c == '+' {
			b = append(b, "%2B"...)
		} else {
			b = append(b, c)
		}
	}
	return b
}

// Insert adds a point to the served dataset.
func (c *Client) Insert(ctx context.Context, p geom.Point) error {
	body, err := json.Marshal(map[string]interface{}{"id": p.ID, "coords": p.Coords})
	if err != nil {
		return err
	}
	return c.do(ctx, http.MethodPost, c.base+"/v1/points", body, nil)
}

// Delete removes a point from the served dataset.
func (c *Client) Delete(ctx context.Context, id int) error {
	return c.do(ctx, http.MethodDelete, c.base+"/v1/points/"+strconv.Itoa(id), nil, nil)
}

func (c *Client) getJSON(ctx context.Context, path string, out interface{}) error {
	return c.do(ctx, http.MethodGet, c.base+path, nil, func(data []byte) error {
		return json.Unmarshal(data, out)
	})
}

// do issues the request to target (the base URL and a path) under the retry
// policy described in the package comment, consulting the circuit breaker
// before every attempt. A 2xx body goes to decode, when there is one, which
// must not keep it: the body is read into a pooled buffer.
func (c *Client) do(ctx context.Context, method, target string, body []byte, decode func([]byte) error) error {
	path := target[len(c.base):] // what errors name
	idempotent := method == http.MethodGet
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if err := c.breakerAllow(); err != nil {
			if lastErr != nil {
				return fmt.Errorf("skyline service: %s %s: %w (last error: %v)",
					method, path, err, lastErr)
			}
			return fmt.Errorf("skyline service: %s %s: %w", method, path, err)
		}
		if attempt > 0 {
			c.nRetries.Add(1)
		}
		// The timeout bounds the round trip and the body read together.
		actx, cancel := ctx, context.CancelFunc(func() {})
		if c.timeout > 0 {
			actx, cancel = context.WithTimeout(ctx, c.timeout)
		}
		var rd io.Reader
		header := identityHeader
		if body != nil {
			rd, header = bytes.NewReader(body), jsonBodyHeader
		}
		req, err := http.NewRequestWithContext(actx, method, target, rd)
		if err != nil {
			cancel()
			return err
		}
		req.Header = header
		resp, bp, err := c.send(req)
		cancel()
		if err != nil {
			if ctx.Err() != nil {
				// The caller gave up: no outcome of the service's, so the
				// attempt counts on no breaker, and is not retried.
				c.br.Abandon()
				return fmt.Errorf("skyline service: %s %s: %w", method, path, err)
			}
			c.breakerRecord(false)
			lastErr = err
			if !idempotent && !isConnectError(err) {
				// The write may have reached the server; resending could
				// apply it twice.
				return fmt.Errorf("skyline service: %s %s: %w", method, path, err)
			}
			if attempt < c.retries {
				if err := c.sleep(ctx, c.delay(attempt)); err != nil {
					return err
				}
			}
			continue
		}
		if e := parseEpoch(resp.Header.Get("X-Sky-Epoch")); e > 0 {
			// Track the highest snapshot generation seen, monotonically.
			for {
				cur := c.lastEpoch.Load()
				if e <= cur || c.lastEpoch.CompareAndSwap(cur, e) {
					break
				}
			}
		}
		sc := resp.StatusCode
		// Everything the attempt needs of the body is taken from it before
		// it goes back to the pool.
		var msg string
		var decodeErr error
		switch {
		case sc < 200 || sc >= 300:
			msg = errMessage(*bp)
		case decode != nil:
			decodeErr = decode(*bp)
		}
		ReleaseBody(bp)

		retryAfter, hasRetryAfter := parseRetryAfter(resp.Header.Get("Retry-After"))
		shed := sc == http.StatusTooManyRequests ||
			(sc == http.StatusServiceUnavailable && hasRetryAfter)
		switch {
		case shed:
			// A deliberate shed: the server is alive and protecting itself,
			// and it sheds before touching state, so even writes are safe to
			// resend. Not a breaker failure.
			c.nShed.Add(1)
			c.breakerRecord(true)
			lastErr = &APIError{StatusCode: sc, Message: msg}
			if !idempotent && !hasRetryAfter {
				return lastErr
			}
			if attempt < c.retries {
				wait := retryAfter
				if wait <= 0 {
					wait = c.delay(attempt)
				}
				if err := c.sleep(ctx, wait); err != nil {
					return err
				}
			}
		case sc >= 500:
			c.breakerRecord(false)
			lastErr = &APIError{StatusCode: sc, Message: msg}
			if !idempotent {
				return lastErr
			}
			if attempt < c.retries {
				if err := c.sleep(ctx, c.delay(attempt)); err != nil {
					return err
				}
			}
		case sc < 200 || sc >= 300:
			c.breakerRecord(true)
			return &APIError{StatusCode: sc, Message: msg}
		default:
			c.breakerRecord(true)
			if decodeErr != nil {
				return fmt.Errorf("skyline service: decode %s: %w", path, decodeErr)
			}
			return nil
		}
	}
	return fmt.Errorf("skyline service: %s %s failed after %d attempts: %w",
		method, path, c.retries+1, lastErr)
}

// The headers of every request, shared and never mutated. Asking for an
// identity body keeps the transport from adding an Accept-Encoding of its
// own, which costs a header map per request.
var (
	identityHeader = http.Header{"Accept-Encoding": {"identity"}}
	jsonBodyHeader = http.Header{"Accept-Encoding": {"identity"}, "Content-Type": {"application/json"}}
)

// send sends req through the transport and reads the whole response body
// into a pooled buffer, which the caller passes to ReleaseBody. An error
// leaves no response and no buffer: a body that cannot be read whole fails
// the attempt as a lost connection does.
func (c *Client) send(req *http.Request) (*http.Response, *[]byte, error) {
	resp, err := c.transport.RoundTrip(req)
	if err != nil {
		return nil, nil, err
	}
	bp, err := ReadBody(resp.Body, resp.ContentLength, math.MaxInt)
	resp.Body.Close()
	if err != nil {
		ReleaseBody(bp)
		return nil, nil, err
	}
	return resp, bp, nil
}

// bodyPool recycles response bodies, stored as *[]byte so Put does not
// allocate. A body over maxPooledBody is left to the collector.
var bodyPool sync.Pool

const maxPooledBody = 64 << 10

// ReadBody reads rd to EOF, at most limit bytes, into a pooled buffer with
// room for size (the body's Content-Length, -1 when unknown) and for the
// read that sees EOF, so a body of known length is read without growing
// the buffer. The length is trusted only up to maxPooledBody: a larger or
// a false one cannot allocate more than that before the bytes arrive, and
// the buffer grows as they do, as io.ReadAll's does. The buffer is
// returned on error too; pass it to ReleaseBody once nothing reads it. The
// router buffers its forwards through it.
func ReadBody(rd io.Reader, size int64, limit int) (*[]byte, error) {
	want := 512 // io.ReadAll's first buffer, for a body of unknown length
	if size >= 0 {
		want = int(min(size, int64(limit), maxPooledBody-1)) + 1
	}
	bp, _ := bodyPool.Get().(*[]byte)
	if bp == nil || cap(*bp) < want {
		if bp != nil {
			bodyPool.Put(bp)
		}
		b := make([]byte, 0, want)
		bp = &b
	}
	b := (*bp)[:0]
	var err error
	for len(b) < limit {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		var n int
		n, err = rd.Read(b[len(b):min(cap(b), limit)])
		b = b[:len(b)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			break
		}
	}
	*bp = b
	return bp, err
}

// ReleaseBody returns a ReadBody buffer to the pool.
func ReleaseBody(bp *[]byte) {
	if bp != nil && cap(*bp) <= maxPooledBody {
		bodyPool.Put(bp)
	}
}

// breakerAllow gates an attempt on the circuit breaker: open and cooling
// down fails fast, open past cooldown admits exactly one half-open probe.
// The mechanics live in the exported Breaker, shared with internal/router.
func (c *Client) breakerAllow() error {
	if !c.br.Allow() {
		return ErrBreakerOpen
	}
	return nil
}

// breakerRecord feeds an attempt's outcome to the breaker.
func (c *Client) breakerRecord(ok bool) { c.br.Record(ok) }

// parseEpoch decodes an X-Sky-Epoch header; malformed or absent is 0.
func parseEpoch(h string) uint64 {
	if h == "" {
		return 0
	}
	e, err := strconv.ParseUint(h, 10, 64)
	if err != nil {
		return 0
	}
	return e
}

// delay computes the backoff before re-attempt number attempt+1:
// exponential from the base with up to 50% added jitter, capped.
func (c *Client) delay(attempt int) time.Duration {
	d := c.backoff
	for i := 0; i < attempt && d < c.maxBackoff; i++ {
		d *= 2
	}
	if c.maxBackoff > 0 && d > c.maxBackoff {
		d = c.maxBackoff
	}
	return time.Duration(float64(d) * (1 + 0.5*rand.Float64()))
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// isConnectError reports whether err happened while dialing, before any
// byte of the request could have been delivered — the only class of network
// error where resending a non-idempotent request cannot double-apply it.
func isConnectError(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// parseRetryAfter parses a Retry-After header as either delay-seconds or an
// HTTP date. The bool reports whether the header carried a usable value;
// the duration may be zero ("retry immediately"). Waits are capped at 5s so
// a confused server cannot stall the client arbitrarily.
func parseRetryAfter(h string) (time.Duration, bool) {
	const maxWait = 5 * time.Second
	if h == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(h); err == nil && secs >= 0 {
		d := time.Duration(secs) * time.Second
		if d > maxWait {
			d = maxWait
		}
		return d, true
	}
	if t, err := http.ParseTime(h); err == nil {
		d := time.Until(t)
		if d < 0 {
			d = 0
		}
		if d > maxWait {
			d = maxWait
		}
		return d, true
	}
	return 0, false
}

func errMessage(data []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return e.Error
	}
	msg := strings.TrimSpace(string(data))
	if len(msg) > 200 {
		msg = msg[:200]
	}
	return msg
}
