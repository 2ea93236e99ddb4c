package client

import (
	"sync"
	"sync/atomic"
	"time"
)

// Breaker is a circuit breaker shared by the typed Client and the routing
// tier: after threshold consecutive failures it opens and fails every call
// fast for a cooldown, then admits exactly one half-open probe whose outcome
// decides between closing again and another cooldown.
//
// It is deliberately outcome-agnostic: callers classify what counts as a
// failure. The Client (and the router) record deliberate sheds — 429/503
// with Retry-After — as successes, because a shedding server is alive and
// protecting itself; only 5xx and network errors push the breaker open.
//
// A nil *Breaker is valid and means "disabled": Allow always admits and
// Record is a no-op, so call sites need no nil checks.
type Breaker struct {
	threshold int
	cooldown  time.Duration

	mu          sync.Mutex
	consecFails int
	open        bool
	openUntil   time.Time
	probing     bool

	opens atomic.Int64
}

// Breaker states reported by State.
const (
	BreakerClosed   = "closed"
	BreakerOpen     = "open"
	BreakerHalfOpen = "half-open"
)

// NewBreaker builds a breaker that opens after threshold consecutive
// failures and cools down for cooldown before each half-open probe.
// threshold <= 0 returns nil — the disabled breaker. cooldown <= 0 uses
// DefaultBreakerCooldown.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		return nil
	}
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	return &Breaker{threshold: threshold, cooldown: cooldown}
}

// Allow reports whether a call may proceed. While open and cooling down it
// returns false; once the cooldown elapses exactly one caller is admitted as
// the half-open probe (concurrent callers keep failing fast until that
// probe's Record lands).
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	if time.Now().Before(b.openUntil) || b.probing {
		return false
	}
	b.probing = true
	return true
}

// Record feeds an allowed call's outcome back. Any success closes the
// breaker and resets the failure streak; a failure while open (a failed
// probe) or the threshold-th consecutive failure (re)opens it for another
// cooldown.
func (b *Breaker) Record(ok bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.open = false
		b.probing = false
		b.consecFails = 0
		return
	}
	b.consecFails++
	if b.open || b.consecFails >= b.threshold {
		b.open = true
		b.probing = false
		b.openUntil = time.Now().Add(b.cooldown)
		b.opens.Add(1)
	}
}

// Abandon hands back an allowed call that ended with no outcome, such as
// one whose own caller hung up. Nothing is counted and the breaker stays
// where it is; if the call was the half-open probe, the next caller is
// admitted as the probe instead.
func (b *Breaker) Abandon() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// Opens returns how many times the breaker has (re)opened.
func (b *Breaker) Opens() int64 {
	if b == nil {
		return 0
	}
	return b.opens.Load()
}

// State reports the breaker position for observability: closed, open, or
// half-open (cooldown elapsed or probe in flight). A nil breaker is closed.
func (b *Breaker) State() string {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case !b.open:
		return BreakerClosed
	case b.probing || !time.Now().Before(b.openUntil):
		return BreakerHalfOpen
	default:
		return BreakerOpen
	}
}
