// Package faultinject is a process-wide failpoint registry for reliability
// testing: named sites in production code call Hit, and a test (or an
// operator running a chaos drill) activates a spec describing which sites
// misbehave and how — returning errors, sleeping, or panicking, each with an
// optional probability and fire budget.
//
// The registry costs one atomic load per site when nothing is activated, so
// failpoints can stay compiled into hot paths (file opens, fsyncs, request
// handlers) without measurable overhead in production.
//
// A spec is a semicolon-separated list of failpoints:
//
//	site=mode[:arg][@probability][#count]
//
//	store.open.read=error             every hit fails
//	server.query=latency:5ms@0.2      20% of hits sleep 5ms
//	store.create.rename=error#1       only the first hit fails
//	server.query=panic:boom@0.01#3    1% of hits panic, at most three times
//
// Modes are error (arg: message), latency (arg: Go duration, required), and
// panic (arg: message). Probabilities draw from a deterministic generator
// seeded via Seed, so a chaos run is reproducible. Activation comes from
// Activate (tests), or FromEnv reading the SKYFAULTS environment variable
// (operators; cmd/skyserve also exposes it as the -faults flag).
//
// Injected errors wrap ErrInjected so callers and assertions can tell an
// injected failure from a real one.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// EnvVar is the environment variable FromEnv reads a spec from.
const EnvVar = "SKYFAULTS"

// ErrInjected is the root of every error returned by an activated failpoint.
var ErrInjected = errors.New("injected fault")

// enabled gates every Hit call: a single atomic load, false whenever no spec
// is active, so disabled sites cost nothing beyond it.
var enabled atomic.Bool

var (
	mu    sync.Mutex
	table map[string]*failpoint
	rng   = rand.New(rand.NewSource(1))
)

type failpoint struct {
	mode  string        // "error", "latency", or "panic"
	msg   string        // error/panic message suffix
	delay time.Duration // latency mode only
	prob  float64       // (0, 1]; 1 = always
	left  int64         // remaining fires; -1 = unlimited
	hits  int64         // times this site actually fired
}

// Activate replaces the active configuration with the parsed spec and
// enables injection. An empty spec is equivalent to Deactivate.
func Activate(spec string) error {
	parsed, err := parse(spec)
	if err != nil {
		return err
	}
	mu.Lock()
	table = parsed
	mu.Unlock()
	enabled.Store(len(parsed) > 0)
	return nil
}

// Deactivate clears every failpoint; Hit returns to its zero-cost path.
func Deactivate() {
	mu.Lock()
	table = nil
	mu.Unlock()
	enabled.Store(false)
}

// Seed reseeds the probability generator, making @p draws reproducible.
func Seed(seed int64) {
	mu.Lock()
	rng = rand.New(rand.NewSource(seed))
	mu.Unlock()
}

// FromEnv activates the spec in SKYFAULTS, if any. It returns an error only
// for a malformed spec; an unset or empty variable is a no-op.
func FromEnv() error {
	spec := os.Getenv(EnvVar)
	if spec == "" {
		return nil
	}
	return Activate(spec)
}

// Enabled reports whether any failpoint is active.
func Enabled() bool { return enabled.Load() }

// Hits returns how many times the named site fired (not merely evaluated)
// since its activation.
func Hits(site string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if fp := table[site]; fp != nil {
		return fp.hits
	}
	return 0
}

// Sites lists the currently configured site names.
func Sites() []string {
	mu.Lock()
	defer mu.Unlock()
	names := make([]string, 0, len(table))
	for name := range table {
		names = append(names, name)
	}
	return names
}

// Hit evaluates the named failpoint. With nothing activated it is a single
// atomic load. An active error-mode point returns an error wrapping
// ErrInjected, a latency point sleeps and returns nil, and a panic point
// panics — exercising the caller's recovery path.
func Hit(site string) error {
	if !enabled.Load() {
		return nil
	}
	return hit(site)
}

func hit(site string) error {
	mu.Lock()
	fp := table[site]
	if fp == nil || fp.left == 0 {
		mu.Unlock()
		return nil
	}
	if fp.prob < 1 && rng.Float64() >= fp.prob {
		mu.Unlock()
		return nil
	}
	if fp.left > 0 {
		fp.left--
	}
	fp.hits++
	mode, msg, delay := fp.mode, fp.msg, fp.delay
	mu.Unlock()

	switch mode {
	case "latency":
		time.Sleep(delay)
		return nil
	case "panic":
		panic(fmt.Sprintf("faultinject: panic at %s%s", site, msg))
	default:
		return fmt.Errorf("%w at %s%s", ErrInjected, site, msg)
	}
}

func parse(spec string) (map[string]*failpoint, error) {
	parsed := make(map[string]*failpoint)
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		site, rest, ok := strings.Cut(part, "=")
		site = strings.TrimSpace(site)
		if !ok || site == "" {
			return nil, fmt.Errorf("faultinject: %q: want site=mode[:arg][@prob][#count]", part)
		}
		fp := &failpoint{prob: 1, left: -1}
		rest, countStr, hasCount := cutLast(rest, "#")
		if hasCount {
			n, err := strconv.ParseInt(countStr, 10, 64)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("faultinject: %q: bad count %q", part, countStr)
			}
			fp.left = n
		}
		rest, probStr, hasProb := cutLast(rest, "@")
		if hasProb {
			p, err := strconv.ParseFloat(probStr, 64)
			if err != nil || p <= 0 || p > 1 {
				return nil, fmt.Errorf("faultinject: %q: bad probability %q", part, probStr)
			}
			fp.prob = p
		}
		mode, arg, hasArg := strings.Cut(rest, ":")
		switch mode {
		case "error", "panic":
			fp.mode = mode
			if hasArg && arg != "" {
				fp.msg = ": " + arg
			}
		case "latency":
			if !hasArg {
				return nil, fmt.Errorf("faultinject: %q: latency needs a duration arg", part)
			}
			d, err := time.ParseDuration(arg)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("faultinject: %q: bad duration %q", part, arg)
			}
			fp.mode = "latency"
			fp.delay = d
		default:
			return nil, fmt.Errorf("faultinject: %q: unknown mode %q (want error, latency, or panic)", part, mode)
		}
		parsed[site] = fp
	}
	return parsed, nil
}

// cutLast splits s at the last occurrence of sep, so mode arguments (panic
// messages, durations) may themselves contain earlier separators.
func cutLast(s, sep string) (before, after string, found bool) {
	i := strings.LastIndex(s, sep)
	if i < 0 {
		return s, "", false
	}
	return s[:i], s[i+len(sep):], true
}
