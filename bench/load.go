package main

import (
	"syscall"
	"time"
)

// schedule is one run's timeline: the load starts at start, samples count
// from measure (after the warm-up) and no request is issued at or after end.
type schedule struct {
	start, measure, end time.Time
}

func newSchedule(start time.Time, warmup, measure time.Duration) schedule {
	return schedule{start: start, measure: start.Add(warmup), end: start.Add(warmup + measure)}
}

func (s schedule) measured(t time.Time) bool {
	return !t.Before(s.measure) && t.Before(s.end)
}

// series is one stream's measured samples. Streams run on one goroutine
// each, so a series needs no locking until the streams have been joined.
type series struct {
	lat       []float64 // seconds from due (open loop) or send (closed loop)
	lag       []float64 // seconds the generator woke after a due time
	traced    []float64 // lat of traced requests, every even one (traced runs only)
	untraced  []float64 // lat of untraced requests (traced runs only)
	attempted int
	failed    int
}

func (s *series) record(lat time.Duration, ok, traced, tracing bool) {
	s.attempted++
	if !ok {
		s.failed++
	}
	s.lat = append(s.lat, lat.Seconds())
	if tracing {
		if traced {
			s.traced = append(s.traced, lat.Seconds())
		} else {
			s.untraced = append(s.untraced, lat.Seconds())
		}
	}
}

func (s *series) merge(o *series) {
	s.lat = append(s.lat, o.lat...)
	s.lag = append(s.lag, o.lag...)
	s.traced = append(s.traced, o.traced...)
	s.untraced = append(s.untraced, o.untraced...)
	s.attempted += o.attempted
	s.failed += o.failed
}

// op is one request of a stream: i is its index in the stream, from the time
// its latency counts from (see openLoop and closedLoop). It reports success.
type op func(i int, from time.Time) bool

// openLoop issues request i at start + i/rate whether or not earlier ones
// have completed. A request the generator had to sleep for is timed from when
// the generator woke: how late it woke is the generator's own delay, recorded
// in lag and kept out of the latency. A request that is already overdue when
// the previous one returns is timed from its due time, so the wait an
// overrunning request imposes on the next one counts in the next one's
// latency and is not charged to the generator.
func openLoop(sched schedule, rate float64, tracing bool, do op) *series {
	s := &series{}
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; ; i++ {
		due := sched.start.Add(time.Duration(i) * interval)
		if !due.Before(sched.end) {
			return s
		}
		from := due
		if time.Now().Before(due) {
			sleepUntil(due)
			from = time.Now()
		}
		ok := do(i, from)
		if sched.measured(from) {
			s.record(time.Since(from), ok, tracing && i%2 == 0, tracing)
			s.lag = append(s.lag, from.Sub(due).Seconds())
		}
	}
}

// closedLoop issues the next request as soon as the previous one completes,
// and times each from when it was sent.
func closedLoop(sched schedule, tracing bool, do op) *series {
	s := &series{}
	for i := 0; ; i++ {
		sent := time.Now()
		if !sent.Before(sched.end) {
			return s
		}
		ok := do(i, sent)
		if sched.measured(sent) {
			s.record(time.Since(sent), ok, tracing && i%2 == 0, tracing)
		}
	}
}

// sleepUntil blocks until t in a nanosleep system call. time.Sleep wakes on
// the runtime's network poller, whose millisecond timeout granularity makes
// wake-ups ~0.5 ms late on average; at 1000 requests/s per stream that
// lateness would swamp the latencies being measured.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
