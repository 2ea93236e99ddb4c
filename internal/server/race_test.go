//go:build race

package server

// raceEnabled reports whether the race detector is on. Under it sync.Pool
// drops a quarter of its Puts on purpose, so pooled paths allocate.
const raceEnabled = true
