//go:build race

package daemon_test

// raceEnabled: under the race detector sync.Pool drops a quarter of what
// it is given, so allocation counts through the pools are not gated.
const raceEnabled = true
