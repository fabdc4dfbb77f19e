//go:build race

package telemetry

// raceEnabled: under the race detector sync.Pool drops a quarter of what
// it is given, so allocation counts through the pools get looser bounds.
const raceEnabled = true
