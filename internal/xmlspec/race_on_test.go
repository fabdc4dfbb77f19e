//go:build race

package xmlspec

// raceEnabled: the race detector adds allocations of its own, so
// allocation counts are not gated under it.
const raceEnabled = true
