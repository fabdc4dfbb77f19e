//go:build !race

package xmlspec

const raceEnabled = false
