//go:build !race

package remshard

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
