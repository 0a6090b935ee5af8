//go:build race

package engine

// raceEnabled reports that the race detector is active: it changes
// what the runtime allocates, so allocation-count assertions are
// skipped there.
const raceEnabled = true
