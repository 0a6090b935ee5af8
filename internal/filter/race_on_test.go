//go:build race

package filter

// raceEnabled reports that the race detector is active: sync.Pool
// deliberately drops items under -race, so allocation-count assertions
// on pooled paths are skipped there.
const raceEnabled = true
