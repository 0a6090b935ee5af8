package engine

import (
	"testing"

	"encshare/internal/xpath"
)

// TestAdvancedReadAllocs pins the heap allocations of one advanced-engine
// query under the strict test over rmi.Pipe — engine waves, client and
// server batch paths and frame codecs together — so a change that
// brings back per-candidate copies, per-node look-ahead maps or per-batch
// grouping maps fails here. Bounds are the measured counts plus 10 %.
func TestAdvancedReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	rfx := buildRemote(t, smallXML)
	for _, tc := range []struct {
		query string
		max   float64
	}{
		{"/site//item", 322},
		{"/site/regions/europe/item/name", 444},
	} {
		q := xpath.MustParse(tc.query)
		run := func() {
			if _, err := rfx.advanced.Run(q, Equality); err != nil {
				t.Fatal(err)
			}
		}
		run() // size the connection buffers and warm the poly cache
		got := testing.AllocsPerRun(50, run)
		t.Logf("%s: %.1f allocations per run (bound %.0f)", tc.query, got, tc.max)
		if got > tc.max {
			t.Errorf("%s: %.1f allocations per run, want at most %.0f", tc.query, got, tc.max)
		}
	}
}
