package filter

import (
	"runtime"
	"slices"
	"strings"
	"testing"

	"encshare/internal/gf"
)

// allChecks builds the full (node × name) check matrix of the fixture —
// deliberately containing many checks against the same node, which is
// the shape the advanced engine's look-ahead produces and the batch
// grouping optimizes.
func allChecks(t testing.TB, fx *fixture) []Check {
	t.Helper()
	var checks []Check
	for pre := int64(1); pre <= fx.doc.Count; pre++ {
		for _, name := range fx.m.Names() {
			checks = append(checks, Check{Pre: pre, Point: fx.val(t, name)})
		}
	}
	return checks
}

// checkSet is one named batch input.
type checkSet struct {
	name   string
	checks []Check
}

// checkSets are the batch inputs the per-node grouping must handle: the
// full check matrix, whose pres already ascend, and a short batch whose
// pres are out of order and repeated.
func checkSets(t testing.TB, fx *fixture) []checkSet {
	t.Helper()
	points := []gf.Elem{fx.val(t, "name"), fx.val(t, "item")}
	var unsorted []Check
	for i, pre := range []int64{9, 3, 9, 1, 3} {
		unsorted = append(unsorted, Check{Pre: pre, Point: points[i%2]})
	}
	return []checkSet{{"sorted", allChecks(t, fx)}, {"unsorted", unsorted}}
}

// distinctPres counts the distinct nodes a batch asks about.
func distinctPres(checks []Check) int64 {
	seen := map[int64]bool{}
	for _, c := range checks {
		seen[c.Pre] = true
	}
	return int64(len(seen))
}

// decodesOf returns the decode counter of a server filter.
func decodesOf(t testing.TB, s *ServerFilter) int64 {
	t.Helper()
	st, err := s.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	return st.Decodes
}

// TestEvalBatchMatchesEvalAt: one batched exchange must return exactly
// the per-call results, member for member, on both the in-process server
// filter and the RMI proxy, whether or not the pres arrive in order —
// and a server without a poly cache decodes each distinct node once.
func TestEvalBatchMatchesEvalAt(t *testing.T) {
	fx := newFixture(t, testXML)
	rem := NewRemote(fx.rmiCli)
	cold := NewServerFilter(fx.server.st, fx.r, 0)
	for _, set := range checkSets(t, fx) {
		for _, tc := range []struct {
			name string
			api  BatchAPI
		}{
			{"local", fx.server},
			{"remote", rem},
			{"uncached", cold},
		} {
			reqs := make([]EvalRequest, len(set.checks))
			for i, c := range set.checks {
				reqs[i] = EvalRequest(c)
			}
			decodes := decodesOf(t, cold)
			got, err := tc.api.EvalBatch(reqs)
			if err != nil {
				t.Fatalf("%s/%s: EvalBatch: %v", set.name, tc.name, err)
			}
			if len(got) != len(reqs) {
				t.Fatalf("%s/%s: %d results for %d requests", set.name, tc.name, len(got), len(reqs))
			}
			if tc.api == cold {
				if n, want := decodesOf(t, cold)-decodes, distinctPres(set.checks); n != want {
					t.Fatalf("%s: %d decodes for %d distinct nodes", set.name, n, want)
				}
			}
			sapi := tc.api.(ServerAPI)
			for i, q := range reqs {
				want, err := sapi.EvalAt(q.Pre, q.Point)
				if err != nil {
					t.Fatalf("%s/%s: EvalAt(%d): %v", set.name, tc.name, q.Pre, err)
				}
				if got[i].Err != "" || got[i].Val != want {
					t.Fatalf("%s/%s: member %d = (%d, %q), want (%d, \"\")",
						set.name, tc.name, i, got[i].Val, got[i].Err, want)
				}
			}
		}
	}
}

// TestGroupByPre: every distinct pre forms one run, runs ascend by pre,
// and a run lists its request indices in request order.
func TestGroupByPre(t *testing.T) {
	for _, tc := range []struct {
		pres        []int64
		idx, starts []int
	}{
		{nil, []int{}, []int{0}},
		{[]int64{9, 3, 9, 1, 3}, []int{3, 1, 4, 0, 2}, []int{0, 1, 3, 5}},
		{[]int64{1, 1, 2, 5, 5, 5}, []int{0, 1, 2, 3, 4, 5}, []int{0, 2, 3, 6}},
	} {
		idx, starts := groupByPre(len(tc.pres), func(i int) int64 { return tc.pres[i] })
		if !slices.Equal(idx, tc.idx) || !slices.Equal(starts, tc.starts) {
			t.Errorf("groupByPre(%v) = %v, %v; want %v, %v", tc.pres, idx, starts, tc.idx, tc.starts)
		}
	}
}

// TestEvalBatchPartialErrors: a missing node voids only its own member.
func TestEvalBatchPartialErrors(t *testing.T) {
	fx := newFixture(t, testXML)
	rem := NewRemote(fx.rmiCli)
	for _, tc := range []struct {
		name string
		api  BatchAPI
	}{
		{"local", fx.server},
		{"remote", rem},
	} {
		v := fx.val(t, "site")
		got, err := tc.api.EvalBatch([]EvalRequest{
			{Pre: 1, Point: v},
			{Pre: 99999, Point: v},
			{Pre: 2, Point: v},
		})
		if err != nil {
			t.Fatalf("%s: EvalBatch: %v", tc.name, err)
		}
		if got[0].Err != "" || got[2].Err != "" {
			t.Fatalf("%s: healthy members errored: %+v", tc.name, got)
		}
		if got[1].Err == "" || !strings.Contains(got[1].Err, "not found") {
			t.Fatalf("%s: missing node gave %q, want a not-found error", tc.name, got[1].Err)
		}
	}
}

// TestEvalBatchCacheInteraction: results must be identical whatever the
// decoded-polynomial cache does — disabled, thrashing (evictions on a
// tiny cache), or warm from a previous batch.
func TestEvalBatchCacheInteraction(t *testing.T) {
	fx := newFixture(t, testXML)
	checks := allChecks(t, fx)
	reqs := make([]EvalRequest, len(checks))
	for i, c := range checks {
		reqs[i] = EvalRequest(c)
	}
	want, err := fx.server.EvalBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, cacheSize := range []int{0, 2, 1024} {
		sf := NewServerFilter(fx.server.st, fx.r, cacheSize)
		for round := 0; round < 2; round++ { // second round hits whatever is cached
			got, err := sf.EvalBatch(reqs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("cache=%d round %d: member %d = %+v, want %+v",
						cacheSize, round, i, got[i], want[i])
				}
			}
		}
	}
}

// TestContainsBatchMatchesContains: the batched client test must agree
// with N individual Contains calls and count the same work, whether or
// not the pres arrive in order; over a server without a poly cache, each
// distinct node is decoded once.
func TestContainsBatchMatchesContains(t *testing.T) {
	fx := newFixture(t, testXML)
	cold := NewServerFilter(fx.server.st, fx.r, 0)
	for _, set := range checkSets(t, fx) {
		for _, tc := range []struct {
			name string
			cli  *Client
		}{
			{"local", fx.local},
			{"remote", fx.remote},
			{"uncached", NewClient(cold, fx.scheme)},
		} {
			checks := set.checks
			before, decodes := tc.cli.Counters.Snapshot(), decodesOf(t, cold)
			got, err := tc.cli.ContainsBatch(checks)
			if err != nil {
				t.Fatalf("%s/%s: ContainsBatch: %v", set.name, tc.name, err)
			}
			d := tc.cli.Counters.Snapshot().Sub(before)
			if d.Evaluations != int64(len(checks)) {
				t.Fatalf("%s/%s: batch counted %d evaluations, want %d", set.name, tc.name, d.Evaluations, len(checks))
			}
			if tc.name == "uncached" {
				if n, want := decodesOf(t, cold)-decodes, distinctPres(checks); n != want {
					t.Fatalf("%s: %d decodes for %d distinct nodes", set.name, n, want)
				}
			}
			for i, c := range checks {
				want, err := tc.cli.Contains(c.Pre, c.Point)
				if err != nil {
					t.Fatal(err)
				}
				if got[i] != want {
					t.Fatalf("%s/%s: member %d (pre=%d) = %v, want %v", set.name, tc.name, i, c.Pre, got[i], want)
				}
			}
		}
	}
}

// TestEqualsBatchMatchesEquals: same for the strict test, including the
// reconstruction accounting.
func TestEqualsBatchMatchesEquals(t *testing.T) {
	fx := newFixture(t, testXML)
	for _, tc := range []struct {
		name string
		cli  *Client
	}{
		{"local", fx.local},
		{"remote", fx.remote},
	} {
		checks := allChecks(t, fx)
		before := tc.cli.Counters.Snapshot()
		got, err := tc.cli.EqualsBatch(checks)
		if err != nil {
			t.Fatalf("%s: EqualsBatch: %v", tc.name, err)
		}
		batchRecons := tc.cli.Counters.Snapshot().Sub(before).Reconstructions

		before = tc.cli.Counters.Snapshot()
		for i, c := range checks {
			want, err := tc.cli.Equals(c.Pre, c.Point)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want {
				t.Fatalf("%s: member %d (pre=%d) = %v, want %v", tc.name, i, c.Pre, got[i], want)
			}
		}
		seqRecons := tc.cli.Counters.Snapshot().Sub(before).Reconstructions
		if batchRecons != seqRecons {
			t.Fatalf("%s: batch counted %d reconstructions, sequential %d", tc.name, batchRecons, seqRecons)
		}
	}
}

// TestNavigationBatches: ChildrenBatch/DescendantsBatch must return the
// per-call results in request order.
func TestNavigationBatches(t *testing.T) {
	fx := newFixture(t, testXML)
	for _, tc := range []struct {
		name string
		cli  *Client
	}{
		{"local", fx.local},
		{"remote", fx.remote},
	} {
		var pres []int64
		var spans []Span
		metas := make(map[int64]NodeMeta)
		for pre := int64(1); pre <= fx.doc.Count; pre++ {
			m, err := tc.cli.Node(pre)
			if err != nil {
				t.Fatal(err)
			}
			metas[pre] = m
			pres = append(pres, pre)
			spans = append(spans, Span{Pre: m.Pre, Post: m.Post})
		}
		kidLists, err := tc.cli.ChildrenBatch(pres)
		if err != nil {
			t.Fatal(err)
		}
		descLists, err := tc.cli.DescendantsBatch(spans)
		if err != nil {
			t.Fatal(err)
		}
		for i, pre := range pres {
			kids, err := tc.cli.Children(pre)
			if err != nil {
				t.Fatal(err)
			}
			if len(kids) != len(kidLists[i]) {
				t.Fatalf("%s: ChildrenBatch[%d] = %d kids, want %d", tc.name, i, len(kidLists[i]), len(kids))
			}
			for j := range kids {
				if kids[j] != kidLists[i][j] {
					t.Fatalf("%s: ChildrenBatch[%d][%d] = %+v, want %+v", tc.name, i, j, kidLists[i][j], kids[j])
				}
			}
			desc, err := tc.cli.Descendants(metas[pre].Pre, metas[pre].Post)
			if err != nil {
				t.Fatal(err)
			}
			if len(desc) != len(descLists[i]) {
				t.Fatalf("%s: DescendantsBatch[%d] = %d nodes, want %d", tc.name, i, len(descLists[i]), len(desc))
			}
		}
	}
}

// TestRemoteBatchRoundTrips: one batch = one round-trip, whatever its
// size.
func TestRemoteBatchRoundTrips(t *testing.T) {
	fx := newFixture(t, testXML)
	rem := NewRemote(fx.rmiCli)
	cli := NewClient(rem, fx.scheme)
	checks := allChecks(t, fx)
	if _, err := cli.ContainsBatch(checks); err != nil {
		t.Fatal(err)
	}
	if got := rem.EvalRoundTrips(); got != 1 {
		t.Fatalf("%d checks cost %d evaluation round-trips, want 1", len(checks), got)
	}
	if _, err := cli.EqualsBatch(checks[:10]); err != nil {
		t.Fatal(err)
	}
	counts := rem.CallCounts()
	if n := counts[methodNodePolysPage]; n != 1 {
		t.Fatalf("EqualsBatch cost %d poly round-trips, want 1", n)
	}
	if counts[methodPoly] != 0 || counts[methodChildrenPolys] != 0 {
		t.Fatalf("batched equals fell back to per-call fetches: %v", counts)
	}
}

// TestBatchChunking: oversized batches are split into frame-bounded
// chunks transparently — same answers, one round-trip per chunk.
func TestBatchChunking(t *testing.T) {
	fx := newFixture(t, testXML)
	oldEval, oldPoly, oldMeta := evalChunkSize, polyChunkSize, metaChunkSize
	evalChunkSize, polyChunkSize, metaChunkSize = 7, 3, 4
	t.Cleanup(func() { evalChunkSize, polyChunkSize, metaChunkSize = oldEval, oldPoly, oldMeta })

	rem := NewRemote(fx.rmiCli)
	cli := NewClient(rem, fx.scheme)
	checks := allChecks(t, fx)

	got, err := cli.ContainsBatch(checks)
	if err != nil {
		t.Fatal(err)
	}
	wantRtts := int64((len(checks) + 6) / 7)
	if rtts := rem.EvalRoundTrips(); rtts != wantRtts {
		t.Fatalf("%d checks over chunk size 7 cost %d round-trips, want %d", len(checks), rtts, wantRtts)
	}
	for i, c := range checks {
		want, err := fx.local.Contains(c.Pre, c.Point)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("chunked member %d (pre=%d) = %v, want %v", i, c.Pre, got[i], want)
		}
	}

	eqGot, err := cli.EqualsBatch(checks[:10])
	if err != nil {
		t.Fatal(err)
	}
	counts := rem.CallCounts()
	if n := counts[methodNodePolysPage]; n != 4 { // ceil(10/3)
		t.Fatalf("10 equals over chunk size 3 cost %d poly round-trips, want 4", n)
	}
	for i, c := range checks[:10] {
		want, err := fx.local.Equals(c.Pre, c.Point)
		if err != nil {
			t.Fatal(err)
		}
		if eqGot[i] != want {
			t.Fatalf("chunked equals member %d = %v, want %v", i, eqGot[i], want)
		}
	}
}

// TestParallelFor: the pool helper must cover every index exactly once
// for any GOMAXPROCS/size combination.
func TestParallelFor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{0, 1, 7, 100} {
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			hits := make([]int32, n)
			parallelFor(n, func(i int) { hits[i]++ })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d GOMAXPROCS=%d: index %d hit %d times", n, procs, i, h)
				}
			}
		}
	}
}
