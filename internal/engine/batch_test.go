package engine

import (
	"reflect"
	"strings"
	"testing"

	"encshare/internal/filter"
	"encshare/internal/rmi"
	"encshare/internal/xmark"
	"encshare/internal/xpath"
)

// seqEngines returns the references the fixture's (batched) engines are
// held to on predicate-free queries, sharing the same client filter and
// counters: the per-call simple engine, and for the advanced engine the
// paper's depth-first walk (oracle_test.go), which the wave traversal
// must match check for check.
func seqEngines(fx *fixture) (*Simple, *depthFirst) {
	return NewSimplePerCall(fx.cli, fx.m), newDepthFirst(fx.cli, fx.m)
}

// predQueries exercise the predicate machinery. The depth-first
// reference evaluates no predicates, and the wave's existence
// short-circuit spends different work than a per-node one would, so
// these queries are held to the plaintext oracle's answer set instead.
var predQueries = []string{
	"/site//person[//city]",
	"/site/regions/*[//name]",
	"/site//item[//keyword]",
	// Parent steps and wildcards inside a predicate.
	"//name[/..//city]",
	"/site/regions/*[/*/name]",
	"/site/people/person[/../person/name]",
}

// sameWork reports whether a batched run performed the reference run's
// checks: equal fetches and visits, and the same evaluations and
// reconstructions — except that a batched strict test at points free
// points (filter/family.go) evaluates, at each of them, every row the
// reference reconstructs, and reconstructs nothing. With points 0 (the
// bundle path, and every containment run) the counts are equal.
func sameWork(batched, ref Stats, points int) bool {
	evals, recons := ref.Evaluations, ref.Reconstructions
	if points > 0 {
		evals, recons = evals+int64(points)*recons, 0
	}
	return batched.Evaluations == evals && batched.Reconstructions == recons &&
		batched.NodesFetched == ref.NodesFetched && batched.NodesVisited == ref.NodesVisited
}

// TestBatchedMatchesSequential is the batch pipeline's central
// correctness test: for every query, engine, and test, the batched run
// must return the same result set as the reference run — and perform
// exactly the same work (same fetches and visits, the same evaluations
// and reconstructions up to sameWork's exact strict-test identity; only
// the number of round-trips differs). Predicate queries
// must match the plaintext oracle, under both transports.
func TestBatchedMatchesSequential(t *testing.T) {
	fx := buildXML(t, smallXML)
	simpleSeq, advancedRef := seqEngines(fx)
	pairs := []struct {
		name    string
		batched Engine
		seq     Engine
	}{
		{"simple", fx.simple, simpleSeq},
		{"advanced", fx.advanced, advancedRef},
	}
	for _, qs := range testQueries {
		q := xpath.MustParse(qs)
		for _, test := range []Test{Containment, Equality} {
			for _, p := range pairs {
				br, err := p.batched.Run(q, test)
				if err != nil {
					t.Fatalf("%s/%s batched %s: %v", p.name, test, qs, err)
				}
				sr, err := p.seq.Run(q, test)
				if err != nil {
					t.Fatalf("%s/%s reference %s: %v", p.name, test, qs, err)
				}
				if !equalPres(br.Pres, sr.Pres) {
					t.Errorf("%s/%s on %s: batched %v != reference %v",
						p.name, test, qs, br.Pres, sr.Pres)
				}
				if !sameWork(br.Stats, sr.Stats, len(fx.m.FreePoints())) {
					t.Errorf("%s/%s on %s: batched work %+v != reference %+v",
						p.name, test, qs, br.Stats, sr.Stats)
				}
			}
		}
	}
	perCall := []Engine{simpleSeq, NewAdvancedPerCall(fx.cli, fx.m)}
	for _, qs := range predQueries {
		q := xpath.MustParse(qs)
		for _, test := range []Test{Containment, Equality} {
			want := xpath.Pres(fx.oracle.Eval(q, matchMode(test)))
			for _, e := range []Engine{fx.simple, fx.advanced, perCall[0], perCall[1]} {
				res, err := e.Run(q, test)
				if err != nil {
					t.Fatalf("%s/%s %s: %v", e.Name(), test, qs, err)
				}
				if !equalPres(res.Pres, want) {
					t.Errorf("%s/%s on %s: got %v, oracle %v", e.Name(), test, qs, res.Pres, want)
				}
			}
		}
	}
}

// TestBatchedMatchesSequentialOnXMark repeats the parity check against
// the references on a real XMark document, where frontiers are wide
// enough for batches to matter.
func TestBatchedMatchesSequentialOnXMark(t *testing.T) {
	doc := xmark.Generate(xmark.Config{Scale: 0.02, Seed: 7})
	fx := build(t, doc, nil)
	simpleSeq, advancedRef := seqEngines(fx)
	queries := []string{
		"/site//europe/item",
		"/site/*/person//city",
		"//bidder/date",
		"/site/regions/europe/item/description",
	}
	for _, qs := range queries {
		q := xpath.MustParse(qs)
		for _, test := range []Test{Containment, Equality} {
			for _, pair := range [][2]Engine{{fx.simple, simpleSeq}, {fx.advanced, advancedRef}} {
				br, err := pair[0].Run(q, test)
				if err != nil {
					t.Fatal(err)
				}
				sr, err := pair[1].Run(q, test)
				if err != nil {
					t.Fatal(err)
				}
				if !equalPres(br.Pres, sr.Pres) {
					t.Errorf("%s/%s/%s: batched %d results, reference %d",
						pair[0].Name(), test, qs, len(br.Pres), len(sr.Pres))
				}
				if !sameWork(br.Stats, sr.Stats, len(fx.m.FreePoints())) {
					t.Errorf("%s/%s/%s: batched work %+v != reference %+v",
						pair[0].Name(), test, qs, br.Stats, sr.Stats)
				}
			}
		}
	}
}

// remoteFixture runs the engines over the RMI transport with a counting
// proxy, so tests can assert on actual round-trips.
type remoteFixture struct {
	*fixture
	rem *filter.Remote
}

func buildRemote(t testing.TB, xml string) *remoteFixture {
	t.Helper()
	fx := buildXML(t, xml)
	srv := rmi.NewServer()
	filter.RegisterServer(srv, fx.server)
	rmiCli := rmi.Pipe(srv)
	t.Cleanup(func() { rmiCli.Close() })
	rem := filter.NewRemote(rmiCli)
	cli := filter.NewClient(rem, fx.scheme)
	rfx := &remoteFixture{fixture: fx, rem: rem}
	rfx.cli = cli
	rfx.simple = NewSimple(cli, fx.m)
	rfx.advanced = NewAdvanced(cli, fx.m)
	return rfx
}

// nameSteps counts the steps of a query that trigger a filter test (name
// tests: not wildcards, not parent steps).
func nameSteps(q *xpath.Query) int64 {
	var n int64
	for _, s := range q.Steps {
		if s.IsNameTest() {
			n++
		}
	}
	return n
}

// TestRemoteRoundTripsPerStep verifies the acceptance property of the
// batch pipeline: a remote query sends no per-call frame but Root, for
// both engines under both tests, and a simple-engine query issues AT
// MOST ONE evaluation round-trip per name step.
func TestRemoteRoundTripsPerStep(t *testing.T) {
	rfx := buildRemote(t, smallXML)
	perCall := []string{"filter.EvalAt", "filter.Poly", "filter.ChildrenPolys",
		"filter.Children", "filter.Descendants", "filter.Node"}
	for _, qs := range []string{
		"/site/regions/europe/item",
		"/site//item",
		"//bidder/date",
		"/site/*/person",
		"/site/regions/../people/person",
	} {
		q := xpath.MustParse(qs)
		for _, test := range []Test{Containment, Equality} {
			for _, e := range []Engine{rfx.simple, rfx.advanced} {
				before, evalsBefore := rfx.rem.CallCounts(), rfx.rem.EvalRoundTrips()
				if _, err := e.Run(q, test); err != nil {
					t.Fatalf("%s/%s %s: %v", e.Name(), test, qs, err)
				}
				after := rfx.rem.CallCounts()
				for _, m := range perCall {
					if n := after[m] - before[m]; n != 0 {
						t.Errorf("%s/%s %s: %d per-call %s frames", e.Name(), test, qs, n, m)
					}
				}
				evals := rfx.rem.EvalRoundTrips() - evalsBefore
				if max := nameSteps(q); e.Name() == "simple" && evals > max {
					t.Errorf("%s/%s %s: %d evaluation round-trips for %d name steps", e.Name(), test, qs, evals, max)
				}
			}
		}
	}
}

// TestBatchedReducesRoundTrips: on a document with non-trivial frontiers
// the batched pipeline must cost strictly fewer server exchanges than
// the per-call protocol, for both engines and both tests.
func TestBatchedReducesRoundTrips(t *testing.T) {
	doc := xmark.Generate(xmark.Config{Scale: 0.02, Seed: 7})
	fx := build(t, doc, nil)
	srv := rmi.NewServer()
	filter.RegisterServer(srv, fx.server)
	rmiCli := rmi.Pipe(srv)
	t.Cleanup(func() { rmiCli.Close() })
	rem := filter.NewRemote(rmiCli)
	cli := filter.NewClient(rem, fx.scheme)

	engines := []struct {
		name    string
		batched Engine
		seq     Engine
	}{
		{"simple", NewSimple(cli, fx.m), NewSimplePerCall(cli, fx.m)},
		{"advanced", NewAdvanced(cli, fx.m), NewAdvancedPerCall(cli, fx.m)},
	}
	q := xpath.MustParse("/site//europe/item")
	for _, e := range engines {
		for _, test := range []Test{Containment, Equality} {
			before := rem.RoundTrips()
			if _, err := e.batched.Run(q, test); err != nil {
				t.Fatal(err)
			}
			batched := rem.RoundTrips() - before
			before = rem.RoundTrips()
			if _, err := e.seq.Run(q, test); err != nil {
				t.Fatal(err)
			}
			seq := rem.RoundTrips() - before
			if batched >= seq {
				t.Errorf("%s/%s: batched pipeline used %d round-trips, per-call %d",
					e.name, test, batched, seq)
			}
			t.Logf("%s/%s: %d round-trips batched vs %d per-call", e.name, test, batched, seq)
		}
	}
}

// TestWideWaveIsOneExchange: a wave costs one paged exchange however
// wide it is. Every engine issues as many FamilyEvalsPage and
// DescendantsBatchPage calls on a document 400 siblings wide as on the
// same shape one sibling wide, and the simple engine, whose waves are
// the query's steps, evaluates each name step's families in one call
// and expands the descendant step in one call; no bundle is fetched.
// The answers match the plaintext oracle.
func TestWideWaveIsOneExchange(t *testing.T) {
	doc := func(width int) string {
		return "<r>" + strings.Repeat("<p><c/><q><c/></q></p>", width) + "</r>"
	}
	narrow, wide := buildRemote(t, doc(1)), buildRemote(t, doc(400))
	q := xpath.MustParse("/r/p//c")
	want := xpath.Pres(wide.oracle.Eval(q, matchMode(Equality)))
	if len(want) != 800 {
		t.Fatalf("oracle found %d matches, want 800", len(want))
	}
	paged := []string{"filter.FamilyEvalsPage", "filter.DescendantsBatchPage", "filter.NodePolysBatchPage"}
	calls := func(rfx *remoteFixture, e Engine) map[string]int64 {
		before := rfx.rem.CallCounts()
		res, err := e.Run(q, Equality)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if rfx == wide && !equalPres(res.Pres, want) {
			t.Errorf("%s: %d matches, oracle %d", e.Name(), len(res.Pres), len(want))
		}
		after := rfx.rem.CallCounts()
		out := map[string]int64{}
		for _, m := range paged {
			out[m] = after[m] - before[m]
		}
		return out
	}
	for _, pair := range [][2]Engine{{narrow.simple, wide.simple}, {narrow.advanced, wide.advanced}} {
		one, many := calls(narrow, pair[0]), calls(wide, pair[1])
		for _, m := range paged {
			if many[m] != one[m] {
				t.Errorf("%s: %d %s calls 400 wide, %d one wide", pair[1].Name(), many[m], m, one[m])
			}
		}
		if pair[1] == Engine(wide.simple) {
			if want := map[string]int64{paged[0]: nameSteps(q), paged[1]: 1, paged[2]: 0}; !reflect.DeepEqual(many, want) {
				t.Errorf("simple: paged calls %v, want one per wave %v", many, want)
			}
		}
	}
}
