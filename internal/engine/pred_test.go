package engine

import (
	"testing"

	"encshare/internal/filter"
	"encshare/internal/rmi"
	"encshare/internal/xmark"
	"encshare/internal/xmldoc"
	"encshare/internal/xpath"
)

// remoteDoc wires a fixture's server behind a counting rmi proxy and
// returns batched engines running over it.
func remoteDoc(t testing.TB, doc *xmldoc.Doc) (*fixture, *filter.Remote, *Simple, *Advanced) {
	t.Helper()
	fx := build(t, doc, nil)
	srv := rmi.NewServer()
	filter.RegisterServer(srv, fx.server)
	rmiCli := rmi.Pipe(srv)
	t.Cleanup(func() { rmiCli.Close() })
	rem := filter.NewRemote(rmiCli)
	cli := filter.NewClient(rem, fx.scheme)
	return fx, rem, NewSimple(cli, fx.m), NewAdvanced(cli, fx.m)
}

// totalNameSteps counts the location steps that trigger a filter test
// across the main path and every predicate.
func totalNameSteps(q *xpath.Query) int64 {
	n := nameSteps(q)
	for _, p := range q.Preds {
		n += nameSteps(p)
	}
	return n
}

// TestPredicateEvalExchangesPerStep pins the batched-predicate bound on
// the XMark 0.1 corpus: a simple-engine predicate query costs AT MOST
// ONE evaluation exchange per location step — main path and predicate
// steps combined — where the per-candidate predicate loop used to cost
// one traversal per frontier candidate. The frontier sizes are asserted
// to dwarf the bound, so the test genuinely distinguishes O(steps) from
// O(frontier).
func TestPredicateEvalExchangesPerStep(t *testing.T) {
	doc := xmark.Generate(xmark.Config{Scale: 0.1, Seed: 42})
	fx, rem, simple, advanced := remoteDoc(t, doc)

	for _, tc := range []struct {
		query string
		base  string // the same path without predicates = the frontier the preds filter
	}{
		{"//item[//keyword]", "//item"},
		{"/site//person[//city]", "/site//person"},
		{"/site//open_auction[//date]", "/site//open_auction"},
	} {
		q := xpath.MustParse(tc.query)
		frontier := len(fx.oracle.Eval(xpath.MustParse(tc.base), xpath.MatchContain))
		bound := totalNameSteps(q)
		if int64(frontier) <= bound {
			t.Fatalf("%s: frontier %d not larger than the step bound %d — workload too small to prove the bound",
				tc.query, frontier, bound)
		}

		before := rem.EvalRoundTrips()
		res, err := simple.Run(q, Containment)
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		rtts := rem.EvalRoundTrips() - before
		if rtts > bound {
			t.Errorf("%s: %d evaluation exchanges for %d location steps (frontier %d candidates)",
				tc.query, rtts, bound, frontier)
		}

		// The advanced engine spends one look-ahead exchange per pending
		// name per wave — O(depth × names), not one-per-step — but must
		// likewise stay independent of the frontier width.
		before = rem.EvalRoundTrips()
		ares, err := advanced.Run(q, Containment)
		if err != nil {
			t.Fatalf("advanced %s: %v", tc.query, err)
		}
		if rtts := rem.EvalRoundTrips() - before; rtts >= int64(frontier) {
			t.Errorf("advanced %s: %d evaluation exchanges for a %d-candidate frontier — predicate cost is still O(frontier)",
				tc.query, rtts, frontier)
		}

		// Results must equal the plaintext oracle for both engines.
		want := xpath.Pres(fx.oracle.Eval(q, xpath.MatchContain))
		if !equalPres(res.Pres, want) {
			t.Errorf("simple %s: got %v, want %v", tc.query, res.Pres, want)
		}
		if !equalPres(ares.Pres, want) {
			t.Errorf("advanced %s: got %v, want %v", tc.query, ares.Pres, want)
		}
	}
}

// TestPredicateBatchMatchesSequentialStrict checks the multi-context
// predicate traversal on a non-trivial corpus under both tests: the
// batched and the per-call engines must both return the plaintext
// oracle's answer set (MatchEqual for strict, MatchContain for
// non-strict), and so agree with each other.
func TestPredicateBatchMatchesSequentialStrict(t *testing.T) {
	doc := xmark.Generate(xmark.Config{Scale: 0.05, Seed: 9})
	fx := build(t, doc, nil)
	for _, qs := range []string{
		"//item[//keyword]",
		"/site//person[//city]",
		"/site/regions/*[//name]",
		"//open_auction[//date][//itemref]",
	} {
		q := xpath.MustParse(qs)
		for _, test := range []Test{Containment, Equality} {
			want := xpath.Pres(fx.oracle.Eval(q, matchMode(test)))
			for _, pair := range []struct {
				name       string
				batched    Engine
				sequential Engine
			}{
				{"simple", fx.simple, NewSimplePerCall(fx.cli, fx.m)},
				{"advanced", fx.advanced, NewAdvancedPerCall(fx.cli, fx.m)},
			} {
				br, err := pair.batched.Run(q, test)
				if err != nil {
					t.Fatalf("%s/%s batched %s: %v", pair.name, test, qs, err)
				}
				sr, err := pair.sequential.Run(q, test)
				if err != nil {
					t.Fatalf("%s/%s sequential %s: %v", pair.name, test, qs, err)
				}
				if !equalPres(br.Pres, want) {
					t.Errorf("%s/%s on %s: batched %v, oracle %v", pair.name, test, qs, br.Pres, want)
				}
				if !equalPres(br.Pres, sr.Pres) {
					t.Errorf("%s/%s on %s: batched %v != sequential %v", pair.name, test, qs, br.Pres, sr.Pres)
				}
			}
		}
	}
}
