package filter

import (
	"reflect"
	"sort"
	"testing"

	"encshare/internal/rmi"
)

// TestUnknownMethodIsAnError: the client speaks one protocol. Against a
// server that lacks a method, every call sends its frame and fails with
// the server's "unknown method" reply — nothing is remembered and
// nothing falls back — and the error is not retryable, so a cluster
// does not fail over on it.
func TestUnknownMethodIsAnError(t *testing.T) {
	srv := rmi.NewServer()
	rmi.HandleFunc(srv, methodRoot, func(empty) (NodeMeta, error) { return NodeMeta{Pre: 1}, nil })
	cli := rmi.Pipe(srv)
	t.Cleanup(func() { cli.Close() })
	rem := NewRemote(cli)

	check := func(err error, method string) {
		t.Helper()
		if !rmi.IsUnknownMethod(err, method) {
			t.Fatalf("%s: err = %v, want the server's unknown-method reply", method, err)
		}
		if Retryable(err) {
			t.Fatalf("%s: unknown method classified retryable", method)
		}
	}
	for i := 0; i < 2; i++ {
		_, err := rem.AggregateBatch(AggregateRequest{Ver: AggregateFrameVersion, Kind: wireAggSum, Pres: PackPres([]int64{1})})
		check(err, methodAggregateBatch)
		_, err = rem.EvalBatch([]EvalRequest{{Pre: 1, Point: 2}})
		check(err, methodEvalBatch)
	}
	want := map[string]int64{methodAggregateBatch: 2, methodEvalBatch: 2}
	if got := rem.CallCounts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("frames sent = %v, want %v", got, want)
	}
}

// TestRemoteMethodsAllServed: against a server registering a Mutable —
// what every production server registers — one call of every Remote
// method gets an answer, never an unknown-method reply, and together
// the calls send every method of the filter service.
func TestRemoteMethodsAllServed(t *testing.T) {
	fx := newFixture(t, testXML)
	srv := rmi.NewServer()
	RegisterServer(srv, NewMutable(fx.server, 0, nil, nil))
	cli := rmi.Pipe(srv)
	t.Cleanup(func() { cli.Close() })
	rem := NewRemote(cli)

	root, err := fx.server.Root()
	if err != nil {
		t.Fatal(err)
	}
	var lease LeaseGrant
	calls := []struct {
		name string
		call func() error
	}{
		{"Root", func() error { _, err := rem.Root(); return err }},
		{"Node", func() error { _, err := rem.Node(root.Pre); return err }},
		{"Children", func() error { _, err := rem.Children(root.Pre); return err }},
		{"Descendants", func() error { _, err := rem.Descendants(root.Pre, root.Post); return err }},
		{"EvalAt", func() error { _, err := rem.EvalAt(root.Pre, 1); return err }},
		{"Poly", func() error { _, err := rem.Poly(root.Pre); return err }},
		{"ChildrenPolys", func() error { _, err := rem.ChildrenPolys(root.Pre); return err }},
		{"Count", func() error { _, err := rem.Count(); return err }},
		{"EvalBatch", func() error { _, err := rem.EvalBatch([]EvalRequest{{Pre: root.Pre, Point: 1}}); return err }},
		{"NodeBatch", func() error { _, err := rem.NodeBatch([]int64{root.Pre}); return err }},
		{"ChildrenBatch", func() error { _, err := rem.ChildrenBatch([]int64{root.Pre}); return err }},
		{"DescendantsBatch", func() error { _, err := rem.DescendantsBatch([]Span{{Pre: root.Pre, Post: root.Post}}); return err }},
		{"NodePolysBatch", func() error { _, err := rem.NodePolysBatch([]int64{root.Pre}); return err }},
		{"NodePolysPartial", func() error { _, err := rem.NodePolysPartial([]int64{root.Pre}); return err }},
		{"FamilyEvals", func() error {
			evals, err := rem.FamilyEvals([]int64{root.Pre}, fx.m.FreePoints())
			if err == nil && (len(evals) != 1 || !evals[0].Has || evals[0].Err != "") {
				t.Errorf("FamilyEvals of the root = %+v", evals)
			}
			return err
		}},
		{"PreRange", func() error { _, err := rem.PreRange(); return err }},
		{"ServerStats", func() error { _, err := rem.ServerStats(); return err }},
		{"AggregateBatch", func() error {
			_, err := rem.AggregateBatch(AggregateRequest{Ver: AggregateFrameVersion, Kind: wireAggCount, Pres: PackPres([]int64{root.Pre})})
			return err
		}},
		{"Epoch", func() error { _, err := rem.Epoch(); return err }},
		{"Mutate", func() error {
			_, err := rem.Mutate(MutationBatch{Ver: MutationBatchVersion, Seq: 1})
			return err
		}},
		{"AcquireLease", func() error {
			var err error
			lease, err = rem.AcquireLease(LeaseRequest{Owner: "w", TTLMillis: 1000})
			return err
		}},
		{"MutateLeased", func() error {
			_, err := rem.MutateLeased(LeasedBatch{LeaseID: lease.ID, B: MutationBatch{Ver: MutationBatchVersion}})
			return err
		}},
		{"ReleaseLease", func() error { return rem.ReleaseLease(lease.ID) }},
	}
	covered := map[string]bool{}
	for _, c := range calls {
		covered[c.name] = true
		before := rem.CallCounts()
		err := c.call()
		for method, n := range rem.CallCounts() {
			if n != before[method] && rmi.IsUnknownMethod(err, method) {
				t.Errorf("Remote.%s: server does not register %s", c.name, method)
			}
		}
	}
	// Every Remote method that issues a frame has a case above.
	local := map[string]bool{"SetTracer": true, "CallCounts": true, "RoundTrips": true, "EvalRoundTrips": true, "SetEpoch": true}
	rt := reflect.TypeOf(rem)
	for i := 0; i < rt.NumMethod(); i++ {
		if name := rt.Method(i).Name; !local[name] && !covered[name] {
			t.Errorf("Remote.%s has no case in this test", name)
		}
	}
	var sent []string
	for method := range rem.CallCounts() {
		sent = append(sent, method)
	}
	sort.Strings(sent)
	want := []string{
		methodAcquireLease, methodAggregateBatch, methodChildren, methodChildrenBatch,
		methodChildrenPolys, methodCount, methodDescendants, methodDescendantsPage,
		methodEpoch, methodEvalAt, methodEvalBatch, methodFamilyEvalsPage, methodMutate, methodMutateLeased,
		methodNode, methodNodeBatch, methodNodePolysPage, methodNodePolysPartialPage,
		methodPoly, methodPreRange, methodReleaseLease, methodRoot, methodServerStats,
	}
	sort.Strings(want)
	if !reflect.DeepEqual(sent, want) {
		t.Fatalf("methods sent:\n %v\nwant\n %v", sent, want)
	}
}
