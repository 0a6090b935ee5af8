package engine

import (
	"encshare/internal/filter"
	"encshare/internal/mapping"
	"encshare/internal/xpath"
)

// Simple is the SimpleQuery engine of §5.3: it processes the query one
// step at a time, expanding the frontier along the step's axis and
// filtering every candidate with a single test against the step's name.
// The preliminary result set lives server-side in the paper (a Queue);
// here it is the frontier slice, with the same cardinalities.
//
// Each step costs a constant number of transport batches: one to expand
// the whole frontier along the axis and one to test every candidate. The
// batched transport sends each as one exchange; the per-call transport
// sends the paper's per-candidate exchanges.
type Simple struct {
	base
}

// NewSimple builds a simple engine over a client filter and the secret
// map, using the batched pipeline.
func NewSimple(cli *filter.Client, m *mapping.Map) *Simple {
	return &Simple{base{cli: cli, m: m, wire: cli}}
}

// NewSimplePerCall builds a simple engine that issues one server
// exchange per check, as the paper's prototype did — kept for
// measurement (batched-vs-unbatched comparisons). It runs the same
// traversal over the per-call transport.
func NewSimplePerCall(cli *filter.Client, m *mapping.Map) *Simple {
	return &Simple{base{cli: cli, m: m, wire: perCall{cli}}}
}

// Name implements Engine.
func (e *Simple) Name() string { return "simple" }

// Run implements Engine.
func (e *Simple) Run(q *xpath.Query, test Test) (Result, error) {
	return e.run(func() ([]int64, int64, error) {
		found, visited, err := e.walk([]taggedMeta{{}}, q.Steps, test)
		if err != nil {
			return nil, 0, err
		}
		frontier := make([]filter.NodeMeta, len(found))
		for i, tm := range found {
			frontier[i] = tm.m
		}
		pres, err := applyPreds(e, q, test, frontier)
		return pres, visited, err
	})
}

// evalRelativeBatch implements predEvaluator: one walk carries every
// context as a tagged frontier member, so answering the existence
// question for the whole frontier costs the same number of round-trips
// as answering it for one node. A context is satisfied iff any of its
// candidates survives every step.
func (e *Simple) evalRelativeBatch(ctxs []filter.NodeMeta, q *xpath.Query, test Test) ([]bool, error) {
	cur := make([]taggedMeta, len(ctxs))
	for i, m := range ctxs {
		cur[i] = taggedMeta{m: m, ctx: i}
	}
	found, _, err := e.walk(cur, q.Steps, test)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(ctxs))
	for _, tm := range found {
		out[tm.ctx] = true
	}
	return out, nil
}

// walk applies the steps to a frontier of (node, context) pairs,
// expanding and testing the candidates of ALL contexts in the same
// shared batches. It returns the surviving pairs and the number of
// candidates tested. A frontier member with the zero NodeMeta is the
// virtual document root, which a query starts from alone: a child step
// from it reaches the document root — "the first slash instructs the
// search engine to locate the root node ... done in constant time"
// (indexed parent = 0) — and a descendant step the root and everything
// below it.
func (e *Simple) walk(cur []taggedMeta, steps []xpath.Step, test Test) ([]taggedMeta, int64, error) {
	label := "pred "
	if isDocRoot(cur) {
		label = "step "
	}
	tr := e.cli.Tracer()
	if tr != nil {
		defer tr.EndStep()
	}
	var visited int64
	for _, s := range steps {
		if len(cur) == 0 {
			break
		}
		if tr != nil {
			tr.BeginStep(label + s.String())
		}
		// Parent step: navigate up, no test.
		if s.Name == xpath.ParentStep {
			var pres []int64
			var keep []taggedMeta
			for _, tm := range cur {
				if tm.m.Parent != 0 { // neither root has a parent
					pres = append(pres, tm.m.Parent)
					keep = append(keep, tm)
				}
			}
			parents, err := e.wire.NodeBatch(pres)
			if err != nil {
				return nil, 0, err
			}
			for i := range parents {
				keep[i].m = parents[i]
			}
			cur = dedupTagged(keep)
			continue
		}

		// Expand every context's candidates along the axis together.
		var cands []taggedMeta
		fromRoot := isDocRoot(cur)
		if fromRoot {
			root, err := e.cli.Root()
			if err != nil {
				return nil, 0, err
			}
			cur = []taggedMeta{{m: root}}
			cands = cur // the root is a candidate of either axis
		}
		switch {
		case s.Axis == xpath.Child && !fromRoot:
			pres := make([]int64, len(cur))
			for i, tm := range cur {
				pres[i] = tm.m.Pre
			}
			lists, err := e.wire.ChildrenBatch(pres)
			if err != nil {
				return nil, 0, err
			}
			for i, kids := range lists {
				for _, kid := range kids {
					cands = append(cands, taggedMeta{m: kid, ctx: cur[i].ctx})
				}
			}
		case s.Axis == xpath.Descendant:
			spans := make([]filter.Span, len(cur))
			for i, tm := range cur {
				spans[i] = filter.Span{Pre: tm.m.Pre, Post: tm.m.Post}
			}
			lists, err := e.wire.DescendantsBatch(spans)
			if err != nil {
				return nil, 0, err
			}
			for i, desc := range lists {
				for _, d := range desc {
					cands = append(cands, taggedMeta{m: d, ctx: cur[i].ctx})
				}
			}
			cands = dedupTagged(cands)
		}

		if s.Name == xpath.Wildcard {
			// "The * reduces the workload because no additional filtering
			// is needed."
			cur = cands
			continue
		}
		visited += int64(len(cands))
		v, ok := e.val(s.Name)
		if !ok {
			cur = nil // the name cannot occur anywhere
			continue
		}
		checks := make([]filter.Check, len(cands))
		for i, tm := range cands {
			checks[i] = filter.Check{Pre: tm.m.Pre, Point: v}
		}
		oks, err := e.check(checks, test)
		if err != nil {
			return nil, 0, err
		}
		var kept []taggedMeta
		for i, ok := range oks {
			if ok {
				kept = append(kept, cands[i])
			}
		}
		cur = kept
	}
	return cur, visited, nil
}

// isDocRoot reports whether the frontier is the virtual document root.
func isDocRoot(cur []taggedMeta) bool {
	return len(cur) == 1 && cur[0].m == filter.NodeMeta{}
}
