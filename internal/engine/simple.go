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
		frontier, visited, err := e.steps(q.Steps, test)
		if err != nil {
			return nil, 0, err
		}
		pres, err := applyPreds(e, q, test, frontier)
		return pres, visited, err
	})
}

// evalRelativeBatch implements predEvaluator: the stepwise traversal
// over a frontier of (node, context) pairs. Each step expands and tests
// the candidates of ALL contexts in the same shared batches,
// so answering the existence question for the whole frontier costs the
// same number of round-trips as answering it for one node. A context is
// satisfied iff any of its candidates survives every step.
func (e *Simple) evalRelativeBatch(ctxs []filter.NodeMeta, q *xpath.Query, test Test) ([]bool, error) {
	cur := make([]taggedMeta, len(ctxs))
	for i, m := range ctxs {
		cur[i] = taggedMeta{m: m, ctx: i}
	}
	tr := e.cli.Tracer()
	if tr != nil {
		defer tr.EndStep()
	}
	for _, s := range q.Steps {
		if tr != nil {
			tr.BeginStep("pred " + s.String())
		}
		if len(cur) == 0 {
			break
		}
		// Parent step: navigate up, no test.
		if s.Name == xpath.ParentStep {
			var pres []int64
			var keep []taggedMeta
			for _, tm := range cur {
				if tm.m.Parent != 0 { // root has no parent
					pres = append(pres, tm.m.Parent)
					keep = append(keep, tm)
				}
			}
			parents, err := e.wire.NodeBatch(pres)
			if err != nil {
				return nil, err
			}
			for i := range parents {
				keep[i].m = parents[i]
			}
			cur = dedupTagged(keep)
			continue
		}

		// Expand every context's candidates along the axis together.
		var cands []taggedMeta
		switch s.Axis {
		case xpath.Child:
			pres := make([]int64, len(cur))
			for i, tm := range cur {
				pres[i] = tm.m.Pre
			}
			lists, err := e.wire.ChildrenBatch(pres)
			if err != nil {
				return nil, err
			}
			for i, kids := range lists {
				for _, kid := range kids {
					cands = append(cands, taggedMeta{m: kid, ctx: cur[i].ctx})
				}
			}
		case xpath.Descendant:
			spans := make([]filter.Span, len(cur))
			for i, tm := range cur {
				spans[i] = filter.Span{Pre: tm.m.Pre, Post: tm.m.Post}
			}
			lists, err := e.wire.DescendantsBatch(spans)
			if err != nil {
				return nil, err
			}
			for i, desc := range lists {
				for _, d := range desc {
					cands = append(cands, taggedMeta{m: d, ctx: cur[i].ctx})
				}
			}
			cands = dedupTagged(cands)
		}

		if s.Name == xpath.Wildcard {
			cur = cands
			continue
		}
		v, ok := e.val(s.Name)
		if !ok {
			return make([]bool, len(ctxs)), nil // name cannot occur anywhere
		}
		checks := make([]filter.Check, len(cands))
		for i, tm := range cands {
			checks[i] = filter.Check{Pre: tm.m.Pre, Point: v}
		}
		oks, err := e.check(checks, test)
		if err != nil {
			return nil, err
		}
		var kept []taggedMeta
		for i, ok := range oks {
			if ok {
				kept = append(kept, cands[i])
			}
		}
		cur = kept
	}
	out := make([]bool, len(ctxs))
	for _, tm := range cur {
		out[tm.ctx] = true
	}
	return out, nil
}

// steps applies the step list from the virtual document root, returning
// the final frontier and the number of candidates tested.
func (e *Simple) steps(steps []xpath.Step, test Test) (frontier []filter.NodeMeta, visited int64, err error) {
	tr := e.cli.Tracer()
	if tr != nil {
		defer tr.EndStep()
	}
	for i, s := range steps {
		if tr != nil {
			tr.BeginStep("step " + s.String())
		}
		// Parent step: navigate up, no test.
		if s.Name == xpath.ParentStep {
			var pres []int64
			for _, n := range frontier {
				if n.Parent != 0 { // root has no parent
					pres = append(pres, n.Parent)
				}
			}
			parents, err := e.wire.NodeBatch(pres)
			if err != nil {
				return nil, 0, err
			}
			frontier = dedupMetas(parents)
			continue
		}

		// Expand candidates along the axis.
		cands, err := e.expand(frontier, s, i == 0)
		if err != nil {
			return nil, 0, err
		}

		// Filter by the step's test.
		if s.Name == xpath.Wildcard {
			// "The * reduces the workload because no additional filtering
			// is needed."
			frontier = cands
			continue
		}
		visited += int64(len(cands))
		frontier, err = e.acceptBatch(cands, s.Name, test)
		if err != nil {
			return nil, 0, err
		}
	}
	return frontier, visited, nil
}

// expand collects the step's candidates: the whole frontier is expanded
// along the axis in one transport batch.
func (e *Simple) expand(frontier []filter.NodeMeta, s xpath.Step, fromRoot bool) ([]filter.NodeMeta, error) {
	switch {
	case s.Axis == xpath.Child && fromRoot:
		// "The first slash instructs the search engine to locate the
		// root node ... done in constant time" (indexed parent = 0).
		root, err := e.cli.Root()
		if err != nil {
			return nil, err
		}
		return []filter.NodeMeta{root}, nil
	case s.Axis == xpath.Child:
		pres := make([]int64, len(frontier))
		for i, n := range frontier {
			pres[i] = n.Pre
		}
		lists, err := e.wire.ChildrenBatch(pres)
		if err != nil {
			return nil, err
		}
		var cands []filter.NodeMeta
		for _, kids := range lists {
			cands = append(cands, kids...)
		}
		return cands, nil
	case s.Axis == xpath.Descendant && fromRoot:
		root, err := e.cli.Root()
		if err != nil {
			return nil, err
		}
		desc, err := e.cli.Descendants(root.Pre, root.Post)
		if err != nil {
			return nil, err
		}
		return append([]filter.NodeMeta{root}, desc...), nil
	case s.Axis == xpath.Descendant:
		spans := make([]filter.Span, len(frontier))
		for i, n := range frontier {
			spans[i] = filter.Span{Pre: n.Pre, Post: n.Post}
		}
		lists, err := e.wire.DescendantsBatch(spans)
		if err != nil {
			return nil, err
		}
		var cands []filter.NodeMeta
		for _, desc := range lists {
			cands = append(cands, desc...)
		}
		return dedupMetas(cands), nil
	}
	return nil, nil
}
