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
// In the default batched mode each step costs a constant number of
// server exchanges: one to expand the whole frontier along the axis and
// one to test every candidate. Sequential mode issues the paper's
// per-candidate exchanges instead.
type Simple struct {
	base
}

// NewSimple builds a simple engine over a client filter and the secret
// map, using the batched pipeline.
func NewSimple(cli *filter.Client, m *mapping.Map) *Simple {
	return &Simple{base{cli: cli, m: m}}
}

// NewSimpleSequential builds a simple engine that issues one server
// exchange per check, as the paper's prototype did — kept for
// measurement (batched-vs-unbatched comparisons).
func NewSimpleSequential(cli *filter.Client, m *mapping.Map) *Simple {
	return &Simple{base{cli: cli, m: m, seq: true}}
}

// Name implements Engine.
func (e *Simple) Name() string { return "simple" }

// Run implements Engine.
func (e *Simple) Run(q *xpath.Query, test Test) (Result, error) {
	return e.run(func() ([]int64, int64, error) {
		var visited int64
		frontier, err := e.steps(nil, q.Steps, test, true, &visited)
		if err != nil {
			return nil, 0, err
		}
		pres, err := applyPreds(e, q, test, frontier)
		return pres, visited, err
	})
}

// evalRelative implements predEvaluator: true iff the relative query has
// at least one match below ctx.
func (e *Simple) evalRelative(ctx filter.NodeMeta, q *xpath.Query, test Test) (bool, error) {
	var visited int64
	frontier, err := e.steps([]filter.NodeMeta{ctx}, q.Steps, test, false, &visited)
	if err != nil {
		return false, err
	}
	return len(frontier) > 0, nil
}

// evalRelativeBatch implements batchPredEvaluator: the stepwise
// traversal over a frontier of (node, context) pairs. Each step expands
// and tests the candidates of ALL contexts in the same shared exchanges,
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
			parents, err := e.cli.NodeBatch(pres)
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
			lists, err := e.cli.ChildrenBatch(pres)
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
			lists, err := e.cli.DescendantsBatch(spans)
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
		var oks []bool
		var err error
		if test == Equality {
			oks, err = e.cli.EqualsBatch(checks)
		} else {
			oks, err = e.cli.ContainsBatch(checks)
		}
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

// steps applies the step list to a frontier. fromRoot selects the virtual
// document root as initial context.
func (e *Simple) steps(frontier []filter.NodeMeta, steps []xpath.Step, test Test, fromRoot bool, visited *int64) ([]filter.NodeMeta, error) {
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
			var parents []filter.NodeMeta
			if e.seq {
				for _, n := range frontier {
					if n.Parent == 0 {
						continue // root has no parent
					}
					p, err := e.cli.Node(n.Parent)
					if err != nil {
						return nil, err
					}
					parents = append(parents, p)
				}
			} else {
				var pres []int64
				for _, n := range frontier {
					if n.Parent != 0 { // root has no parent
						pres = append(pres, n.Parent)
					}
				}
				var err error
				parents, err = e.cli.NodeBatch(pres)
				if err != nil {
					return nil, err
				}
			}
			frontier = dedupMetas(parents)
			continue
		}

		// Expand candidates along the axis.
		cands, err := e.expand(frontier, s, i == 0 && fromRoot)
		if err != nil {
			return nil, err
		}

		// Filter by the step's test.
		if s.Name == xpath.Wildcard {
			// "The * reduces the workload because no additional filtering
			// is needed."
			frontier = cands
			continue
		}
		if e.seq {
			var kept []filter.NodeMeta
			for _, c := range cands {
				*visited++
				ok, err := e.accept(c.Pre, s.Name, test)
				if err != nil {
					return nil, err
				}
				if ok {
					kept = append(kept, c)
				}
			}
			frontier = kept
			continue
		}
		*visited += int64(len(cands))
		frontier, err = e.acceptBatch(cands, s.Name, test)
		if err != nil {
			return nil, err
		}
	}
	return frontier, nil
}

// expand collects the step's candidates: the whole frontier is expanded
// along the axis in one server exchange in batched mode.
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
		if e.seq {
			var cands []filter.NodeMeta
			for _, n := range frontier {
				kids, err := e.cli.Children(n.Pre)
				if err != nil {
					return nil, err
				}
				cands = append(cands, kids...)
			}
			return cands, nil
		}
		pres := make([]int64, len(frontier))
		for i, n := range frontier {
			pres[i] = n.Pre
		}
		lists, err := e.cli.ChildrenBatch(pres)
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
		var cands []filter.NodeMeta
		if e.seq {
			for _, n := range frontier {
				desc, err := e.cli.Descendants(n.Pre, n.Post)
				if err != nil {
					return nil, err
				}
				cands = append(cands, desc...)
			}
		} else {
			spans := make([]filter.Span, len(frontier))
			for i, n := range frontier {
				spans[i] = filter.Span{Pre: n.Pre, Post: n.Post}
			}
			lists, err := e.cli.DescendantsBatch(spans)
			if err != nil {
				return nil, err
			}
			for _, desc := range lists {
				cands = append(cands, desc...)
			}
		}
		return dedupMetas(cands), nil
	}
	return nil, nil
}
