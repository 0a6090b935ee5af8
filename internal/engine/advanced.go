package engine

import (
	"encshare/internal/filter"
	"encshare/internal/mapping"
	"encshare/internal/xpath"
)

// Advanced is the AdvancedQuery engine of §5.3: a root-to-leaf traversal
// with look-ahead. At every visited node it containment-checks all
// remaining query names (the node's polynomial knows its whole subtree),
// so dead branches are abandoned as early as possible at the cost of more
// evaluations per node. For Table 1's straight-line queries this is the
// worst case (no branch to prune, extra evaluations); for Table 2's
// queries with // and * it wins by skipping whole regions (§6.2–6.3).
//
// The traversal runs level-synchronously (see advanced_batch.go): it
// performs the checks of the paper's depth-first order, regrouped into
// waves whose checks travel as single transport batches.
type Advanced struct {
	base
}

// NewAdvanced builds an advanced engine over a client filter and the
// secret map, sending every wave batch as one exchange.
func NewAdvanced(cli *filter.Client, m *mapping.Map) *Advanced {
	return &Advanced{base{cli: cli, m: m, wire: cli}}
}

// NewAdvancedPerCall builds an advanced engine that issues one server
// exchange per check (the paper's per-call protocol) — kept for
// measurement. It runs the same wave traversal over the per-call
// transport.
func NewAdvancedPerCall(cli *filter.Client, m *mapping.Map) *Advanced {
	return &Advanced{base{cli: cli, m: m, wire: perCall{cli}}}
}

// Name implements Engine.
func (e *Advanced) Name() string { return "advanced" }

// Run implements Engine.
func (e *Advanced) Run(q *xpath.Query, test Test) (Result, error) {
	return e.run(func() ([]int64, int64, error) {
		r := newAdvBatch(e, test, q.Steps, q.Preds)
		if err := r.start(); err != nil {
			return nil, 0, err
		}
		pres, err := applyPreds(e, q, test, dedupMetas(r.out))
		return pres, r.visited, err
	})
}

// evalRelativeBatch implements predEvaluator: one wave traversal
// answers the existence question for every context at once — each
// context's branches ride the same per-wave batches, and a witnessed
// context stops spending work. See advBatch.
func (e *Advanced) evalRelativeBatch(ctxs []filter.NodeMeta, q *xpath.Query, test Test) ([]bool, error) {
	r := newAdvBatch(e, test, q.Steps, nil)
	r.existsOnly, r.found, r.pending = true, make([]bool, len(ctxs)), len(ctxs)
	r.items = make([]advItem, 0, len(ctxs))
	for i, ctx := range ctxs {
		r.push(ctx, len(q.Steps), i)
	}
	if err := r.drain(); err != nil {
		return nil, err
	}
	return r.found, nil
}

// lookaheadNames returns the distinct names the engine can safely
// require in the current subtree: name tests up to the first parent step
// (a ".." lets candidates escape the subtree), plus predicate names when
// the remaining path has no parent steps (predicates apply below result
// nodes, which are then inside the subtree).
func lookaheadNames(steps []xpath.Step, preds []*xpath.Query) []string {
	seen := map[string]bool{}
	var names []string
	sawParent := false
	for _, s := range steps {
		if s.Name == xpath.ParentStep {
			sawParent = true
			break
		}
		if s.IsNameTest() && !seen[s.Name] {
			seen[s.Name] = true
			names = append(names, s.Name)
		}
	}
	if !sawParent {
		for _, p := range preds {
			if predHasParentStep(p) {
				continue
			}
			for _, n := range p.Names() {
				if !seen[n] {
					seen[n] = true
					names = append(names, n)
				}
			}
		}
	}
	return names
}

func predHasParentStep(q *xpath.Query) bool {
	for _, s := range q.Steps {
		if s.Name == xpath.ParentStep {
			return true
		}
	}
	return false
}
