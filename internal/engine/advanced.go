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
// The default batched mode runs the same traversal level-synchronously
// (see advanced_batch.go), aggregating every wave's checks into single
// exchanges; sequential mode keeps the paper's depth-first recursion.
type Advanced struct {
	base
}

// NewAdvanced builds an advanced engine over a client filter and the
// secret map, using the batched wave traversal.
func NewAdvanced(cli *filter.Client, m *mapping.Map) *Advanced {
	return &Advanced{base{cli: cli, m: m}}
}

// NewAdvancedSequential builds an advanced engine that issues one server
// exchange per check (the paper's depth-first protocol) — kept for
// measurement.
func NewAdvancedSequential(cli *filter.Client, m *mapping.Map) *Advanced {
	return &Advanced{base{cli: cli, m: m, seq: true}}
}

// Name implements Engine.
func (e *Advanced) Name() string { return "advanced" }

// Run implements Engine.
func (e *Advanced) Run(q *xpath.Query, test Test) (Result, error) {
	return e.run(func() ([]int64, int64, error) {
		var out []filter.NodeMeta
		var visited int64
		if e.seq {
			r := &advRun{e: e, test: test, preds: q.Preds}
			if err := r.start(q.Steps); err != nil {
				return nil, 0, err
			}
			out, visited = r.out, r.visited
		} else {
			r := &advBatch{e: e, test: test, preds: q.Preds}
			if err := r.start(q.Steps); err != nil {
				return nil, 0, err
			}
			out, visited = r.out, r.visited
		}
		frontier := dedupMetas(out)
		pres, err := applyPreds(e, q, test, frontier)
		return pres, visited, err
	})
}

// evalRelative implements predEvaluator with an existence short-circuit.
func (e *Advanced) evalRelative(ctx filter.NodeMeta, q *xpath.Query, test Test) (bool, error) {
	if e.seq {
		r := &advRun{e: e, test: test, existsOnly: true}
		if err := r.fromContext(ctx, q.Steps); err != nil {
			return false, err
		}
		return r.found, nil
	}
	oks, err := e.evalRelativeBatch([]filter.NodeMeta{ctx}, q, test)
	if err != nil {
		return false, err
	}
	return oks[0], nil
}

// evalRelativeBatch implements batchPredEvaluator: one wave traversal
// answers the existence question for every context at once — each
// context's branches ride the same per-wave exchanges, and a witnessed
// context stops spending work. See advBatch.
func (e *Advanced) evalRelativeBatch(ctxs []filter.NodeMeta, q *xpath.Query, test Test) ([]bool, error) {
	r := &advBatch{e: e, test: test, existsOnly: true, found: make([]bool, len(ctxs)), pending: len(ctxs)}
	for i, ctx := range ctxs {
		r.push(ctx, q.Steps, i)
	}
	if err := r.drain(); err != nil {
		return nil, err
	}
	return r.found, nil
}

// advRun is the state of one traversal.
type advRun struct {
	e          *Advanced
	test       Test
	preds      []*xpath.Query // top-level predicates, folded into look-ahead
	visited    int64
	out        []filter.NodeMeta
	existsOnly bool
	found      bool
}

// lookahead returns the names the traversal can require in the current
// subtree (see lookaheadNames).
func (r *advRun) lookahead(steps []xpath.Step) []string {
	return lookaheadNames(steps, r.preds)
}

// lookaheadNames returns the distinct names the engine can safely
// require in the current subtree: name tests up to the first parent step
// (a ".." lets candidates escape the subtree), plus predicate names when
// the remaining path has no parent steps (predicates apply below result
// nodes, which are then inside the subtree). Shared by the depth-first
// and the wave-based traversals.
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

// start handles the virtual document root: the first step addresses the
// document root itself (child axis) or every node (descendant axis).
func (r *advRun) start(steps []xpath.Step) error {
	if len(steps) == 0 {
		return nil
	}
	root, err := r.e.cli.Root()
	if err != nil {
		return err
	}
	s := steps[0]
	if s.Name == xpath.ParentStep {
		return nil // the virtual root has no parent: empty result
	}
	switch s.Axis {
	case xpath.Child:
		// "The AdvancedQuery engine always starts at the root node."
		r.visited++
		if s.IsNameTest() {
			ok, err := r.e.accept(root.Pre, s.Name, r.test)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		return r.rec(root, steps[1:])
	case xpath.Descendant:
		// The root itself is a candidate, then walk downwards.
		r.visited++
		if s.IsNameTest() {
			ok, err := r.e.accept(root.Pre, s.Name, r.test)
			if err != nil {
				return err
			}
			if ok {
				if err := r.rec(root, steps[1:]); err != nil {
					return err
				}
			}
		} else {
			if err := r.rec(root, steps[1:]); err != nil {
				return err
			}
		}
		return r.walkDescendant(root, s, steps[1:])
	}
	return nil
}

// fromContext runs relative steps from an accepted context node (used by
// predicate evaluation).
func (r *advRun) fromContext(ctx filter.NodeMeta, steps []xpath.Step) error {
	return r.rec(ctx, steps)
}

// rec processes the remaining steps below an accepted node. It first
// applies the look-ahead prune, then consumes one step.
func (r *advRun) rec(node filter.NodeMeta, steps []xpath.Step) error {
	if r.existsOnly && r.found {
		return nil
	}
	// Look-ahead: all remaining names must occur in this subtree. (The
	// containment test here is exactly the cheap evaluation of §3.)
	for _, name := range r.lookahead(steps) {
		v, mapped := r.e.val(name)
		if !mapped {
			return nil // name cannot occur anywhere: dead branch
		}
		ok, err := r.e.cli.Contains(node.Pre, v)
		if err != nil {
			return err
		}
		if !ok {
			return nil // dead branch
		}
	}
	if len(steps) == 0 {
		if r.existsOnly {
			r.found = true
		} else {
			r.out = append(r.out, node)
		}
		return nil
	}
	s := steps[0]
	rest := steps[1:]

	if s.Name == xpath.ParentStep {
		if node.Parent == 0 {
			return nil
		}
		parent, err := r.e.cli.Node(node.Parent)
		if err != nil {
			return err
		}
		r.visited++
		return r.rec(parent, rest)
	}

	switch s.Axis {
	case xpath.Child:
		kids, err := r.e.cli.Children(node.Pre)
		if err != nil {
			return err
		}
		for _, kid := range kids {
			if r.existsOnly && r.found {
				return nil
			}
			r.visited++
			if s.IsNameTest() {
				ok, err := r.e.accept(kid.Pre, s.Name, r.test)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
			}
			if err := r.rec(kid, rest); err != nil {
				return err
			}
		}
	case xpath.Descendant:
		return r.walkDescendant(node, s, rest)
	}
	return nil
}

// walkDescendant implements the paper's "interactively walk downwards in
// the tree evaluating the polynomials ... until this results in a
// non-zero sum": children whose subtrees cannot contain the name are
// skipped wholesale; matching nodes continue with the remaining steps,
// and the walk descends past them for deeper matches.
func (r *advRun) walkDescendant(node filter.NodeMeta, s xpath.Step, rest []xpath.Step) error {
	kids, err := r.e.cli.Children(node.Pre)
	if err != nil {
		return err
	}
	var nameVal uint32
	if s.IsNameTest() {
		var mapped bool
		nameVal, mapped = r.e.val(s.Name)
		if !mapped {
			return nil // the name cannot occur: nothing to find below
		}
	}
	for _, kid := range kids {
		if r.existsOnly && r.found {
			return nil
		}
		r.visited++
		if s.IsNameTest() {
			contains, err := r.e.cli.Contains(kid.Pre, nameVal)
			if err != nil {
				return err
			}
			if !contains {
				continue // prune: nothing named s.Name anywhere below
			}
			accepted := true
			if r.test == Equality {
				accepted, err = r.e.cli.Equals(kid.Pre, nameVal)
				if err != nil {
					return err
				}
			}
			if accepted {
				if err := r.rec(kid, rest); err != nil {
					return err
				}
			}
		} else {
			// //*: every descendant qualifies.
			if err := r.rec(kid, rest); err != nil {
				return err
			}
		}
		if err := r.walkDescendant(kid, s, rest); err != nil {
			return err
		}
	}
	return nil
}
