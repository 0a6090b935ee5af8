package engine

import (
	"fmt"

	"encshare/internal/filter"
	"encshare/internal/mapping"
	"encshare/internal/xpath"
)

// depthFirst is the paper's AdvancedQuery in its original depth-first
// order: a root-to-leaf recursion issuing one per-call check at a time.
// It is the reference the wave traversal (advBatch) must match check for
// check — same result set, same evaluations, reconstructions, fetches
// and visits — on queries without predicates. It evaluates no
// predicates.
type depthFirst struct {
	base
}

func newDepthFirst(cli *filter.Client, m *mapping.Map) *depthFirst {
	return &depthFirst{base{cli: cli, m: m}}
}

// Name implements Engine.
func (e *depthFirst) Name() string { return "advanced-depth-first" }

// Run implements Engine.
func (e *depthFirst) Run(q *xpath.Query, test Test) (Result, error) {
	if len(q.Preds) > 0 {
		return Result{}, fmt.Errorf("depth-first reference: %s has predicates", q)
	}
	return e.run(func() ([]int64, int64, error) {
		w := &dfWalk{e: e, test: test}
		if err := w.start(q.Steps); err != nil {
			return nil, 0, err
		}
		var pres []int64
		for _, n := range dedupMetas(w.out) {
			pres = append(pres, n.Pre)
		}
		return pres, w.visited, nil
	})
}

// accept applies the selected test to one candidate with one per-call
// exchange.
func (e *depthFirst) accept(pre int64, name string, test Test) (bool, error) {
	v, ok := e.val(name)
	if !ok {
		return false, nil
	}
	if test == Equality {
		return e.cli.Equals(pre, v)
	}
	return e.cli.Contains(pre, v)
}

// dfWalk is the state of one depth-first traversal.
type dfWalk struct {
	e       *depthFirst
	test    Test
	visited int64
	out     []filter.NodeMeta
}

// start handles the virtual document root: the first step addresses the
// document root itself (child axis) or every node (descendant axis).
func (w *dfWalk) start(steps []xpath.Step) error {
	if len(steps) == 0 {
		return nil
	}
	root, err := w.e.cli.Root()
	if err != nil {
		return err
	}
	s := steps[0]
	if s.Name == xpath.ParentStep {
		return nil // the virtual root has no parent: empty result
	}
	w.visited++
	ok := true
	if s.IsNameTest() {
		if ok, err = w.e.accept(root.Pre, s.Name, w.test); err != nil {
			return err
		}
	}
	if s.Axis == xpath.Child && !ok {
		return nil
	}
	if ok {
		if err := w.rec(root, steps[1:]); err != nil {
			return err
		}
	}
	if s.Axis == xpath.Descendant {
		return w.walkDescendant(root, s, steps[1:])
	}
	return nil
}

// rec processes the remaining steps below an accepted node: first the
// look-ahead prune, then one step.
func (w *dfWalk) rec(node filter.NodeMeta, steps []xpath.Step) error {
	for _, name := range lookaheadNames(steps, nil) {
		v, mapped := w.e.val(name)
		if !mapped {
			return nil // name cannot occur anywhere: dead branch
		}
		ok, err := w.e.cli.Contains(node.Pre, v)
		if err != nil || !ok {
			return err // dead branch (or failure)
		}
	}
	if len(steps) == 0 {
		w.out = append(w.out, node)
		return nil
	}
	s, rest := steps[0], steps[1:]
	if s.Name == xpath.ParentStep {
		if node.Parent == 0 {
			return nil
		}
		parent, err := w.e.cli.Node(node.Parent)
		if err != nil {
			return err
		}
		w.visited++
		return w.rec(parent, rest)
	}
	if s.Axis == xpath.Descendant {
		return w.walkDescendant(node, s, rest)
	}
	kids, err := w.e.cli.Children(node.Pre)
	if err != nil {
		return err
	}
	for _, kid := range kids {
		w.visited++
		if s.IsNameTest() {
			ok, err := w.e.accept(kid.Pre, s.Name, w.test)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
		}
		if err := w.rec(kid, rest); err != nil {
			return err
		}
	}
	return nil
}

// walkDescendant is the paper's "interactively walk downwards in the
// tree evaluating the polynomials ... until this results in a non-zero
// sum": children whose subtrees cannot contain the name are skipped
// wholesale; matching nodes continue with the remaining steps, and the
// walk descends past them for deeper matches.
func (w *dfWalk) walkDescendant(node filter.NodeMeta, s xpath.Step, rest []xpath.Step) error {
	kids, err := w.e.cli.Children(node.Pre)
	if err != nil {
		return err
	}
	v, mapped := w.e.val(s.Name)
	if s.IsNameTest() && !mapped {
		return nil // the name cannot occur: nothing to find below
	}
	for _, kid := range kids {
		w.visited++
		accepted := true
		if s.IsNameTest() {
			contains, err := w.e.cli.Contains(kid.Pre, v)
			if err != nil {
				return err
			}
			if !contains {
				continue // prune: nothing named s.Name anywhere below
			}
			if w.test == Equality {
				if accepted, err = w.e.cli.Equals(kid.Pre, v); err != nil {
					return err
				}
			}
		}
		if accepted {
			if err := w.rec(kid, rest); err != nil {
				return err
			}
		}
		if err := w.walkDescendant(kid, s, rest); err != nil {
			return err
		}
	}
	return nil
}
