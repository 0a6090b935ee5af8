package engine

import (
	"fmt"
	"slices"

	"encshare/internal/filter"
	"encshare/internal/gf"
	"encshare/internal/xpath"
)

// advBatch is the advanced traversal, run level-synchronously (in
// waves). It performs exactly the checks of the paper's depth-first
// order — the same look-ahead short-circuit per node, the same
// containment/equality tests per candidate — regrouped into waves so
// that all checks of a wave travel as one transport batch:
//
//   - every pending node checks ONE look-ahead name per wave (preserving
//     the depth-first short-circuit: name i is only evaluated if names
//     0..i-1 passed), all in a single ContainsBatch;
//   - all child-axis expansions of a wave share one ChildrenBatch and one
//     accept batch;
//   - all descendant-walk levels of a wave share one ChildrenBatch, one
//     ContainsBatch prune, and (strict mode) one EqualsBatch.
//
// For full queries the work counters (evaluations, reconstructions,
// fetches, visits) are identical to the depth-first walk (oracle_test.go
// keeps it as a reference); only the grouping changes, so the batched
// transport needs O(depth × names) round-trips instead of O(checks).
//
// In existence mode (predicate evaluation) the traversal runs many
// predicate contexts at once: every alive branch carries the index of
// the frontier candidate it serves, all contexts' branches share the
// wave batches, and a context is satisfied the moment one of its
// branches consumes every step. Satisfied contexts stop spending work
// (their branches are dropped at each stage, the per-context analogue of
// the depth-first short-circuit), so a whole frontier's predicate check
// costs O(depth × names) batches instead of O(frontier) traversals.
// The wave structure checks witness flags between batches rather than
// between nodes, so it may spend different work than a depth-first
// short-circuit would — the boolean answers are always the same.
type advBatch struct {
	e          *Advanced
	test       Test
	steps      []xpath.Step // the run's query: every branch holds a suffix of it
	la         [][]string   // look-ahead names, by the number of steps left
	visited    int64
	out        []filter.NodeMeta
	existsOnly bool
	found      []bool // per-context witness flags (existsOnly mode)
	pending    int    // contexts still without a witness

	items []advItem // nodes clearing look-ahead, then consuming a step
	ready []advItem // this wave's cleared items (reused across waves)
	scans []advScan // descendant walks, one level per wave
	spare []advScan // the previous wave's scans, reused for the next

	// One check batch and its candidates at a time: each stage of a
	// wave is done with them before the next refills them, so they are
	// reused across stages and waves.
	checks []filter.Check
	cands  []advCand
}

// newAdvBatch prepares a run of steps. Every branch a run pushes holds
// a suffix of steps, so its look-ahead names depend only on how many
// steps it has left and are computed once per count here, not per node.
func newAdvBatch(e *Advanced, test Test, steps []xpath.Step, preds []*xpath.Query) *advBatch {
	r := &advBatch{e: e, test: test, steps: steps, la: make([][]string, len(steps)+1)}
	for left := range r.la {
		r.la[left] = lookaheadNames(r.rest(left), preds)
	}
	return r
}

// advItem is one alive traversal branch: a node that must clear the
// look-ahead names r.la[left][la:] (one per wave) and then consume the
// next of its left remaining steps, on behalf of predicate context ctx
// (always 0 for full-result runs).
type advItem struct {
	node filter.NodeMeta
	left int
	la   int
	ctx  int
}

// advScan is one descendant walk position: the children of node are the
// next level, scanned against the step before the last left steps, with
// those left steps to follow below matches.
type advScan struct {
	node filter.NodeMeta
	left int
	ctx  int
}

// advCand is a fetched child awaiting its check: the kid and the index
// of the item or scan whose expansion fetched it.
type advCand struct {
	node  filter.NodeMeta
	owner int
}

// rest returns the run's last left steps.
func (r *advBatch) rest(left int) []xpath.Step { return r.steps[len(r.steps)-left:] }

// scanned returns the step a scan with left steps below it walks for.
func (r *advBatch) scanned(sc advScan) xpath.Step { return r.steps[len(r.steps)-sc.left-1] }

// candidates empties the reusable check batch and candidate list and
// grows them once to hold every child the fetch returned.
func (r *advBatch) candidates(lists [][]filter.NodeMeta) ([]filter.Check, []advCand) {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	return slices.Grow(r.checks[:0], n), slices.Grow(r.cands[:0], n)
}

// done reports whether branch work for ctx is moot (its witness exists).
func (r *advBatch) done(ctx int) bool { return r.existsOnly && r.found[ctx] }

// allDone reports whether every context has its witness.
func (r *advBatch) allDone() bool { return r.existsOnly && r.pending == 0 }

// witness records ctx's witness.
func (r *advBatch) witness(ctx int) {
	if !r.found[ctx] {
		r.found[ctx] = true
		r.pending--
	}
}

// push enqueues a node with left steps to consume — the wave analogue
// of the depth-first walk's recursive call.
func (r *advBatch) push(node filter.NodeMeta, left, ctx int) {
	r.items = append(r.items, advItem{node: node, left: left, ctx: ctx})
}

// start handles the virtual document root — the first step addresses
// the document root itself (child axis) or every node (descendant axis)
// — then drains the wave queue.
func (r *advBatch) start() error {
	if len(r.steps) == 0 {
		return nil
	}
	root, err := r.e.cli.Root()
	if err != nil {
		return err
	}
	s, left := r.steps[0], len(r.steps)-1
	if s.Name == xpath.ParentStep {
		return nil // the virtual root has no parent: empty result
	}
	// "The AdvancedQuery engine always starts at the root node." Along
	// the descendant axis the root is a candidate, then the walk runs
	// downwards.
	r.visited++
	ok := !s.IsNameTest()
	if v, mapped := r.e.val(s.Name); !ok && mapped {
		oks, err := r.e.check([]filter.Check{{Pre: root.Pre, Point: v}}, r.test)
		if err != nil {
			return err
		}
		ok = oks[0]
	}
	if ok {
		r.push(root, left, 0)
	}
	if s.Axis == xpath.Descendant {
		r.scans = append(r.scans, advScan{node: root, left: left})
	}
	return r.drain()
}

// drain runs waves until no branch is alive (or every existence context
// found its witness).
func (r *advBatch) drain() error {
	tr := r.e.cli.Tracer()
	if tr != nil {
		defer tr.EndStep()
	}
	for wave := 1; len(r.items) > 0 || len(r.scans) > 0; wave++ {
		if r.allDone() {
			return nil
		}
		if tr != nil {
			tr.BeginStep(fmt.Sprintf("wave %d (%d branches, %d scans)", wave, len(r.items), len(r.scans)))
		}
		if err := r.wave(); err != nil {
			return err
		}
	}
	return nil
}

// wave advances every alive branch by one round: one look-ahead name per
// pending node, then step consumption for cleared nodes, then one
// descendant-walk level. Branches of satisfied contexts are dropped at
// every stage — no point spending exchanges once their answer is known.
func (r *advBatch) wave() error {
	ready, err := r.lookaheadRound()
	if err != nil {
		return err
	}
	childParents, err := r.consume(ready)
	if err != nil || r.allDone() {
		return err
	}
	if err := r.expandChildren(childParents); err != nil {
		return err
	}
	return r.scanLevel()
}

// lookaheadRound checks one pending look-ahead name per item in a single
// exchange and returns the items whose look-ahead is fully cleared.
// Items still pending stay in r.items, compacted in place.
func (r *advBatch) lookaheadRound() ([]advItem, error) {
	ready := r.ready[:0]
	checks := slices.Grow(r.checks[:0], len(r.items))
	checked := r.items[:0]
	for _, it := range r.items {
		if r.done(it.ctx) {
			continue // context already witnessed: dead branch
		}
		la := r.la[it.left]
		if it.la == len(la) {
			ready = append(ready, it)
			continue
		}
		v, mapped := r.e.val(la[it.la])
		if !mapped {
			continue // name cannot occur anywhere: dead branch
		}
		checks = append(checks, filter.Check{Pre: it.node.Pre, Point: v})
		checked = append(checked, it)
	}
	r.checks = checks
	oks, err := r.e.wire.ContainsBatch(checks)
	if err != nil {
		return nil, err
	}
	pending := checked[:0]
	for i, ok := range oks {
		if !ok {
			continue // dead branch
		}
		it := checked[i]
		it.la++
		if it.la == len(r.la[it.left]) {
			ready = append(ready, it)
		} else {
			pending = append(pending, it)
		}
	}
	r.items, r.ready = pending, ready
	return ready, nil
}

// consume lets every cleared item take its next step: emit results (or
// witnesses), climb parents (one shared exchange), queue descendant
// walks, and collect child expansions for the shared batch (compacted
// in place over ready).
func (r *advBatch) consume(ready []advItem) ([]advItem, error) {
	childParents := ready[:0]
	var parentPres []int64
	var parentItems []advItem
	for _, it := range ready {
		if r.done(it.ctx) {
			continue
		}
		if it.left == 0 {
			if r.existsOnly {
				r.witness(it.ctx)
				continue
			}
			r.out = append(r.out, it.node)
			continue
		}
		s := r.rest(it.left)[0]
		switch {
		case s.Name == xpath.ParentStep:
			if it.node.Parent == 0 {
				continue
			}
			parentPres = append(parentPres, it.node.Parent)
			parentItems = append(parentItems, advItem{left: it.left - 1, ctx: it.ctx})
		case s.Axis == xpath.Child:
			childParents = append(childParents, it)
		case s.Axis == xpath.Descendant:
			r.scans = append(r.scans, advScan{node: it.node, left: it.left - 1, ctx: it.ctx})
		}
	}
	parents, err := r.e.wire.NodeBatch(parentPres)
	if err != nil {
		return nil, err
	}
	for i, parent := range parents {
		r.visited++
		r.push(parent, parentItems[i].left, parentItems[i].ctx)
	}
	return childParents, nil
}

// expandChildren expands all child-axis items of the wave with one
// navigation exchange and filters every candidate with one accept batch.
func (r *advBatch) expandChildren(parents []advItem) error {
	live := parents[:0]
	for _, it := range parents {
		if !r.done(it.ctx) {
			live = append(live, it)
		}
	}
	parents = live
	if len(parents) == 0 {
		return nil
	}
	pres := make([]int64, len(parents))
	for i, it := range parents {
		pres[i] = it.node.Pre
	}
	lists, err := r.e.wire.ChildrenBatch(pres)
	if err != nil {
		return err
	}
	checks, cands := r.candidates(lists)
	for i, it := range parents {
		s := r.rest(it.left)[0]
		var v gf.Elem
		mapped := false
		if s.IsNameTest() {
			v, mapped = r.e.val(s.Name)
		}
		for _, kid := range lists[i] {
			r.visited++
			if !s.IsNameTest() {
				r.push(kid, it.left-1, it.ctx)
				continue
			}
			if !mapped {
				continue
			}
			checks = append(checks, filter.Check{Pre: kid.Pre, Point: v})
			cands = append(cands, advCand{node: kid, owner: i})
		}
	}
	r.checks, r.cands = checks, cands
	oks, err := r.e.check(checks, r.test)
	if err != nil {
		return err
	}
	for i, ok := range oks {
		if ok {
			it := parents[cands[i].owner]
			r.push(cands[i].node, it.left-1, it.ctx)
		}
	}
	return nil
}

// scanLevel advances every descendant walk by one tree level: fetch all
// children in one exchange, prune subtrees that cannot contain the name
// with one ContainsBatch, and (strict mode) accept matches with one
// EqualsBatch. Children that pass the prune both continue the walk and
// (if accepted) enter the remaining steps — the paper's "walk downwards
// ... until this results in a non-zero sum", one level per wave.
func (r *advBatch) scanLevel() error {
	scans := r.scans[:0]
	for _, sc := range r.scans {
		if !r.done(sc.ctx) {
			scans = append(scans, sc)
		}
	}
	// The next level goes into the previous wave's slice; this one is
	// read until we return and refilled one wave later.
	r.scans, r.spare = r.spare[:0], scans
	if len(scans) == 0 {
		return nil
	}
	pres := make([]int64, len(scans))
	for i, sc := range scans {
		pres[i] = sc.node.Pre
	}
	lists, err := r.e.wire.ChildrenBatch(pres)
	if err != nil {
		return err
	}
	checks, cands := r.candidates(lists)
	for i, sc := range scans {
		if s := r.scanned(sc); s.IsNameTest() {
			v, mapped := r.e.val(s.Name)
			if !mapped {
				continue // the name cannot occur: nothing to find below
			}
			for _, kid := range lists[i] {
				r.visited++
				checks = append(checks, filter.Check{Pre: kid.Pre, Point: v})
				cands = append(cands, advCand{node: kid, owner: i})
			}
		} else {
			// //*: every descendant qualifies and the walk continues below.
			for _, kid := range lists[i] {
				r.visited++
				r.push(kid, sc.left, sc.ctx)
				r.scans = append(r.scans, advScan{node: kid, left: sc.left, ctx: sc.ctx})
			}
		}
	}
	r.checks, r.cands = checks, cands
	oks, err := r.e.wire.ContainsBatch(checks)
	if err != nil {
		return err
	}
	// Survivors of the prune continue the walk; in strict mode they are
	// compacted in place to form the EqualsBatch.
	kept := 0
	for i, ok := range oks {
		if !ok {
			continue // prune: nothing below carries the scanned name
		}
		c := cands[i]
		sc := scans[c.owner]
		r.scans = append(r.scans, advScan{node: c.node, left: sc.left, ctx: sc.ctx})
		if r.test == Equality {
			checks[kept], cands[kept] = checks[i], c
			kept++
		} else {
			r.push(c.node, sc.left, sc.ctx)
		}
	}
	if r.test != Equality {
		return nil
	}
	eqOks, err := r.e.check(checks[:kept], Equality)
	if err != nil {
		return err
	}
	for i, ok := range eqOks {
		if ok {
			sc := scans[cands[i].owner]
			r.push(cands[i].node, sc.left, sc.ctx)
		}
	}
	return nil
}
