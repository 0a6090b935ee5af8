// Package engine implements the paper's two query engines (§5.3):
//
//   - SimpleQuery parses the query left to right, carrying a frontier of
//     candidate nodes and performing a single test per candidate per step.
//   - AdvancedQuery walks the tree root-to-leaf, and at every visited node
//     containment-checks ALL remaining query names against the node's
//     polynomial (which "has knowledge of all descendants"), pruning dead
//     branches early at the cost of more evaluations per node.
//
// Both engines run with either test (§6.3): non-strict (containment:
// cheap, may over-approximate) or strict (equality: exact, costs
// O(#children) reconstructions per accepted candidate). For a fixed test
// the two engines return identical result sets; they differ only in the
// work spent (the subject of Figs. 5 and 6).
//
// Each engine runs one traversal, for a query and its predicates alike:
// the simple engine a tagged frontier per step (Simple.walk), the
// advanced engine a wave per tree level (advanced_batch.go). Every check
// and every navigation below the root, the root's own test included,
// travels through the engine's transport.
// The default transport is the filter client itself, which sends a batch
// as one exchange, so a remote query costs O(steps) round-trips instead
// of O(candidates) — including predicates, whose existence checks run as
// ONE multi-context traversal over the whole result frontier
// (evalRelativeBatch). NewSimplePerCall / NewAdvancedPerCall keep
// the paper's one-exchange-per-check protocol (§5.2) for measurement: the
// perCall transport sends each member of every batch as its own
// exchange. Both transports run the same checks, so result sets and
// work counters are identical; only the exchange count differs. For
// queries without predicates the checks are exactly those of the paper's
// depth-first walk (oracle_test.go keeps that walk as a reference);
// predicate evaluation short-circuits per wave rather than per node, so
// its counters can differ from the depth-first walk's.
package engine

import (
	"errors"
	"sort"
	"time"

	"encshare/internal/filter"
	"encshare/internal/gf"
	"encshare/internal/mapping"
	"encshare/internal/xpath"
)

// Test selects the per-step matching rule.
type Test int

const (
	// Containment is the non-strict test: one evaluation pair per check.
	Containment Test = iota
	// Equality is the strict test: first-factor reconstruction.
	Equality
)

func (t Test) String() string {
	if t == Equality {
		return "strict"
	}
	return "non-strict"
}

// Stats describes the work one query run performed.
type Stats struct {
	// Evaluations is the number of containment point-tests (client+server
	// evaluation pairs) — the y-axis of Fig. 5.
	Evaluations int64
	// Reconstructions is the number of polynomial reconstructions done by
	// equality tests.
	Reconstructions int64
	// NodesFetched counts node metadata records pulled from the server.
	NodesFetched int64
	// NodesVisited counts candidate nodes the engine examined.
	NodesVisited int64
	// Decodes counts client-side share-blob decodes (the per-row cost of
	// equality tests; the limb codec made each one cheap, this makes
	// them visible).
	Decodes int64
	// Folds counts client shares folded into an aggregate accumulator —
	// zero for plain queries, the per-row client cost of the aggregation
	// phase when Session.Aggregate merges that phase's work in.
	Folds int64
	// Elapsed is the wall-clock execution time — the y-axis of Fig. 6.
	Elapsed time.Duration
}

// Result is a query answer: the pre positions of matched nodes, in
// document order.
type Result struct {
	Pres  []int64
	Stats Stats
}

// Engine is the common interface of the two strategies.
type Engine interface {
	// Run executes a parsed query under the given test.
	Run(q *xpath.Query, test Test) (Result, error)
	// Name identifies the strategy ("simple" or "advanced").
	Name() string
}

// base holds what both engines need: the client filter (seed side), the
// secret map to translate names to evaluation points, and the transport
// the traversal's batches travel through.
type base struct {
	cli  *filter.Client
	m    *mapping.Map
	wire transport
}

// transport carries a traversal's batched checks and navigation to the
// filter. *filter.Client sends each batch as a single exchange.
type transport interface {
	ContainsBatch(checks []filter.Check) ([]bool, error)
	EqualsBatch(checks []filter.Check) ([]bool, error)
	NodeBatch(pres []int64) ([]filter.NodeMeta, error)
	ChildrenBatch(pres []int64) ([][]filter.NodeMeta, error)
	DescendantsBatch(spans []filter.Span) ([][]filter.NodeMeta, error)
}

// perCall is the paper's protocol (§5.2) as a transport: every member of
// a batch is sent as its own exchange through the client's per-call
// methods, so the same traversal issues one exchange per check.
type perCall struct{ cli *filter.Client }

func (p perCall) ContainsBatch(checks []filter.Check) ([]bool, error) {
	return eachCall(checks, func(c filter.Check) (bool, error) { return p.cli.Contains(c.Pre, c.Point) })
}

func (p perCall) EqualsBatch(checks []filter.Check) ([]bool, error) {
	return eachCall(checks, func(c filter.Check) (bool, error) { return p.cli.Equals(c.Pre, c.Point) })
}

func (p perCall) NodeBatch(pres []int64) ([]filter.NodeMeta, error) {
	return eachCall(pres, p.cli.Node)
}

func (p perCall) ChildrenBatch(pres []int64) ([][]filter.NodeMeta, error) {
	return eachCall(pres, p.cli.Children)
}

func (p perCall) DescendantsBatch(spans []filter.Span) ([][]filter.NodeMeta, error) {
	return eachCall(spans, func(s filter.Span) ([]filter.NodeMeta, error) { return p.cli.Descendants(s.Pre, s.Post) })
}

// eachCall answers a batch one member at a time, in order, stopping at
// the first error.
func eachCall[T, R any](in []T, call func(T) (R, error)) ([]R, error) {
	if len(in) == 0 {
		return nil, nil
	}
	out := make([]R, len(in))
	for i, x := range in {
		r, err := call(x)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// val resolves a query name to its evaluation point. A name absent from
// the map cannot occur in the encoded document (the map covers the whole
// tag/alphabet universe), so it is reported as unmappable rather than as
// an error — the XPath semantics of querying a nonexistent tag is an
// empty result, and a content search for a character outside the corpus
// alphabet must simply not match.
func (b *base) val(name string) (v gf.Elem, ok bool) {
	v, err := b.m.Value(name)
	if err != nil {
		var unknown *mapping.UnknownNameError
		if errors.As(err, &unknown) {
			return 0, false
		}
	}
	return v, true
}

// check applies the selected test to a check batch (Contains for
// non-strict, Equals for strict) as one transport batch.
func (b *base) check(checks []filter.Check, test Test) ([]bool, error) {
	if test == Equality {
		return b.wire.EqualsBatch(checks)
	}
	return b.wire.ContainsBatch(checks)
}

// run wraps an engine body with counter snapshots and timing.
func (b *base) run(body func() ([]int64, int64, error)) (Result, error) {
	before := b.cli.Counters.Snapshot()
	start := time.Now()
	pres, visited, err := body()
	elapsed := time.Since(start)
	if err != nil {
		return Result{}, err
	}
	d := b.cli.Counters.Snapshot().Sub(before)
	sort.Slice(pres, func(i, j int) bool { return pres[i] < pres[j] })
	return Result{
		Pres: pres,
		Stats: Stats{
			Evaluations:     d.Evaluations,
			Reconstructions: d.Reconstructions,
			NodesFetched:    d.NodesFetched,
			NodesVisited:    visited,
			Decodes:         d.Decodes,
			Folds:           d.Folds,
			Elapsed:         elapsed,
		},
	}, nil
}

// predEvaluator answers a predicate's existence question for a whole
// slice of context nodes with one traversal, so a predicate costs
// O(steps) transport batches instead of O(frontier) separate traversals.
type predEvaluator interface {
	evalRelativeBatch(ctxs []filter.NodeMeta, q *xpath.Query, test Test) ([]bool, error)
}

// applyPreds filters the frontier through each predicate with one
// multi-context traversal per predicate: all surviving candidates are
// carried as contexts of the same wave, so every traversal level costs
// a constant number of transport batches regardless of frontier width.
// Predicates are conjunctive and short-circuit: a candidate killed by
// predicate i is not carried into i+1.
func applyPreds(b predEvaluator, q *xpath.Query, test Test, frontier []filter.NodeMeta) ([]int64, error) {
	alive := frontier
	for _, p := range q.Preds {
		if len(alive) == 0 {
			break
		}
		oks, err := b.evalRelativeBatch(alive, p, test)
		if err != nil {
			return nil, err
		}
		var kept []filter.NodeMeta
		for i, ok := range oks {
			if ok {
				kept = append(kept, alive[i])
			}
		}
		alive = kept
	}
	var out []int64
	for _, n := range alive {
		out = append(out, n.Pre)
	}
	return out, nil
}

// taggedMeta couples a candidate node with the index of the predicate
// context it descends from, so one shared traversal can attribute its
// survivors back to their contexts.
type taggedMeta struct {
	m   filter.NodeMeta
	ctx int
}

// dedupTagged dedups by (context, pre) and restores per-context pre
// order — the multi-context analogue of dedupMetas, keeping each
// context's candidate set exactly what its solo traversal would carry.
func dedupTagged(ms []taggedMeta) []taggedMeta {
	seen := make(map[taggedKey]bool, len(ms))
	out := ms[:0]
	for _, tm := range ms {
		k := taggedKey{tm.ctx, tm.m.Pre}
		if !seen[k] {
			seen[k] = true
			out = append(out, tm)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ctx != out[j].ctx {
			return out[i].ctx < out[j].ctx
		}
		return out[i].m.Pre < out[j].m.Pre
	})
	return out
}

type taggedKey struct {
	ctx int
	pre int64
}

func dedupMetas(ms []filter.NodeMeta) []filter.NodeMeta {
	seen := make(map[int64]bool, len(ms))
	out := ms[:0]
	for _, m := range ms {
		if !seen[m.Pre] {
			seen[m.Pre] = true
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pre < out[j].Pre })
	return out
}
