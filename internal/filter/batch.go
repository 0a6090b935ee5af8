// Batched filter protocol: the round-trip aggregation layer.
//
// The paper's interactive protocol (§5.2) pays one client↔server exchange
// per candidate-node check, which is exactly the cost Figs. 5–6 measure.
// The batch API below collapses all checks of one engine step into a
// single exchange: the client ships every (node, point) pair at once, the
// server evaluates the batch members in parallel on a worker pool
// bounded by GOMAXPROCS, and one reply frame carries all field values
// back. The same aggregation is applied to navigation
// (children/descendant fetches) and to the strict test's polynomial
// retrievals, so a whole frontier is expanded and filtered in O(1)
// round-trips instead of O(candidates).
//
// Every ServerAPI implements BatchAPI; the per-call methods stay for the
// engines' PerCall mode, the paper's protocol.
package filter

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"encshare/internal/gf"
	"encshare/internal/ring"
	"encshare/internal/store"
)

// EvalRequest is one member of a batched evaluation: evaluate the server
// share of the node at Pre at Point.
type EvalRequest struct {
	Pre   int64
	Point gf.Elem
}

// EvalResult is the per-member reply. Err is a string (not error) so the
// batch has a plain wire encoding and a failure pinpoints the member that
// caused it. Error identity (errors.Is/As) is not preserved across a
// batch — the wire format carries messages, exactly as per-call RMI
// replies do. Current consumers abort a whole client call on the first
// member error; the per-member granularity exists so partial-tolerance
// consumers can be added without a protocol change.
type EvalResult struct {
	Val gf.Elem
	Err string
}

// Span addresses a subtree by its (pre, post) interval, for batched
// descendant fetches.
type Span struct {
	Pre  int64
	Post int64
}

// NodePolys bundles everything the strict equality test needs for one
// candidate: the node's own share row plus all child share rows.
type NodePolys struct {
	Node     PolyRow
	Children []PolyRow
	Err      string
}

// BatchAPI is the batched part of ServerAPI: each method is one
// round-trip carrying a whole engine step's worth of work.
type BatchAPI interface {
	// EvalBatch evaluates every (node, point) pair, in parallel server-side.
	EvalBatch(reqs []EvalRequest) ([]EvalResult, error)
	// NodeBatch returns the metadata of every listed node (parent steps).
	NodeBatch(pres []int64) ([]NodeMeta, error)
	// ChildrenBatch returns the children of every listed node, in order.
	ChildrenBatch(pres []int64) ([][]NodeMeta, error)
	// DescendantsBatch returns the proper descendants of every span.
	DescendantsBatch(spans []Span) ([][]NodeMeta, error)
	// NodePolysBatch returns the equality-test bundle of every listed node.
	NodePolysBatch(pres []int64) ([]NodePolys, error)
}

// parallelFor runs fn(0..n-1) on at most GOMAXPROCS goroutines. With
// one worker (or one item) it degenerates to a plain loop, so callers
// pay no goroutine overhead for tiny batches.
func parallelFor(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				fn(int(i))
			}
		}()
	}
	wg.Wait()
}

// firstBatchErr converts the first per-member error of a batch into a Go
// error (the batch transport itself succeeded).
func firstBatchErr(errs []EvalResult) error {
	for _, r := range errs {
		if r.Err != "" {
			return errors.New(r.Err)
		}
	}
	return nil
}

// Batch frames must stay under the rmi frame limit (64 MiB), so client
// batches are split into bounded chunks before they hit the wire. A
// step still costs O(1) exchanges; the constant only grows for
// frontiers of tens of thousands of members. Chunk sizes are matched to
// the per-member weight of the heavier side: evaluations and node
// metadata are a few bytes each way, and children lists carry one
// fanout's worth of metadata. DescendantsBatch and NodePolysBatch
// replies carry whole subtrees or share blobs, but the server pages
// those by bytes (paged.go), so their chunks bound only the request
// frame: a member there is one span or one pre, one or two varints as
// in NodeBatch, and 1<<14 of them stay far below 64 MiB. One engine
// wave is therefore one exchange on those methods. At 256 members a
// chunk split waves: scan-large took 29.6 round trips per op, and 16.2
// with the chunks lifted. The larger reply frames are read through
// rmi's doubling buffer above its 64 KiB retained one; the server pays
// for that by reading each bundle from its pages once (store.Bundle),
// so scan-large still allocates less per op than it did at 256 (10 777
// → 9 451 KiB, one bench run each way, 2-CPU host). Variables, not
// constants, so tests can shrink them.
var (
	evalChunkSize     = 1 << 16 // one field element per member
	metaChunkSize     = 1 << 14 // one NodeMeta per member
	childrenChunkSize = 1 << 12 // one child list per member
	descChunkSize     = 1 << 14 // one span per member
	polyChunkSize     = 1 << 14 // one pre per member
)

// chunked calls fn on successive [lo, hi) windows of size at most chunk
// over n items.
func chunked(n, chunk int, fn func(lo, hi int) error) error {
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if err := fn(lo, hi); err != nil {
			return err
		}
	}
	return nil
}

// checkReplyLen guards against a buggy or malicious server answering a
// batch with the wrong member count — the server is untrusted in this
// scheme, so a bad reply must become a protocol error, not an
// out-of-range panic in the client. The typed BadReplyError additionally
// lets a replicated cluster retry the batch on another replica.
func checkReplyLen[T any](part []T, want int) error {
	if len(part) != want {
		return &BadReplyError{Msg: fmt.Sprintf("batch reply carried %d members for %d requests", len(part), want)}
	}
	return nil
}

// batchChunks is the shared skeleton of every client batch method: ship
// frame-bounded chunks through batch, validating each reply's member
// count. A batch that fits one chunk returns that chunk's reply as is.
func batchChunks[Req, Resp any](reqs []Req, chunk int, batch func([]Req) ([]Resp, error)) ([]Resp, error) {
	var out []Resp
	err := chunked(len(reqs), chunk, func(lo, hi int) error {
		part, err := batch(reqs[lo:hi])
		if err != nil {
			return err
		}
		if err := checkReplyLen(part, hi-lo); err != nil {
			return err
		}
		if hi-lo == len(reqs) {
			out = part
			return nil
		}
		if out == nil {
			out = make([]Resp, 0, len(reqs))
		}
		out = append(out, part...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

var _ ServerAPI = (*ServerFilter)(nil)

// groupByPre orders request indices by node — the shared pre-grouping
// of the batched eval paths (server and client), which lets each side
// pay its per-node cost (decode, PRG stream) once however many points
// one node is asked. idx is 0..n-1 stably sorted by pre (left as is
// when the pres already ascend); starts holds the position in idx where
// each distinct node's run begins, then n, so node g's indices are
// idx[starts[g]:starts[g+1]], in request order. Nodes come in ascending
// pre order, not first-seen order.
func groupByPre(n int, preAt func(int) int64) (idx, starts []int) {
	buf := make([]int, 2*n+1)
	idx, starts = buf[:n], buf[n:n]
	sorted := true
	for i := range idx {
		idx[i] = i
		sorted = sorted && (i == 0 || preAt(i-1) <= preAt(i))
	}
	if !sorted {
		slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(preAt(a), preAt(b)) })
	}
	for i := range idx {
		if i == 0 || preAt(idx[i]) != preAt(idx[i-1]) {
			starts = append(starts, i)
		}
	}
	return idx, append(starts, n)
}

// EvalBatch implements BatchAPI: all members are evaluated on the worker
// pool against the shared decoded-polynomial cache. Members are grouped
// by node first, so each distinct polynomial is fetched and decoded once
// per batch however many points it is evaluated at (the advanced
// engine's look-ahead asks several names of the same node); all of one
// node's points go through ring.EvalMany, a single pass over the
// coefficients.
func (s *ServerFilter) EvalBatch(reqs []EvalRequest) ([]EvalResult, error) {
	out := make([]EvalResult, len(reqs))
	order, starts := groupByPre(len(reqs), func(i int) int64 { return reqs[i].Pre })
	parallelFor(len(starts)-1, func(g int) {
		idx := order[starts[g]:starts[g+1]]
		var ptsArr, valsArr [8]gf.Elem
		var pts, vals []gf.Elem
		if len(idx) <= len(ptsArr) {
			pts, vals = ptsArr[:0], valsArr[:len(idx)]
		} else {
			pts, vals = make([]gf.Elem, 0, len(idx)), make([]gf.Elem, len(idx))
		}
		for _, i := range idx {
			pts = append(pts, reqs[i].Point)
		}
		err := s.withPoly(reqs[idx[0]].Pre, func(p ring.Poly) { s.r.EvalManyInto(vals, p, pts) })
		if err != nil {
			for _, i := range idx {
				out[i].Err = err.Error()
			}
			return
		}
		s.evals.Add(int64(len(idx)))
		for j, i := range idx {
			out[i].Val = vals[j]
		}
	})
	return out, nil
}

// NodeBatch implements BatchAPI.
func (s *ServerFilter) NodeBatch(pres []int64) ([]NodeMeta, error) {
	out := make([]NodeMeta, len(pres))
	errs := make([]error, len(pres))
	parallelFor(len(pres), func(i int) {
		row, err := s.st.NodeMeta(pres[i])
		if err != nil {
			errs[i] = err
			return
		}
		out[i] = NodeMeta{Pre: row.Pre, Post: row.Post, Parent: row.Parent}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ChildrenBatch implements BatchAPI. Every member's children are
// appended to one backing array, which the reply's lists then slice.
func (s *ServerFilter) ChildrenBatch(pres []int64) ([][]NodeMeta, error) {
	var all []NodeMeta
	ends := make([]int, len(pres))
	for i, pre := range pres {
		err := s.st.VisitChildrenMeta(pre, func(pre, post, parent int64) {
			all = append(all, NodeMeta{Pre: pre, Post: post, Parent: parent})
		})
		if err != nil {
			return nil, err
		}
		ends[i] = len(all)
	}
	out := make([][]NodeMeta, len(pres))
	start := 0
	for i, end := range ends {
		out[i] = all[start:end:end]
		start = end
	}
	return out, nil
}

// DescendantsBatch implements BatchAPI.
func (s *ServerFilter) DescendantsBatch(spans []Span) ([][]NodeMeta, error) {
	out := make([][]NodeMeta, len(spans))
	errs := make([]error, len(spans))
	parallelFor(len(spans), func(i int) {
		metas, err := descendantsMeta(s.st, spans[i].Pre, spans[i].Post)
		if err != nil {
			errs[i] = err
			return
		}
		out[i] = metas
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// NodePolysBatch implements BatchAPI: NodePolysPartial's bundles, with
// a node this table does not hold as the member's error.
func (s *ServerFilter) NodePolysBatch(pres []int64) ([]NodePolys, error) {
	return bundles(s, pres, func(pre int64, b PartialNodePolys) NodePolys {
		if b.Err == "" && !b.Has {
			return NodePolys{Err: store.NotFoundError(pre).Error()}
		}
		return NodePolys{Node: b.Node, Children: b.Children, Err: b.Err}
	}), nil
}

// Check is one client-level containment/equality check: node at Pre
// against evaluation point Point.
type Check struct {
	Pre   int64
	Point gf.Elem
}

// ContainsBatch runs the containment test for every check with a single
// server exchange: true at index i iff the subtree of checks[i].Pre
// contains a node mapped to checks[i].Point. The client halves of the
// evaluations run in parallel on the client worker pool, grouped by
// node: all points asked of one node share a single PRG stream pass
// (scheme.EvalClientMany), which is the dominant client-side cost.
func (c *Client) ContainsBatch(checks []Check) ([]bool, error) {
	if len(checks) == 0 {
		return nil, nil
	}
	reqs := make([]EvalRequest, len(checks))
	for i, ch := range checks {
		reqs[i] = EvalRequest(ch)
	}
	results, err := batchChunks(reqs, evalChunkSize, c.api.EvalBatch)
	if err != nil {
		return nil, err
	}
	if err := firstBatchErr(results); err != nil {
		return nil, err
	}
	out := make([]bool, len(checks))
	order, starts := groupByPre(len(checks), func(i int) int64 { return checks[i].Pre })
	parallelFor(len(starts)-1, func(g int) {
		idx := order[starts[g]:starts[g+1]]
		pre := checks[idx[0]].Pre
		var ptsArr, valsArr [8]gf.Elem
		var pts, vals []gf.Elem
		if len(idx) <= len(ptsArr) {
			pts, vals = ptsArr[:0], valsArr[:len(idx)]
		} else {
			pts, vals = make([]gf.Elem, 0, len(idx)), make([]gf.Elem, len(idx))
		}
		for _, i := range idx {
			pts = append(pts, checks[i].Point)
		}
		c.scheme.EvalClientMany(uint64(pre), pts, vals)
		f := c.r.Field()
		for j, i := range idx {
			out[i] = f.Add(results[i].Val, vals[j]) == 0
		}
	})
	c.Counters.Evaluations.Add(int64(len(checks)))
	return out, nil
}

// EqualsBatch runs the strict equality test for every check with a single
// server exchange fetching all share rows; reconstructions run in
// parallel on the client worker pool.
func (c *Client) EqualsBatch(checks []Check) ([]bool, error) {
	if len(checks) == 0 {
		return nil, nil
	}
	pres := make([]int64, len(checks))
	for i, ch := range checks {
		pres[i] = ch.Pre
	}
	bundles, err := batchChunks(pres, polyChunkSize, c.api.NodePolysBatch)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(checks))
	errs := make([]error, len(checks))
	var recons atomic.Int64
	parallelFor(len(checks), func(i int) {
		b := bundles[i]
		if b.Err != "" {
			errs[i] = errors.New(b.Err)
			return
		}
		ok, n, err := c.equalsFromBundle(checks[i].Pre, checks[i].Point, b)
		if err != nil {
			errs[i] = err
			return
		}
		recons.Add(n)
		out[i] = ok
	})
	c.Counters.Reconstructions.Add(recons.Load())
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// equalsFromBundle is the client half of one strict test, given the
// fetched share rows; n reports the reconstructions performed. The
// whole check runs on pooled buffers: each blob decodes into a scratch
// polynomial that is reconstructed in place, the child product
// ping-pongs between two pooled accumulators, and everything returns to
// the pool on exit — an equality test performs no polynomial
// allocations.
func (c *Client) equalsFromBundle(pre int64, val gf.Elem, b NodePolys) (ok bool, n int64, err error) {
	r := c.r
	full := r.GetPoly()
	defer r.PutPoly(full)
	if err := c.reconstructInto(full, pre, b.Node.Poly); err != nil {
		return false, 0, err
	}
	n = 1
	prod, tmp, child := r.GetPoly(), r.GetPoly(), r.GetPoly()
	defer r.PutPoly(prod)
	defer r.PutPoly(tmp)
	defer r.PutPoly(child)
	prod[0] = 1 // the constant polynomial 1
	for _, ch := range b.Children {
		if err := c.reconstructInto(child, ch.Pre, ch.Poly); err != nil {
			return false, n, err
		}
		n++
		prod, tmp = r.MulInto(tmp, prod, child), prod
	}
	return r.Equal(full, r.MulLinearInto(tmp, prod, val)), n, nil
}

// reconstructInto decodes the server share blob of the node at pre into
// dst and adds the regenerated client share in place.
func (c *Client) reconstructInto(dst ring.Poly, pre int64, blob []byte) error {
	if err := c.r.DecodeInto(dst, blob); err != nil {
		return decodeErr(pre, err)
	}
	c.Counters.Decodes.Add(1)
	c.scheme.ReconstructInto(dst, dst, uint64(pre))
	return nil
}

// NodePoly is one reconstructed node polynomial.
type NodePoly struct {
	Pre  int64
	Poly ring.Poly
}

// Family is a NodePolys bundle reconstructed client-side: the node's
// polynomial and its children's, in child order.
type Family struct {
	Node     NodePoly
	Children []NodePoly
}

// Families fetches the bundle of every listed node in one exchange and
// reconstructs every polynomial in it. A node's own share is bound to
// the pre asked for, never to the one the server echoes.
func (c *Client) Families(pres []int64) ([]Family, error) {
	bundles, err := batchChunks(pres, polyChunkSize, c.api.NodePolysBatch)
	if err != nil {
		return nil, err
	}
	out := make([]Family, len(bundles))
	for i, b := range bundles {
		if b.Err != "" {
			return nil, errors.New(b.Err)
		}
		rows := append([]PolyRow{{Pre: pres[i], Poly: b.Node.Poly}}, b.Children...)
		polys := make([]NodePoly, len(rows))
		for j, row := range rows {
			polys[j] = NodePoly{Pre: row.Pre, Poly: c.r.NewPoly()}
			if err := c.reconstructInto(polys[j].Poly, row.Pre, row.Poly); err != nil {
				return nil, err
			}
		}
		c.Counters.Reconstructions.Add(int64(len(rows)))
		out[i] = Family{Node: polys[0], Children: polys[1:]}
	}
	return out, nil
}

// NodeBatch fetches the metadata of every listed node in one exchange.
func (c *Client) NodeBatch(pres []int64) ([]NodeMeta, error) {
	if len(pres) == 0 {
		return nil, nil
	}
	out, err := batchChunks(pres, metaChunkSize, c.api.NodeBatch)
	if err != nil {
		return nil, err
	}
	c.Counters.NodesFetched.Add(int64(len(out)))
	return out, nil
}

// ChildrenBatch fetches the children of every listed node in one
// exchange.
func (c *Client) ChildrenBatch(pres []int64) ([][]NodeMeta, error) {
	if len(pres) == 0 {
		return nil, nil
	}
	out, err := batchChunks(pres, childrenChunkSize, c.api.ChildrenBatch)
	if err != nil {
		return nil, err
	}
	var total int64
	for _, ms := range out {
		total += int64(len(ms))
	}
	c.Counters.NodesFetched.Add(total)
	return out, nil
}

// DescendantsBatch fetches the proper descendants of every span in one
// exchange.
func (c *Client) DescendantsBatch(spans []Span) ([][]NodeMeta, error) {
	if len(spans) == 0 {
		return nil, nil
	}
	out, err := batchChunks(spans, descChunkSize, c.api.DescendantsBatch)
	if err != nil {
		return nil, err
	}
	var total int64
	for _, ms := range out {
		total += int64(len(ms))
	}
	c.Counters.NodesFetched.Add(total)
	return out, nil
}

func decodeErr(pre int64, err error) error {
	return fmt.Errorf("filter: decoding poly of %d: %w", pre, err)
}
