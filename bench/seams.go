package main

import (
	"errors"
	"sync"
	"sync/atomic"

	"encshare/internal/filter"
	"encshare/internal/gf"
)

// seamAPI is what all three filter backends a seam wraps (filter.Remote,
// cluster.Filter, filter.Mutable) provide; the other optional interfaces
// are forwarded when the backend has them.
type seamAPI interface {
	filter.ServerAPI
	filter.BatchAPI
	filter.StatsAPI
	filter.AggregateAPI
}

// seam decorates one filter backend on one side of the wire and records a
// span around every call: client-side a span is one exchange (or, around
// a cluster.Filter, one scatter/gather), server-side it is one handler.
// It has the methods of every optional filter interface, so a type
// assertion on a seam always succeeds; one whose backend lacks the method
// answers with an error. That leaves feature detection as it is without
// the seam because of where the stack asserts: RegisterServer on the
// handler seam (around a Mutable) and cluster on a shard connection
// (around a Remote) find backends that have all of them, and filter.Client
// asks its api, which here may be a cluster.Filter, only for BatchAPI,
// StatsAPI and AggregateAPI, which seamAPI requires of every backend.
type seam struct {
	inner seamAPI
	rec   *recorder
	level int
	shard int

	// While retain is set the seam keeps each call's arguments (and,
	// client-side, the share rows it returned) for the replay probes.
	retain atomic.Bool
	mu     sync.Mutex
	calls  []seamCall
}

// seamCall is one retained call. Only the fields of its method are set.
type seamCall struct {
	method  string
	evals   []filter.EvalRequest
	pres    []int64
	spans   []filter.Span
	agg     filter.AggregateRequest
	aggSum  bool               // the aggregate folded share blobs (SUM/AVG), not a bare count
	bundles []filter.NodePolys // client side: what NodePolysBatch returned
	rows    []filter.PolyRow   // client side: what Poly or ChildrenPolys returned
	misses  int64              // server side: poly-cache misses during the call
}

var (
	_ filter.ServerAPI    = (*seam)(nil)
	_ filter.BatchAPI     = (*seam)(nil)
	_ filter.PartialAPI   = (*seam)(nil)
	_ filter.RangeAPI     = (*seam)(nil)
	_ filter.StatsAPI     = (*seam)(nil)
	_ filter.AggregateAPI = (*seam)(nil)
	_ filter.MutableAPI   = (*seam)(nil)
)

var errSeamUnsupported = errors.New("bench: wrapped backend does not implement this method")

// call runs fn inside a span. keep, when the seam is retaining, receives
// the call record to fill in after fn returned.
func call[T any](s *seam, method string, keep func(*seamCall, T), fn func() (T, error)) (T, error) {
	retaining := s.retain.Load()
	var missesBefore int64
	if retaining && s.level == lvHandler {
		missesBefore = s.cacheMisses()
	}
	start := s.rec.now()
	out, err := fn()
	s.rec.add(s.level, method, 0, s.shard, start, s.rec.now())
	if retaining && keep != nil && err == nil {
		c := seamCall{method: method}
		if s.level == lvHandler {
			c.misses = s.cacheMisses() - missesBefore
		}
		keep(&c, out)
		s.mu.Lock()
		s.calls = append(s.calls, c)
		s.mu.Unlock()
	}
	return out, err
}

func (s *seam) cacheMisses() int64 {
	st, _ := s.inner.ServerStats() // a handler seam's backend is in-process and cannot fail
	return st.CacheMisses
}

func (s *seam) Root() (filter.NodeMeta, error) {
	return call(s, "Root", nil, s.inner.Root)
}

func (s *seam) Node(pre int64) (filter.NodeMeta, error) {
	return call(s, "Node", func(c *seamCall, _ filter.NodeMeta) { c.method, c.pres = "NodeBatch", []int64{pre} },
		func() (filter.NodeMeta, error) { return s.inner.Node(pre) })
}

func (s *seam) Children(pre int64) ([]filter.NodeMeta, error) {
	return call(s, "Children", func(c *seamCall, _ []filter.NodeMeta) { c.method, c.pres = "ChildrenBatch", []int64{pre} },
		func() ([]filter.NodeMeta, error) { return s.inner.Children(pre) })
}

func (s *seam) Descendants(pre, post int64) ([]filter.NodeMeta, error) {
	return call(s, "Descendants", func(c *seamCall, _ []filter.NodeMeta) {
		c.method, c.spans = "DescendantsBatch", []filter.Span{{Pre: pre, Post: post}}
	}, func() ([]filter.NodeMeta, error) { return s.inner.Descendants(pre, post) })
}

func (s *seam) EvalAt(pre int64, point gf.Elem) (gf.Elem, error) {
	return call(s, "EvalAt", func(c *seamCall, _ gf.Elem) {
		c.method, c.evals = "EvalBatch", []filter.EvalRequest{{Pre: pre, Point: point}}
	}, func() (gf.Elem, error) { return s.inner.EvalAt(pre, point) })
}

func (s *seam) Poly(pre int64) (filter.PolyRow, error) {
	return call(s, "Poly", func(c *seamCall, out filter.PolyRow) {
		c.pres = []int64{pre}
		if s.level != lvHandler {
			c.rows = []filter.PolyRow{out}
		}
	}, func() (filter.PolyRow, error) { return s.inner.Poly(pre) })
}

func (s *seam) ChildrenPolys(pre int64) ([]filter.PolyRow, error) {
	return call(s, "ChildrenPolys", func(c *seamCall, out []filter.PolyRow) {
		c.pres = []int64{pre}
		if s.level != lvHandler {
			c.rows = out
		}
	}, func() ([]filter.PolyRow, error) { return s.inner.ChildrenPolys(pre) })
}

func (s *seam) Count() (int64, error) {
	return call(s, "Count", nil, s.inner.Count)
}

func (s *seam) EvalBatch(reqs []filter.EvalRequest) ([]filter.EvalResult, error) {
	return call(s, "EvalBatch", func(c *seamCall, _ []filter.EvalResult) { c.evals = reqs },
		func() ([]filter.EvalResult, error) { return s.inner.EvalBatch(reqs) })
}

func (s *seam) NodeBatch(pres []int64) ([]filter.NodeMeta, error) {
	return call(s, "NodeBatch", func(c *seamCall, _ []filter.NodeMeta) { c.pres = pres },
		func() ([]filter.NodeMeta, error) { return s.inner.NodeBatch(pres) })
}

func (s *seam) ChildrenBatch(pres []int64) ([][]filter.NodeMeta, error) {
	return call(s, "ChildrenBatch", func(c *seamCall, _ [][]filter.NodeMeta) { c.pres = pres },
		func() ([][]filter.NodeMeta, error) { return s.inner.ChildrenBatch(pres) })
}

func (s *seam) DescendantsBatch(spans []filter.Span) ([][]filter.NodeMeta, error) {
	return call(s, "DescendantsBatch", func(c *seamCall, _ [][]filter.NodeMeta) { c.spans = spans },
		func() ([][]filter.NodeMeta, error) { return s.inner.DescendantsBatch(spans) })
}

func (s *seam) NodePolysBatch(pres []int64) ([]filter.NodePolys, error) {
	return call(s, "NodePolysBatch", func(c *seamCall, out []filter.NodePolys) {
		c.pres = pres
		if s.level != lvHandler {
			c.bundles = out
		}
	}, func() ([]filter.NodePolys, error) { return s.inner.NodePolysBatch(pres) })
}

func (s *seam) NodePolysPartial(pres []int64) ([]filter.PartialNodePolys, error) {
	p, ok := s.inner.(filter.PartialAPI)
	if !ok {
		return nil, errSeamUnsupported
	}
	return call(s, "NodePolysPartial", func(c *seamCall, _ []filter.PartialNodePolys) { c.pres = pres },
		func() ([]filter.PartialNodePolys, error) { return p.NodePolysPartial(pres) })
}

func (s *seam) PreRange() (filter.PreRange, error) {
	p, ok := s.inner.(filter.RangeAPI)
	if !ok {
		return filter.PreRange{}, errSeamUnsupported
	}
	return call(s, "PreRange", nil, p.PreRange)
}

// ServerStats is forwarded without a span: the harness itself calls it to
// bracket the window, and those calls are not the workload's.
func (s *seam) ServerStats() (filter.ServerStats, error) { return s.inner.ServerStats() }

func (s *seam) AggregateBatch(req filter.AggregateRequest) (filter.AggregateReply, error) {
	return call(s, "AggregateBatch", func(c *seamCall, out filter.AggregateReply) {
		c.agg = req
		c.aggSum = len(out.Chunks) > 0 && len(out.Chunks[0].Sum) > 0
	},
		func() (filter.AggregateReply, error) { return s.inner.AggregateBatch(req) })
}

func (s *seam) Mutate(b filter.MutationBatch) (filter.MutateReply, error) {
	p, ok := s.inner.(filter.MutableAPI)
	if !ok {
		return filter.MutateReply{}, filter.ErrMutationUnsupported
	}
	return call(s, "Mutate", nil, func() (filter.MutateReply, error) { return p.Mutate(b) })
}

func (s *seam) Epoch() (filter.EpochInfo, error) {
	p, ok := s.inner.(filter.MutableAPI)
	if !ok {
		return filter.EpochInfo{}, filter.ErrMutationUnsupported
	}
	return call(s, "Epoch", nil, p.Epoch)
}

// SetEpoch forwards the epoch pin a cluster.Filter pushes to its shard
// connections.
func (s *seam) SetEpoch(epoch uint64) {
	if p, ok := s.inner.(interface{ SetEpoch(uint64) }); ok {
		p.SetEpoch(epoch)
	}
}

// takeCalls hands the retained calls over.
func (s *seam) takeCalls() []seamCall {
	s.mu.Lock()
	defer s.mu.Unlock()
	calls := s.calls
	s.calls = nil
	return calls
}
