// Package filter implements the paper's distributed filter architecture
// (§5.2): a ServerFilter that operates on the stored server shares, a
// ClientFilter that regenerates client shares from the seed and combines
// evaluations, and the two tests the query engines build on:
//
//   - the containment test ("does tag N occur anywhere in this node's
//     subtree?"): one server evaluation + one client evaluation, sum == 0;
//   - the equality test ("is this node itself tag N?"): reconstruct the
//     node polynomial and all children polynomials and check the first
//     factor f(node) == (x − t)·Π f(child) — exact, but costs O(#children)
//     reconstructions. The batched test checks the same identity at the
//     tag map's free points instead, from evaluations (family.go).
//
// The ClientFilter works against any ServerAPI: the in-process
// ServerFilter or an rmi proxy, which is how the prototype splits work
// over the network. Every ServerAPI also speaks the batch protocol (see
// batch.go), which collapses a whole engine step's checks into one
// round-trip; the engines' PerCall mode keeps the original per-call
// protocol.
package filter

import (
	"sync/atomic"

	"encshare/internal/gf"
	"encshare/internal/obs"
	"encshare/internal/ring"
	"encshare/internal/secshare"
	"encshare/internal/store"
)

// NodeMeta is the structural information the client sees per node. The
// polynomial share stays on the server unless an equality test demands it.
type NodeMeta struct {
	Pre    int64
	Post   int64
	Parent int64
}

// PolyRow couples a node position with its server share blob (for
// equality-test reconstruction).
type PolyRow struct {
	Pre  int64
	Poly []byte
}

// ServerAPI is the operation set the server exposes — the paper's Filter
// interface as seen from the client, plus the batch, stats and aggregate
// methods every backend implements. PartialAPI, RangeAPI, MutableAPI and
// LeaseAPI stay separate: only some backends serve them.
type ServerAPI interface {
	BatchAPI
	StatsAPI
	AggregateAPI

	// Root returns the document root (parent = 0).
	Root() (NodeMeta, error)
	// Node returns the metadata of the node at pre (for parent steps).
	Node(pre int64) (NodeMeta, error)
	// Children returns the children of the node at pre, in document order.
	Children(pre int64) ([]NodeMeta, error)
	// Descendants returns all proper descendants of (pre, post).
	Descendants(pre, post int64) ([]NodeMeta, error)
	// EvalAt evaluates the *server share* of the node at pre at the point,
	// returning a field element.
	EvalAt(pre int64, point gf.Elem) (gf.Elem, error)
	// Poly returns the server share blob of the node at pre.
	Poly(pre int64) (PolyRow, error)
	// ChildrenPolys returns the share blobs of all children of pre.
	ChildrenPolys(pre int64) ([]PolyRow, error)
	// Count returns the number of stored nodes.
	Count() (int64, error)
}

// ServerFilter implements ServerAPI directly against a store. It holds a
// bounded cache of decoded polynomials (decoding a radix-q blob costs more
// than an evaluation); the cache is segment-locked with CLOCK eviction
// (see cache.go).
type ServerFilter struct {
	st      *store.Store
	r       *ring.Ring
	evals   atomic.Int64
	decodes atomic.Int64

	// aggregates counts aggregate frames served (AggregateBatch calls),
	// per filter, so multi-tenant stats stay disjoint like the cache
	// counters below.
	aggregates atomic.Int64

	cache *polyCache
	// Per-filter cache traffic. The cache's own counters aggregate
	// every filter using it; these stay filter-local, so ServerStats
	// counts only this filter's lookups.
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
}

// ServerOptions injects a decoded-polynomial cache the caller owns.
// The zero value matches NewServerFilter(st, r, 0).
type ServerOptions struct {
	// Cache is the decoded-polynomial cache to use. Nil disables
	// caching.
	Cache *PolyCache
}

// NewServerFilter creates a server filter over st, with polynomials
// decoded in ring r. cacheSize bounds the decoded-polynomial cache
// (0 disables caching).
func NewServerFilter(st *store.Store, r *ring.Ring, cacheSize int) *ServerFilter {
	return &ServerFilter{st: st, r: r, cache: newPolyCache(cacheSize)}
}

// NewServerFilterWith is NewServerFilter around a cache the caller
// owns, which several filters may share.
func NewServerFilterWith(st *store.Store, r *ring.Ring, opts ServerOptions) *ServerFilter {
	if opts.Cache == nil {
		return NewServerFilter(st, r, 0)
	}
	return &ServerFilter{st: st, r: r, cache: opts.Cache.c}
}

// Evals returns the number of polynomial evaluations performed server-side.
func (s *ServerFilter) Evals() int64 { return s.evals.Load() }

// ServerStats aggregates the server-side work counters: share
// evaluations, decoded-polynomial cache traffic, and blob decodes. A
// decode only happens on a cache miss (or with the cache disabled), so
// Decodes vs CacheHits is the direct measure of what the cache saves.
type ServerStats struct {
	Evals       int64
	CacheHits   int64
	CacheMisses int64
	Decodes     int64
	// Aggregates counts aggregate fold frames served (AggregateBatch
	// calls).
	Aggregates int64
}

// Add returns the member-wise sum — how a cluster session aggregates
// per-shard stats.
func (s ServerStats) Add(o ServerStats) ServerStats {
	return ServerStats{
		Evals:       s.Evals + o.Evals,
		CacheHits:   s.CacheHits + o.CacheHits,
		CacheMisses: s.CacheMisses + o.CacheMisses,
		Decodes:     s.Decodes + o.Decodes,
		Aggregates:  s.Aggregates + o.Aggregates,
	}
}

// Sub returns s - o member-wise: the server work done between two
// snapshots, which is what a query trace attributes to its window.
func (s ServerStats) Sub(o ServerStats) ServerStats {
	return ServerStats{
		Evals:       s.Evals - o.Evals,
		CacheHits:   s.CacheHits - o.CacheHits,
		CacheMisses: s.CacheMisses - o.CacheMisses,
		Decodes:     s.Decodes - o.Decodes,
		Aggregates:  s.Aggregates - o.Aggregates,
	}
}

// StatsAPI is the introspection part of ServerAPI. The in-process
// ServerFilter implements it directly; Remote fetches the stats over the
// wire; a cluster filter sums its shards.
type StatsAPI interface {
	ServerStats() (ServerStats, error)
}

// ServerStats implements StatsAPI. The counters are per-filter: two
// tenants' filters sharing one cache still report disjoint traffic.
func (s *ServerFilter) ServerStats() (ServerStats, error) {
	return ServerStats{
		Evals:       s.evals.Load(),
		CacheHits:   s.cacheHits.Load(),
		CacheMisses: s.cacheMisses.Load(),
		Decodes:     s.decodes.Load(),
		Aggregates:  s.aggregates.Load(),
	}, nil
}

// descendantsMeta builds the reply frame for a subtree expansion through
// the store's streaming visitor: the numbering is appended straight into
// the []NodeMeta, skipping the intermediate []NodeRow the materializing
// path allocates per row.
func descendantsMeta(st *store.Store, pre, post int64) ([]NodeMeta, error) {
	var out []NodeMeta
	err := st.VisitDescendantsMeta(pre, post, func(pre, post, parent int64) {
		out = append(out, NodeMeta{Pre: pre, Post: post, Parent: parent})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Root implements ServerAPI.
func (s *ServerFilter) Root() (NodeMeta, error) {
	row, err := s.st.Root()
	if err != nil {
		return NodeMeta{}, err
	}
	return NodeMeta{Pre: row.Pre, Post: row.Post, Parent: row.Parent}, nil
}

// Node implements ServerAPI.
func (s *ServerFilter) Node(pre int64) (NodeMeta, error) {
	row, err := s.st.NodeMeta(pre)
	if err != nil {
		return NodeMeta{}, err
	}
	return NodeMeta{Pre: row.Pre, Post: row.Post, Parent: row.Parent}, nil
}

// Children implements ServerAPI.
func (s *ServerFilter) Children(pre int64) ([]NodeMeta, error) {
	var out []NodeMeta
	err := s.st.VisitChildrenMeta(pre, func(pre, post, parent int64) {
		out = append(out, NodeMeta{Pre: pre, Post: post, Parent: parent})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Descendants implements ServerAPI.
func (s *ServerFilter) Descendants(pre, post int64) ([]NodeMeta, error) {
	return descendantsMeta(s.st, pre, post)
}

// withPoly runs fn on the decoded server share of the node at pre. A
// cache hit runs fn on the cached polynomial under its segment lock, so
// fn must be short and must not keep p. A miss decodes the blob straight
// off its page into a pooled polynomial, runs fn on it and admits it to
// the cache; whatever the admission displaced goes back to the pool.
func (s *ServerFilter) withPoly(pre int64, fn func(p ring.Poly)) error {
	if s.cache.with(pre, fn) {
		s.cacheHits.Add(1)
		return nil
	}
	s.cacheMisses.Add(1)
	p := s.r.GetPoly()
	err := s.st.DecodePoly(pre, func(blob []byte) error {
		if err := s.r.DecodeInto(p, blob); err != nil {
			return decodeErr(pre, err)
		}
		return nil
	})
	if err != nil {
		s.r.PutPoly(p)
		return err
	}
	s.decodes.Add(1)
	fn(p)
	if old := s.cache.put(pre, p); old != nil {
		s.r.PutPoly(old)
	}
	return nil
}

// EvalAt implements ServerAPI.
func (s *ServerFilter) EvalAt(pre int64, point gf.Elem) (gf.Elem, error) {
	var v gf.Elem
	if err := s.withPoly(pre, func(p ring.Poly) { v = s.r.Eval(p, point) }); err != nil {
		return 0, err
	}
	s.evals.Add(1)
	return v, nil
}

// Poly implements ServerAPI.
func (s *ServerFilter) Poly(pre int64) (PolyRow, error) {
	row, err := s.st.Node(pre)
	if err != nil {
		return PolyRow{}, err
	}
	return PolyRow{Pre: row.Pre, Poly: row.Poly}, nil
}

// ChildrenPolys implements ServerAPI.
func (s *ServerFilter) ChildrenPolys(pre int64) ([]PolyRow, error) {
	rows, err := s.st.Children(pre)
	if err != nil {
		return nil, err
	}
	out := make([]PolyRow, len(rows))
	for i, r := range rows {
		out[i] = PolyRow{Pre: r.Pre, Poly: r.Poly}
	}
	return out, nil
}

// Count implements ServerAPI.
func (s *ServerFilter) Count() (int64, error) { return s.st.Count() }

// Counters aggregates the client-side work metrics the experiments plot.
type Counters struct {
	// Evaluations counts point-tests: each is one server-share
	// evaluation plus one client-share evaluation at one point (the
	// paper's "evaluations" in Fig. 5) — a containment check, or under
	// the batched strict test one family row at one free point.
	Evaluations atomic.Int64
	// Reconstructions counts full polynomial reconstructions (client share
	// + server share), the cost unit of the equality test.
	Reconstructions atomic.Int64
	// NodesFetched counts node metadata records retrieved from the server.
	NodesFetched atomic.Int64
	// Decodes counts client-side share-blob decodes (equality tests
	// decode the node and child rows the server ships).
	Decodes atomic.Int64
	// Folds counts client shares folded into an aggregate accumulator
	// (the per-row cost of the aggregation phase: one PRG pass per row,
	// whether the server folded or the client reconstructed).
	Folds atomic.Int64
}

// Snapshot is a point-in-time copy of the counters.
type Snapshot struct {
	Evaluations     int64
	Reconstructions int64
	NodesFetched    int64
	Decodes         int64
	Folds           int64
}

// Snapshot returns the current counter values.
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		Evaluations:     c.Evaluations.Load(),
		Reconstructions: c.Reconstructions.Load(),
		NodesFetched:    c.NodesFetched.Load(),
		Decodes:         c.Decodes.Load(),
		Folds:           c.Folds.Load(),
	}
}

// Sub returns s - o, the work done between two snapshots.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return Snapshot{
		Evaluations:     s.Evaluations - o.Evaluations,
		Reconstructions: s.Reconstructions - o.Reconstructions,
		NodesFetched:    s.NodesFetched - o.NodesFetched,
		Decodes:         s.Decodes - o.Decodes,
		Folds:           s.Folds - o.Folds,
	}
}

// Client is the paper's ClientFilter: it holds the secret (seed-derived
// scheme plus tag map values) and drives a ServerAPI.
type Client struct {
	api    ServerAPI
	fam    FamilyEvalAPI // api's, when it has one
	scheme *secshare.Scheme
	r      *ring.Ring

	// tracer is the session's query tracer, if one was attached; the
	// engines read it to mark step boundaries.
	tracer atomic.Pointer[obs.Tracer]

	Counters Counters
}

// SetTracer attaches (nil detaches) the session's query tracer. The
// engines mark step boundaries on it; the transport proxies record the
// frames (see Remote.SetTracer — wiring both is the session's job).
func (c *Client) SetTracer(tr *obs.Tracer) {
	if tr == nil {
		c.tracer.Store(nil)
		return
	}
	c.tracer.Store(tr)
}

// Tracer returns the attached tracer, or nil.
func (c *Client) Tracer() *obs.Tracer { return c.tracer.Load() }

// NewClient builds a client filter over any ServerAPI.
func NewClient(api ServerAPI, scheme *secshare.Scheme) *Client {
	fam, _ := api.(FamilyEvalAPI)
	return &Client{api: api, fam: fam, scheme: scheme, r: scheme.Ring()}
}

// Ring exposes the polynomial ring (for engines needing dimensions).
func (c *Client) Ring() *ring.Ring { return c.r }

// Root fetches the root node.
func (c *Client) Root() (NodeMeta, error) {
	m, err := c.api.Root()
	if err == nil {
		c.Counters.NodesFetched.Add(1)
	}
	return m, err
}

// Node fetches metadata of a single node by pre.
func (c *Client) Node(pre int64) (NodeMeta, error) {
	m, err := c.api.Node(pre)
	if err == nil {
		c.Counters.NodesFetched.Add(1)
	}
	return m, err
}

// Children fetches child metadata.
func (c *Client) Children(pre int64) ([]NodeMeta, error) {
	ms, err := c.api.Children(pre)
	c.Counters.NodesFetched.Add(int64(len(ms)))
	return ms, err
}

// Descendants fetches descendant metadata.
func (c *Client) Descendants(pre, post int64) ([]NodeMeta, error) {
	ms, err := c.api.Descendants(pre, post)
	c.Counters.NodesFetched.Add(int64(len(ms)))
	return ms, err
}

// Count returns the number of stored nodes.
func (c *Client) Count() (int64, error) { return c.api.Count() }

// Contains runs the containment test: true iff the subtree of the node at
// pre contains a node mapped to val. Exactly one evaluation pair.
func (c *Client) Contains(pre int64, val gf.Elem) (bool, error) {
	sv, err := c.api.EvalAt(pre, val)
	if err != nil {
		return false, err
	}
	cv := c.scheme.EvalClientAt(uint64(pre), val)
	c.Counters.Evaluations.Add(1)
	return c.r.Field().Add(sv, cv) == 0, nil
}

// ServerStats fetches the server-side work counters. For remote backends
// this is one exchange; for clusters it aggregates the shards.
func (c *Client) ServerStats() (ServerStats, error) { return c.api.ServerStats() }

// Reconstruct fetches the server share of pre and adds the regenerated
// client share, yielding the true node polynomial. The share decodes
// straight into the returned polynomial and the client share streams
// into it in place, so that polynomial is the only allocation.
func (c *Client) Reconstruct(pre int64) (ring.Poly, error) {
	row, err := c.api.Poly(pre)
	if err != nil {
		return nil, err
	}
	full := c.r.NewPoly()
	if err := c.reconstructInto(full, pre, row.Poly); err != nil {
		return nil, err
	}
	c.Counters.Reconstructions.Add(1)
	return full, nil
}

// Equals runs the strict equality test: true iff the node at pre is
// itself mapped to val. Cost: 1 + #children reconstructions (paper §5.2:
// "all the child nodes should be retrieved from the server and added to
// the pseudorandomly generated client polynomials").
func (c *Client) Equals(pre int64, val gf.Elem) (bool, error) {
	row, err := c.api.Poly(pre)
	if err != nil {
		return false, err
	}
	children, err := c.api.ChildrenPolys(pre)
	if err != nil {
		return false, err
	}
	ok, n, err := c.equalsFromBundle(pre, val, NodePolys{Node: row, Children: children})
	c.Counters.Reconstructions.Add(n)
	return ok, err
}
