package filter

import (
	"sync"
	"sync/atomic"
	"time"

	"encshare/internal/gf"
	"encshare/internal/obs"
	"encshare/internal/rmi"
)

// RMI method names of the filter service. Client proxy and server binding
// must agree; they are part of the wire protocol. The *Batch methods are
// the v2 additions: each call carries a whole engine step's work in one
// length-prefixed frame. The per-call methods remain registered so old
// clients keep working against new servers, and new clients fall back
// when a server predates the batch protocol.
const (
	methodRoot          = "filter.Root"
	methodNode          = "filter.Node"
	methodChildren      = "filter.Children"
	methodDescendants   = "filter.Descendants"
	methodEvalAt        = "filter.EvalAt"
	methodPoly          = "filter.Poly"
	methodChildrenPolys = "filter.ChildrenPolys"
	methodCount         = "filter.Count"

	methodEvalBatch        = "filter.EvalBatch"
	methodNodeBatch        = "filter.NodeBatch"
	methodChildrenBatch    = "filter.ChildrenBatch"
	methodDescendantsBatch = "filter.DescendantsBatch"
	methodNodePolysBatch   = "filter.NodePolysBatch"

	// v3 additions: byte-aware paged replies (see paged.go) and the
	// cluster seams (see shard.go).
	methodDescendantsPage      = "filter.DescendantsBatchPage"
	methodNodePolysPage        = "filter.NodePolysBatchPage"
	methodNodePolysPartialPage = "filter.NodePolysPartialPage"
	methodPreRange             = "filter.PreRange"

	// v4 addition: server-side work counters (cache hits/misses, blob
	// decodes, evaluations), read by Session.ServerStats and tracing.
	methodServerStats = "filter.ServerStats"

	// v5 addition: server-side aggregate folds (see aggregate.go). The
	// frame itself is versioned (AggregateRequest.Ver) on top of the
	// method-level feature detection.
	methodAggregateBatch = "filter.AggregateBatch"

	// v6 additions: the mutation pipeline (see mutate.go). The batch
	// frame is versioned (MutationBatch.Ver) on top of method-level
	// feature detection; Epoch is the read side of the fence.
	methodMutate = "filter.Mutate"
	methodEpoch  = "filter.Epoch"

	// v7 additions: server-sequenced writer leases (see lease.go).
	methodAcquireLease = "filter.AcquireLease"
	methodReleaseLease = "filter.ReleaseLease"
	methodMutateLeased = "filter.MutateLeased"
)

type descArgs struct{ Pre, Post int64 }

type evalArgs struct {
	Pre   int64
	Point gf.Elem
}

// RegisterServer exposes a ServerAPI (normally a *ServerFilter) on an rmi
// server — the paper's server-side RMI endpoint. When the API also
// implements BatchAPI, the batch methods are registered as well. The
// methods land in the global handler set, which is the single-tenant
// layout; multi-tenant runtimes use RegisterServerAt per tenant.
func RegisterServer(srv *rmi.Server, api ServerAPI) {
	RegisterServerAt(srv, "", api)
}

// RegisterServerAt is RegisterServer into the named tenant's handler
// set: calls carrying that tenant in their frame header dispatch to
// this api, so one rmi server hosts many independent filter backends.
func RegisterServerAt(srv *rmi.Server, tenant string, api ServerAPI) {
	rmi.HandleFuncAt(srv, tenant, methodRoot, func(empty) (NodeMeta, error) {
		return api.Root()
	})
	rmi.HandleFuncAt(srv, tenant, methodNode, func(pre varint64) (NodeMeta, error) {
		return api.Node(int64(pre))
	})
	rmi.HandleFuncAt(srv, tenant, methodChildren, func(pre varint64) (metaList, error) {
		return api.Children(int64(pre))
	})
	rmi.HandleFuncAt(srv, tenant, methodDescendants, func(a descArgs) (metaList, error) {
		return api.Descendants(a.Pre, a.Post)
	})
	rmi.HandleFuncAt(srv, tenant, methodEvalAt, func(a evalArgs) (fieldElem, error) {
		v, err := api.EvalAt(a.Pre, a.Point)
		return fieldElem(v), err
	})
	rmi.HandleFuncAt(srv, tenant, methodPoly, func(pre varint64) (PolyRow, error) {
		return api.Poly(int64(pre))
	})
	rmi.HandleFuncAt(srv, tenant, methodChildrenPolys, func(pre varint64) (polyRowList, error) {
		return api.ChildrenPolys(int64(pre))
	})
	rmi.HandleFuncAt(srv, tenant, methodCount, func(empty) (varint64, error) {
		n, err := api.Count()
		return varint64(n), err
	})
	if b, ok := api.(BatchAPI); ok {
		rmi.HandleFuncAt(srv, tenant, methodEvalBatch, func(reqs evalRequestList) (evalResultList, error) {
			return b.EvalBatch(reqs)
		})
		rmi.HandleFuncAt(srv, tenant, methodNodeBatch, func(pres presList) (metaList, error) {
			return b.NodeBatch(pres)
		})
		rmi.HandleFuncAt(srv, tenant, methodChildrenBatch, func(pres presList) (metaLists, error) {
			return b.ChildrenBatch(pres)
		})
		rmi.HandleFuncAt(srv, tenant, methodDescendantsBatch, func(spans spanList) (metaLists, error) {
			return b.DescendantsBatch(spans)
		})
		rmi.HandleFuncAt(srv, tenant, methodNodePolysBatch, func(pres presList) (nodePolysList, error) {
			return b.NodePolysBatch(pres)
		})
		rmi.HandleFuncAt(srv, tenant, methodDescendantsPage, func(a descPageArgs) (descPageReply, error) {
			return pageDescendants(b, a)
		})
		rmi.HandleFuncAt(srv, tenant, methodNodePolysPage, func(a bundlePageArgs) (bundlePage[NodePolys], error) {
			return pageBundles(a, b.NodePolysBatch, nodePolysWire)
		})
	}
	if p, ok := api.(PartialAPI); ok {
		rmi.HandleFuncAt(srv, tenant, methodNodePolysPartialPage, func(a bundlePageArgs) (bundlePage[PartialNodePolys], error) {
			return pageBundles(a, p.NodePolysPartial, partialNodePolysWire)
		})
	}
	if ra, ok := api.(RangeAPI); ok {
		rmi.HandleFuncAt(srv, tenant, methodPreRange, func(empty) (PreRange, error) {
			return ra.PreRange()
		})
	}
	if sa, ok := api.(StatsAPI); ok {
		rmi.HandleFuncAt(srv, tenant, methodServerStats, func(empty) (ServerStats, error) {
			return sa.ServerStats()
		})
	}
	if aa, ok := api.(AggregateAPI); ok {
		rmi.HandleFuncAt(srv, tenant, methodAggregateBatch, func(req AggregateRequest) (AggregateReply, error) {
			return aa.AggregateBatch(req)
		})
	}
	if ma, ok := api.(MutableAPI); ok {
		rmi.HandleFuncAt(srv, tenant, methodMutate, func(b MutationBatch) (MutateReply, error) {
			return ma.Mutate(b)
		})
		rmi.HandleFuncAt(srv, tenant, methodEpoch, func(empty) (EpochInfo, error) {
			return ma.Epoch()
		})
	}
	if la, ok := api.(LeaseAPI); ok {
		rmi.HandleFuncAt(srv, tenant, methodAcquireLease, func(req LeaseRequest) (LeaseGrant, error) {
			return la.AcquireLease(req)
		})
		rmi.HandleFuncAt(srv, tenant, methodReleaseLease, func(id uvarint64) (empty, error) {
			return empty{}, la.ReleaseLease(uint64(id))
		})
		rmi.HandleFuncAt(srv, tenant, methodMutateLeased, func(lb LeasedBatch) (MutateReply, error) {
			return la.MutateLeased(lb)
		})
	}
}

// Remote is a ServerAPI + BatchAPI proxy over an rmi client connection.
// It counts its round-trips per method (see CallCounts), which is how the
// tests verify the one-round-trip-per-step property, and degrades to the
// per-call protocol against servers that do not expose the batch methods.
type Remote struct {
	c *rmi.Client

	mu     sync.Mutex
	counts map[string]int64

	flagMu      sync.Mutex
	noBatch     bool            // server answered "unknown method" to a batch call
	noStats     bool            // server predates the ServerStats method
	noAggregate bool            // server predates the aggregate fold frames
	noLease     bool            // server predates the writer-lease frames
	noPaged     map[string]bool // paged methods the server rejected, individually

	// trc is nil until SetTracer attaches one; untraced proxies pay one
	// pointer load per call.
	trc atomic.Pointer[remoteTracer]
}

// remoteTracer carries the tracer plus this proxy's identity in the
// span tree (which shard it serves, at which address).
type remoteTracer struct {
	tr    *obs.Tracer
	shard int
	addr  string
}

var (
	_ ServerAPI    = (*Remote)(nil)
	_ BatchAPI     = (*Remote)(nil)
	_ PartialAPI   = (*Remote)(nil)
	_ RangeAPI     = (*Remote)(nil)
	_ StatsAPI     = (*Remote)(nil)
	_ AggregateAPI = (*Remote)(nil)
	_ MutableAPI   = (*Remote)(nil)
)

// NewRemote wraps an rmi client as a ServerAPI with batch support.
func NewRemote(c *rmi.Client) *Remote {
	return &Remote{c: c, counts: map[string]int64{}}
}

// SetTracer attaches (or, with nil, detaches) a query tracer. Every
// round-trip this proxy issues while the tracer has an open capture
// window is recorded as a frame span labeled with the shard index and
// address, and its trace context rides the rmi frame header.
func (r *Remote) SetTracer(tr *obs.Tracer, shard int, addr string) {
	if tr == nil {
		r.trc.Store(nil)
		return
	}
	r.trc.Store(&remoteTracer{tr: tr, shard: shard, addr: addr})
}

// call issues one RMI round-trip and counts it against the method.
func (r *Remote) call(method string, args, reply any) error {
	return r.callRows(method, args, reply, nil)
}

// callRows is call with a row-count closure for the frame span, read
// from the decoded reply only after a successful exchange.
func (r *Remote) callRows(method string, args, reply any, rows func() int64) error {
	r.mu.Lock()
	r.counts[method]++
	r.mu.Unlock()
	t := r.trc.Load()
	if t == nil || !t.tr.Active() {
		return r.c.Call(method, args, reply)
	}
	tc := rmi.TraceContext{Trace: t.tr.ID(), Span: t.tr.NextSpanID()}
	start := time.Now()
	fi, err := r.c.CallTraced(method, args, reply, tc)
	f := obs.Frame{
		Method: method, Shard: t.shard, Addr: t.addr,
		Start: start, Dur: time.Since(start),
		BytesOut: int64(fi.BytesOut), BytesIn: int64(fi.BytesIn),
	}
	if err != nil {
		f.Err = err.Error()
	} else if rows != nil {
		f.Rows = rows()
	}
	t.tr.AddFrame(f)
	return err
}

// CallCounts returns a snapshot of round-trips issued, keyed by RMI
// method name.
func (r *Remote) CallCounts() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counts))
	for k, v := range r.counts {
		out[k] = v
	}
	return out
}

// RoundTrips returns the total number of round-trips issued.
func (r *Remote) RoundTrips() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	for _, v := range r.counts {
		total += v
	}
	return total
}

// EvalRoundTrips returns the round-trips spent on filter evaluations
// (per-call EvalAt plus batched EvalBatch) — the quantity bounded by one
// per engine step in the batched pipeline.
func (r *Remote) EvalRoundTrips() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[methodEvalAt] + r.counts[methodEvalBatch]
}

// flagged reports a protocol-downgrade flag; noteUnknown records one
// from an "unknown method" reply.
func (r *Remote) flagged(flag *bool) bool {
	r.flagMu.Lock()
	defer r.flagMu.Unlock()
	return *flag
}

func (r *Remote) noteUnknown(err error, method string, flag *bool) bool {
	if !rmi.IsUnknownMethod(err, method) {
		return false
	}
	r.flagMu.Lock()
	*flag = true
	r.flagMu.Unlock()
	return true
}

// Paged methods downgrade individually: a server may register some of
// them (they hang off different optional interfaces), so rejecting one
// must not disable the others.
func (r *Remote) pagedOff(method string) bool {
	r.flagMu.Lock()
	defer r.flagMu.Unlock()
	return r.noPaged[method]
}

func (r *Remote) notePagedUnknown(err error, method string) bool {
	if !rmi.IsUnknownMethod(err, method) {
		return false
	}
	r.flagMu.Lock()
	if r.noPaged == nil {
		r.noPaged = map[string]bool{}
	}
	r.noPaged[method] = true
	r.flagMu.Unlock()
	return true
}

// Root implements ServerAPI.
func (r *Remote) Root() (NodeMeta, error) {
	var out NodeMeta
	err := r.call(methodRoot, empty{}, &out)
	return out, err
}

// Node implements ServerAPI.
func (r *Remote) Node(pre int64) (NodeMeta, error) {
	var out NodeMeta
	err := r.call(methodNode, varint64(pre), &out)
	return out, err
}

// Children implements ServerAPI.
func (r *Remote) Children(pre int64) ([]NodeMeta, error) {
	var out metaList
	err := r.call(methodChildren, varint64(pre), &out)
	return out, err
}

// Descendants implements ServerAPI.
func (r *Remote) Descendants(pre, post int64) ([]NodeMeta, error) {
	var out metaList
	err := r.call(methodDescendants, descArgs{pre, post}, &out)
	return out, err
}

// EvalAt implements ServerAPI.
func (r *Remote) EvalAt(pre int64, point gf.Elem) (gf.Elem, error) {
	var out fieldElem
	err := r.call(methodEvalAt, evalArgs{pre, point}, &out)
	return gf.Elem(out), err
}

// Poly implements ServerAPI.
func (r *Remote) Poly(pre int64) (PolyRow, error) {
	var out PolyRow
	err := r.call(methodPoly, varint64(pre), &out)
	return out, err
}

// ChildrenPolys implements ServerAPI.
func (r *Remote) ChildrenPolys(pre int64) ([]PolyRow, error) {
	var out polyRowList
	err := r.call(methodChildrenPolys, varint64(pre), &out)
	return out, err
}

// Count implements ServerAPI.
func (r *Remote) Count() (int64, error) {
	var out varint64
	err := r.call(methodCount, empty{}, &out)
	return int64(out), err
}

// batchCall issues one batch frame unless the server is known to
// predate the batch protocol; ok=false (an "unknown method" reply, now
// remembered) means the caller falls back to per-call exchanges.
func (r *Remote) batchCall(method string, args, reply any, rows func() int64) (ok bool, err error) {
	if r.flagged(&r.noBatch) {
		return false, nil
	}
	err = r.callRows(method, args, reply, rows)
	if err != nil && r.noteUnknown(err, method, &r.noBatch) {
		return false, nil
	}
	return true, err
}

// EvalBatch implements BatchAPI: one round-trip carrying every (node,
// point) pair. Against a pre-batch server it degrades to per-call EvalAt.
func (r *Remote) EvalBatch(reqs []EvalRequest) ([]EvalResult, error) {
	var out evalResultList
	if ok, err := r.batchCall(methodEvalBatch, evalRequestList(reqs), &out, func() int64 { return int64(len(out)) }); ok {
		return nilOnErr(out, err)
	}
	return perCallEvals(reqs, r.EvalAt)
}

// NodeBatch implements BatchAPI.
func (r *Remote) NodeBatch(pres []int64) ([]NodeMeta, error) {
	var out metaList
	if ok, err := r.batchCall(methodNodeBatch, presList(pres), &out, func() int64 { return int64(len(out)) }); ok {
		return nilOnErr(out, err)
	}
	return perCallEach(pres, r.Node)
}

// ChildrenBatch implements BatchAPI.
func (r *Remote) ChildrenBatch(pres []int64) ([][]NodeMeta, error) {
	var out metaLists
	if ok, err := r.batchCall(methodChildrenBatch, presList(pres), &out, func() int64 { return int64(len(out)) }); ok {
		return nilOnErr(out, err)
	}
	return perCallEach(pres, r.Children)
}

// nilOnErr returns the decoded reply, or nothing when the call failed.
func nilOnErr[T any](out []T, err error) ([]T, error) {
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DescendantsBatch implements BatchAPI. The paged protocol is preferred
// (byte-bounded reply frames, splitting inside wide subtrees); servers
// without it get the unpaged batch, then per-call exchanges.
func (r *Remote) DescendantsBatch(spans []Span) ([][]NodeMeta, error) {
	if out, handled, err := r.descendantsPaged(spans); handled {
		return out, err
	}
	var out metaLists
	if ok, err := r.batchCall(methodDescendantsBatch, spanList(spans), &out, func() int64 { return int64(len(out)) }); ok {
		return nilOnErr(out, err)
	}
	return perCallEach(spans, func(sp Span) ([]NodeMeta, error) {
		return r.Descendants(sp.Pre, sp.Post)
	})
}

// NodePolysBatch implements BatchAPI, preferring the paged protocol.
func (r *Remote) NodePolysBatch(pres []int64) ([]NodePolys, error) {
	if out, handled, err := remotePagedBundles[NodePolys](r, methodNodePolysPage, pres); handled {
		return out, err
	}
	var out nodePolysList
	if ok, err := r.batchCall(methodNodePolysBatch, presList(pres), &out, func() int64 { return int64(len(out)) }); ok {
		return nilOnErr(out, err)
	}
	return perCallNodePolys(pres, r.Poly, r.ChildrenPolys)
}

// NodePolysPartial implements PartialAPI: the cluster client's
// equality-bundle fragments, paged. Against a server that predates the
// paged protocol it degrades to per-call fetches, where a remote
// handler error on the node row means the row is not stored here.
func (r *Remote) NodePolysPartial(pres []int64) ([]PartialNodePolys, error) {
	if out, handled, err := remotePagedBundles[PartialNodePolys](r, methodNodePolysPartialPage, pres); handled {
		return out, err
	}
	out := make([]PartialNodePolys, len(pres))
	for i, pre := range pres {
		row, err := r.Poly(pre)
		if err == nil {
			out[i].Has, out[i].Node = true, row
		} else if _, terr := clientMemberErr(err); terr != nil {
			return nil, terr
		}
		kids, err := r.ChildrenPolys(pre)
		if err != nil {
			msg, terr := clientMemberErr(err)
			if terr != nil {
				return nil, terr
			}
			out[i].Err = msg
			continue
		}
		out[i].Children = kids
	}
	return out, nil
}

// ServerStats implements StatsAPI over the wire. A server that predates
// the method reports zeros (stats are diagnostics, not results, so the
// graceful degradation other optional methods get applies here too).
func (r *Remote) ServerStats() (ServerStats, error) {
	if r.flagged(&r.noStats) {
		return ServerStats{}, nil
	}
	var out ServerStats
	err := r.call(methodServerStats, empty{}, &out)
	if err != nil {
		if r.noteUnknown(err, methodServerStats, &r.noStats) {
			return ServerStats{}, nil
		}
		return ServerStats{}, err
	}
	return out, nil
}

// AggregateBatch implements AggregateAPI over the wire. Against a
// server that predates the aggregate frames it reports
// ErrAggregateUnsupported (remembered, so later folds skip the probe),
// and the client filter reconstructs the rows itself — the graceful
// downgrade path, visible to callers as O(rows) extra round-trips.
func (r *Remote) AggregateBatch(req AggregateRequest) (AggregateReply, error) {
	if r.flagged(&r.noAggregate) {
		return AggregateReply{}, ErrAggregateUnsupported
	}
	var out AggregateReply
	err := r.call(methodAggregateBatch, req, &out)
	if err != nil {
		if r.noteUnknown(err, methodAggregateBatch, &r.noAggregate) {
			return AggregateReply{}, ErrAggregateUnsupported
		}
		return AggregateReply{}, err
	}
	return out, nil
}

// PreRange implements RangeAPI over the wire (no fallback: a server too
// old to answer cannot join a cluster, and the error says so).
func (r *Remote) PreRange() (PreRange, error) {
	var out PreRange
	err := r.call(methodPreRange, empty{}, &out)
	return out, err
}

// Mutate implements MutableAPI over the wire. Writes cannot downgrade:
// a server that predates the mutation frames reports the typed
// ErrMutationUnsupported instead of pretending.
func (r *Remote) Mutate(b MutationBatch) (MutateReply, error) {
	var out MutateReply
	err := r.call(methodMutate, b, &out)
	if err != nil && rmi.IsUnknownMethod(err, methodMutate) {
		return MutateReply{}, ErrMutationUnsupported
	}
	return out, err
}

// Epoch implements MutableAPI over the wire.
func (r *Remote) Epoch() (EpochInfo, error) {
	var out EpochInfo
	err := r.call(methodEpoch, empty{}, &out)
	if err != nil && rmi.IsUnknownMethod(err, methodEpoch) {
		return EpochInfo{}, ErrMutationUnsupported
	}
	return out, err
}

// AcquireLease implements LeaseAPI over the wire. Against a server that
// predates the lease frames it reports ErrLeaseUnsupported (remembered)
// and the session falls back to optimistic client-side sequencing.
func (r *Remote) AcquireLease(req LeaseRequest) (LeaseGrant, error) {
	if r.flagged(&r.noLease) {
		return LeaseGrant{}, ErrLeaseUnsupported
	}
	var out LeaseGrant
	err := r.call(methodAcquireLease, req, &out)
	if err != nil {
		if r.noteUnknown(err, methodAcquireLease, &r.noLease) {
			return LeaseGrant{}, ErrLeaseUnsupported
		}
		return LeaseGrant{}, err
	}
	return out, nil
}

// ReleaseLease implements LeaseAPI over the wire. Releasing against a
// pre-lease server is a no-op: nothing was held.
func (r *Remote) ReleaseLease(id uint64) error {
	if r.flagged(&r.noLease) {
		return nil
	}
	err := r.call(methodReleaseLease, uvarint64(id), nil)
	if err != nil && r.noteUnknown(err, methodReleaseLease, &r.noLease) {
		return nil
	}
	return err
}

// MutateLeased implements LeaseAPI over the wire.
func (r *Remote) MutateLeased(lb LeasedBatch) (MutateReply, error) {
	if r.flagged(&r.noLease) {
		return MutateReply{}, ErrLeaseUnsupported
	}
	var out MutateReply
	err := r.call(methodMutateLeased, lb, &out)
	if err != nil && r.noteUnknown(err, methodMutateLeased, &r.noLease) {
		return MutateReply{}, ErrLeaseUnsupported
	}
	return out, err
}

var _ LeaseAPI = (*Remote)(nil)

// SetEpoch pins (or with 0 unpins) the epoch stamped on every
// subsequent frame of this proxy's connection.
func (r *Remote) SetEpoch(epoch uint64) { r.c.SetEpoch(epoch) }
