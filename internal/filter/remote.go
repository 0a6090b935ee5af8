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
// must agree; they are part of the wire protocol, and both ship from this
// module. The rmi frame version is the only compatibility check: a change
// to a method's wire meaning bumps it, and a server answers a method it
// does not register with an ordinary "unknown method" error. The per-call
// methods are the paper's protocol; each *Batch and *Page method carries a
// whole engine step's work in one length-prefixed frame.
const (
	methodRoot          = "filter.Root"
	methodNode          = "filter.Node"
	methodChildren      = "filter.Children"
	methodDescendants   = "filter.Descendants"
	methodEvalAt        = "filter.EvalAt"
	methodPoly          = "filter.Poly"
	methodChildrenPolys = "filter.ChildrenPolys"
	methodCount         = "filter.Count"

	methodEvalBatch     = "filter.EvalBatch"
	methodNodeBatch     = "filter.NodeBatch"
	methodChildrenBatch = "filter.ChildrenBatch"

	// Byte-aware paged replies (see paged.go) and the cluster seams (see
	// shard.go).
	methodDescendantsPage      = "filter.DescendantsBatchPage"
	methodNodePolysPage        = "filter.NodePolysBatchPage"
	methodNodePolysPartialPage = "filter.NodePolysPartialPage"
	methodFamilyEvalsPage      = "filter.FamilyEvalsPage"
	methodPreRange             = "filter.PreRange"

	// Server-side work counters (cache hits/misses, blob decodes,
	// evaluations), read by Session.ServerStats and tracing.
	methodServerStats = "filter.ServerStats"

	// Server-side aggregate folds (see aggregate.go).
	methodAggregateBatch = "filter.AggregateBatch"

	// The mutation pipeline (see mutate.go); Epoch is the read side of
	// the fence.
	methodMutate = "filter.Mutate"
	methodEpoch  = "filter.Epoch"

	// Server-sequenced writer leases (see lease.go).
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
// server — the paper's server-side RMI endpoint. The methods land in the
// global handler set, which is the single-tenant layout; multi-tenant
// runtimes use RegisterServerAt per tenant.
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
	rmi.HandleFuncAt(srv, tenant, methodEvalBatch, func(reqs evalRequestList) (evalResultList, error) {
		return api.EvalBatch(reqs)
	})
	rmi.HandleFuncAt(srv, tenant, methodNodeBatch, func(pres presList) (metaList, error) {
		return api.NodeBatch(pres)
	})
	rmi.HandleFuncAt(srv, tenant, methodChildrenBatch, func(pres presList) (metaLists, error) {
		return api.ChildrenBatch(pres)
	})
	rmi.HandleFuncAt(srv, tenant, methodDescendantsPage, func(a descPageArgs) (descPageReply, error) {
		return pageDescendants(api, a)
	})
	rmi.HandleFuncAt(srv, tenant, methodNodePolysPage, func(a bundlePageArgs) (bundlePage[NodePolys], error) {
		return pageBundles(a, api.NodePolysBatch, nodePolysWire)
	})
	rmi.HandleFuncAt(srv, tenant, methodServerStats, func(empty) (ServerStats, error) {
		return api.ServerStats()
	})
	rmi.HandleFuncAt(srv, tenant, methodAggregateBatch, func(req AggregateRequest) (AggregateReply, error) {
		return api.AggregateBatch(req)
	})
	if p, ok := api.(PartialAPI); ok {
		rmi.HandleFuncAt(srv, tenant, methodNodePolysPartialPage, func(a bundlePageArgs) (bundlePage[PartialNodePolys], error) {
			return pageBundles(a, p.NodePolysPartial, partialNodePolysWire)
		})
	}
	if fa, ok := api.(FamilyEvalAPI); ok {
		rmi.HandleFuncAt(srv, tenant, methodFamilyEvalsPage, func(a familyPageArgs) (familyPage, error) {
			p, err := pageBundles(a.bundlePageArgs, func(pres []int64) ([]FamilyEval, error) {
				return fa.FamilyEvals(pres, a.Points)
			}, familyEvalWire)
			return familyPage(p), err
		})
	}
	if ra, ok := api.(RangeAPI); ok {
		rmi.HandleFuncAt(srv, tenant, methodPreRange, func(empty) (PreRange, error) {
			return ra.PreRange()
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

// Remote is a ServerAPI proxy over an rmi client connection. It counts
// its round-trips per method (see CallCounts), which is how the tests
// verify the one-round-trip-per-step property. Every method is exactly
// one exchange (a paged method, one per page); an "unknown method" reply
// is an ordinary error.
type Remote struct {
	c *rmi.Client

	mu     sync.Mutex
	counts map[string]int64

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
	_ ServerAPI     = (*Remote)(nil)
	_ PartialAPI    = (*Remote)(nil)
	_ FamilyEvalAPI = (*Remote)(nil)
	_ RangeAPI      = (*Remote)(nil)
	_ MutableAPI    = (*Remote)(nil)
	_ LeaseAPI      = (*Remote)(nil)
)

// NewRemote wraps an rmi client as a ServerAPI.
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

// EvalBatch implements BatchAPI: one round-trip carrying every (node,
// point) pair.
func (r *Remote) EvalBatch(reqs []EvalRequest) ([]EvalResult, error) {
	var out evalResultList
	err := r.callRows(methodEvalBatch, evalRequestList(reqs), &out, func() int64 { return int64(len(out)) })
	return nilOnErr(out, err)
}

// NodeBatch implements BatchAPI.
func (r *Remote) NodeBatch(pres []int64) ([]NodeMeta, error) {
	var out metaList
	err := r.callRows(methodNodeBatch, presList(pres), &out, func() int64 { return int64(len(out)) })
	return nilOnErr(out, err)
}

// ChildrenBatch implements BatchAPI.
func (r *Remote) ChildrenBatch(pres []int64) ([][]NodeMeta, error) {
	var out metaLists
	err := r.callRows(methodChildrenBatch, presList(pres), &out, func() int64 { return int64(len(out)) })
	return nilOnErr(out, err)
}

// nilOnErr returns the decoded reply, or nothing when the call failed.
func nilOnErr[T any](out []T, err error) ([]T, error) {
	if err != nil {
		return nil, err
	}
	return out, nil
}

// NodePolysBatch implements BatchAPI over the paged protocol.
func (r *Remote) NodePolysBatch(pres []int64) ([]NodePolys, error) {
	return remotePagedBundles[NodePolys](r, methodNodePolysPage, pres)
}

// NodePolysPartial implements PartialAPI: the cluster client's
// equality-bundle fragments, paged.
func (r *Remote) NodePolysPartial(pres []int64) ([]PartialNodePolys, error) {
	return remotePagedBundles[PartialNodePolys](r, methodNodePolysPartialPage, pres)
}

// FamilyEvals implements FamilyEvalAPI over the paged protocol.
func (r *Remote) FamilyEvals(pres []int64, points []gf.Elem) ([]FamilyEval, error) {
	return remotePaged(methodFamilyEvalsPage, len(pres), func(member int) (bundlePage[FamilyEval], error) {
		var rep familyPage
		err := r.call(methodFamilyEvalsPage, familyPageArgs{bundlePageArgs{Pres: pres, Member: member}, points}, &rep)
		return bundlePage[FamilyEval](rep), err
	})
}

// ServerStats implements StatsAPI over the wire.
func (r *Remote) ServerStats() (ServerStats, error) {
	var out ServerStats
	err := r.call(methodServerStats, empty{}, &out)
	return out, err
}

// AggregateBatch implements AggregateAPI over the wire.
func (r *Remote) AggregateBatch(req AggregateRequest) (AggregateReply, error) {
	var out AggregateReply
	err := r.call(methodAggregateBatch, req, &out)
	return out, err
}

// PreRange implements RangeAPI over the wire.
func (r *Remote) PreRange() (PreRange, error) {
	var out PreRange
	err := r.call(methodPreRange, empty{}, &out)
	return out, err
}

// Mutate implements MutableAPI over the wire. A read-only backend
// registers no mutation methods; its "unknown method" reply becomes the
// typed ErrMutationUnsupported.
func (r *Remote) Mutate(b MutationBatch) (MutateReply, error) {
	var out MutateReply
	err := r.call(methodMutate, b, &out)
	if err != nil && rmi.IsUnknownMethod(err, methodMutate) {
		return MutateReply{}, ErrMutationUnsupported
	}
	return out, err
}

// Epoch implements MutableAPI over the wire, reporting a read-only
// backend as ErrMutationUnsupported like Mutate.
func (r *Remote) Epoch() (EpochInfo, error) {
	var out EpochInfo
	err := r.call(methodEpoch, empty{}, &out)
	if err != nil && rmi.IsUnknownMethod(err, methodEpoch) {
		return EpochInfo{}, ErrMutationUnsupported
	}
	return out, err
}

// AcquireLease implements LeaseAPI over the wire, reporting a
// read-only backend as ErrMutationUnsupported like Mutate: it is the
// first frame of every single-server write.
func (r *Remote) AcquireLease(req LeaseRequest) (LeaseGrant, error) {
	var out LeaseGrant
	err := r.call(methodAcquireLease, req, &out)
	if err != nil && rmi.IsUnknownMethod(err, methodAcquireLease) {
		return LeaseGrant{}, ErrMutationUnsupported
	}
	return out, err
}

// ReleaseLease implements LeaseAPI over the wire.
func (r *Remote) ReleaseLease(id uint64) error {
	return r.call(methodReleaseLease, uvarint64(id), nil)
}

// MutateLeased implements LeaseAPI over the wire.
func (r *Remote) MutateLeased(lb LeasedBatch) (MutateReply, error) {
	var out MutateReply
	err := r.call(methodMutateLeased, lb, &out)
	return out, err
}

// SetEpoch pins (or with 0 unpins) the epoch stamped on every
// subsequent frame of this proxy's connection.
func (r *Remote) SetEpoch(epoch uint64) { r.c.SetEpoch(epoch) }
