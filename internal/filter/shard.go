// Shard seams: the two optional ServerAPI extensions a clustered
// deployment needs from each shard server.
//
// A cluster shard holds a contiguous pre-range slice of the node table.
// Point operations (EvalAt, Node, Poly) route to the one shard owning the
// pre, but the children of a node near a shard boundary can spill into
// the next shard, so the strict equality test's node+children bundle
// cannot be answered by any single shard. PartialAPI solves this: every
// relevant shard returns the *fragment* it stores (the node row if owned,
// plus its local child rows), and the cluster client merges fragments in
// shard order — which is pre order, because shards tile the pre axis.
//
// RangeAPI lets a shard self-describe the pre interval it covers, so a
// cluster client can be dialed with nothing but a list of addresses: no
// manifest file has to travel to the query side.
package filter

import "encshare/internal/store"

// PreRange is the contiguous pre interval a server's node table covers.
type PreRange struct {
	Lo int64
	Hi int64
}

// RangeAPI is the optional extension through which a (shard) server
// reports its pre coverage.
type RangeAPI interface {
	// PreRange returns the smallest and largest stored pre.
	PreRange() (PreRange, error)
}

// PartialNodePolys is one shard's fragment of an equality-test bundle
// for a single node: the node's own share row when this shard owns the
// pre, plus whatever child share rows this shard stores. Unlike
// NodePolys, a missing node is not an error — a shard legitimately holds
// children of a node it does not own.
type PartialNodePolys struct {
	Has      bool // this shard owns the node itself
	Node     PolyRow
	Children []PolyRow
	Err      string
}

// PartialAPI is the optional extension cluster clients use to assemble
// equality bundles across shard boundaries.
type PartialAPI interface {
	// NodePolysPartial returns, for every listed pre, the fragment of the
	// equality bundle stored locally.
	NodePolysPartial(pres []int64) ([]PartialNodePolys, error)
}

var (
	_ RangeAPI   = (*ServerFilter)(nil)
	_ PartialAPI = (*ServerFilter)(nil)
)

// PreRange implements RangeAPI against the store.
func (s *ServerFilter) PreRange() (PreRange, error) {
	lo, hi, err := s.st.MinMaxPre()
	if err != nil {
		return PreRange{}, err
	}
	return PreRange{Lo: lo, Hi: hi}, nil
}

// NodePolysPartial implements PartialAPI: like NodePolysBatch, but a pre
// this table does not hold yields Has=false instead of a member error,
// and the children list carries only locally stored rows.
func (s *ServerFilter) NodePolysPartial(pres []int64) ([]PartialNodePolys, error) {
	return bundles(s, pres, func(_ int64, b PartialNodePolys) PartialNodePolys { return b }), nil
}

// bundles reads the equality bundle of every pre on the worker pool,
// each with one store read (store.Bundle), and shapes it with mk. A
// member that fails to read carries its error and no rows.
func bundles[T any](s *ServerFilter, pres []int64, mk func(pre int64, b PartialNodePolys) T) []T {
	out := make([]T, len(pres))
	parallelFor(len(pres), func(i int) {
		var b PartialNodePolys
		var err error
		b.Node, b.Has, b.Children, err = store.Bundle[PolyRow](s.st, pres[i])
		if err != nil {
			b = PartialNodePolys{Err: err.Error()}
		}
		out[i] = mk(pres[i], b)
	})
	return out
}
