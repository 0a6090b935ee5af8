// The strict test at free points: family evaluations instead of share
// bundles.
//
// A node polynomial is f_N = (x − s)·Π f_c over its children, where s
// is the node's mapped name, and evaluation at a nonzero point is a ring
// homomorphism onto F_q. At a point a that the tag map does not use, no
// factor of Π f_c vanishes, so f_N(a) = (a − t)·Π f_c(a) holds exactly
// when s = t. The strict check therefore needs only the server shares of
// the node and its children evaluated at a — one field element each —
// instead of their share blobs, and no reconstruction or ring product:
// FamilyEvals returns those values in one exchange. The points are the
// map's free points (mapping.Map.FreePoints), constants of the key set.
//
// FamilyEvalAPI is an interface of its own, beside BatchAPI, so a
// backend that lacks it still builds and serves; the client then takes
// the bundle path (NodePolysBatch), which the engines' PerCall mode and
// edit planning (Families) keep using anyway.
package filter

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"encshare/internal/gf"
	"encshare/internal/store"
)

// FamilyEval is one backend's answer about one node of a FamilyEvals
// call. Like PartialNodePolys it is a fragment: Has reports whether the
// backend holds the node itself, and Children lists the children it
// stores, so a cluster shard answers for the children of a node it does
// not own. Vals holds len(points) server-share values per row, point by
// point: the node's row first (when Has), then each child's in Children
// order.
type FamilyEval struct {
	Has      bool
	Children []int64
	Vals     []gf.Elem
	Err      string
}

// FamilyEvalAPI is the optional extension the one-point strict test
// runs on. The in-process filter (and so Mutable), Remote and
// cluster.Filter implement it.
type FamilyEvalAPI interface {
	// FamilyEvals evaluates, for every listed pre, the server share of
	// the node and of each child it stores at every point.
	FamilyEvals(pres []int64, points []gf.Elem) ([]FamilyEval, error)
}

var _ FamilyEvalAPI = (*ServerFilter)(nil)

// FamilyEvals implements FamilyEvalAPI. Each member's rows are read
// from their pages once, under one read lock (store.VisitFamily), and
// every blob decodes into one pooled polynomial that all points are
// evaluated on; the decoded-polynomial cache is not consulted.
func (s *ServerFilter) FamilyEvals(pres []int64, points []gf.Elem) ([]FamilyEval, error) {
	out := make([]FamilyEval, len(pres))
	var rows atomic.Int64
	parallelFor(len(pres), func(i int) {
		var n int64
		out[i], n = s.familyEval(pres[i], points)
		rows.Add(n)
	})
	s.decodes.Add(rows.Load())
	s.evals.Add(rows.Load() * int64(len(points)))
	return out, nil
}

// familyEval answers one member; n is the number of rows decoded.
func (s *ServerFilter) familyEval(pre int64, points []gf.Elem) (e FamilyEval, n int64) {
	p := s.r.GetPoly()
	defer s.r.PutPoly(p)
	m := len(points)
	has, err := s.st.VisitFamily(pre, func(row int64, blob []byte) error {
		if err := s.r.DecodeInto(p, blob); err != nil {
			return decodeErr(row, err)
		}
		n++
		if row != pre {
			e.Children = append(e.Children, row)
		}
		at := len(e.Vals)
		e.Vals = slices.Grow(e.Vals, m)[:at+m]
		s.r.EvalManyInto(e.Vals[at:], p, points)
		return nil
	})
	if err != nil {
		return FamilyEval{Err: err.Error()}, n
	}
	e.Has = has
	return e, n
}

// equalsAtPoints is EqualsBatch's one-point path: one FamilyEvals
// exchange for all checks, then per check one client evaluation per row
// and point and a comparison in F_q.
func (c *Client) equalsAtPoints(checks []Check, points []gf.Elem) ([]bool, error) {
	pres := make([]int64, len(checks))
	for i, ch := range checks {
		pres[i] = ch.Pre
	}
	evals, err := batchChunks(pres, polyChunkSize, func(p []int64) ([]FamilyEval, error) {
		return c.fam.FamilyEvals(p, points)
	})
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(checks))
	errs := make([]error, len(checks))
	var rows atomic.Int64
	parallelFor(len(checks), func(i int) {
		ok, n, err := c.equalsFromEvals(checks[i], points, evals[i])
		out[i], errs[i] = ok, err
		rows.Add(n)
	})
	c.Counters.Evaluations.Add(rows.Load() * int64(len(points)))
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// maxStrictPoints bounds the points one check is decided at, so the
// client's per-row scratch stays on the stack.
const maxStrictPoints = 4

// equalsFromEvals is the client half of one strict check at the points,
// given the server's values; n reports the rows evaluated. At every
// point a the node's value must equal (a − t) times the product of its
// children's values.
func (c *Client) equalsFromEvals(ch Check, points []gf.Elem, e FamilyEval) (ok bool, n int64, err error) {
	if e.Err != "" {
		return false, 0, errors.New(e.Err)
	}
	if !e.Has {
		return false, 0, store.NotFoundError(ch.Pre)
	}
	m := len(points)
	if len(e.Vals) != (1+len(e.Children))*m {
		return false, 0, &BadReplyError{Msg: fmt.Sprintf("family of %d carried %d values for %d rows at %d points",
			ch.Pre, len(e.Vals), 1+len(e.Children), m)}
	}
	f := c.r.Field()
	var nodeArr, prodArr, kidArr [maxStrictPoints]gf.Elem
	node, prod, kid := nodeArr[:m], prodArr[:m], kidArr[:m]
	c.scheme.EvalClientMany(uint64(ch.Pre), points, node)
	for j := range prod {
		prod[j] = 1
	}
	for i, pre := range e.Children {
		c.scheme.EvalClientMany(uint64(pre), points, kid)
		row := e.Vals[(1+i)*m:]
		for j := range prod {
			prod[j] = f.Mul(prod[j], f.Add(row[j], kid[j]))
		}
	}
	ok = true
	for j, a := range points {
		ok = ok && f.Add(e.Vals[j], node[j]) == f.Mul(f.Sub(a, ch.Point), prod[j])
	}
	return ok, int64(1 + len(e.Children)), nil
}
