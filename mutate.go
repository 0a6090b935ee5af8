// Session write path: planning mutations client-side.
//
// The server only ever sees opaque share blobs, so every structural
// edit is planned here, where the keys live. Division by (x − t) does
// not exist in R = F_q[x]/(x^(q−1) − 1) (the ring has zero divisors),
// so updates never "divide out" an old tag: each affected node's
// polynomial is rebuilt bottom-up from its children's reconstructed
// polynomials, and the plan ships only deltas —
//
//   - a node whose pre stays put gets delta = f_new − f_old: the PRG
//     client share is bound to the pre, so it cancels and the delta
//     applies directly to the stored server share;
//   - a node whose pre shifts (renumbering around an insert or delete)
//     keeps its polynomial but must be re-bound to the client share of
//     its new pre: delta = clientShare(oldPre) − clientShare(newPre),
//     computed without fetching anything.
//
// An ancestor's own tag is never stored in the clear; it is recovered
// algebraically: f_a = (x − t_a)·C where C is the product of the
// children's polynomials, so at any point β ∈ F_q^* with C(β) ≠ 0,
// t_a = β − f_a(β)/C(β). (Evaluation at β is a ring homomorphism only
// for β ≠ 0, since β^(q−1) = 1.)
//
// Plans are ordered so the server's (pre) primary key stays unique at
// every step: inserts shift the tail up in descending pre order before
// putting the new row, deletes remove the row before shifting the tail
// down in ascending order. Renumbering rewrites one client share per
// tail row, so an edit near the document start costs O(n) ops — the
// price of the paper's dense pre numbering, not of the sharing.
//
// Writers take turns under the server's writer lease (see
// mutateWithRetry): each write acquires it before planning, and a
// single-server or local batch carries Seq 0 so the server assigns its
// sequence. Concurrent writer sessions therefore never collide on a
// sequence, and a writer that lost its lease between plan and apply is
// fenced instead of applying a stale plan. Local (in-process) sessions
// must not query concurrently with a mutation — there is no RMI frame
// boundary to fence readers at; networked sessions are fenced by the
// epoch gate server-side.
package encshare

import (
	"errors"
	"fmt"
	"time"

	"encshare/internal/cluster"
	"encshare/internal/filter"
	"encshare/internal/gf"
	"encshare/internal/ring"
)

// Typed mutation errors.
var (
	// ErrDeleteRoot rejects deleting the document root.
	ErrDeleteRoot = errors.New("encshare: cannot delete the document root")
	// ErrHasChildren rejects deleting an interior node; delete leaves
	// bottom-up instead (a subtree delete is a sequence of leaf deletes).
	ErrHasChildren = errors.New("encshare: node has children; delete leaves only")
	// ErrReadOnly reports a session whose servers register no mutation
	// frames (a read-only backend).
	ErrReadOnly = filter.ErrMutationUnsupported
)

// Insert adds a new element named name as the LAST child of the node at
// parentPre and returns the new node's pre position. The new leaf lands
// at pre = parentPre + #descendants(parent) + 1; every later row shifts
// up by one (pre and post), and every ancestor's polynomial — the
// parent included — is multiplied by (x − map(name)).
func (s *Session) Insert(parentPre int64, name string) (int64, error) {
	t, err := s.keys.m.Value(name)
	if err != nil {
		return 0, err
	}
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	var newPre int64
	err = s.mutateWithRetry(func() ([]filter.RowOp, error) {
		ops, pre, perr := s.planInsert(parentPre, t)
		newPre = pre
		return ops, perr
	})
	if err != nil {
		return 0, err
	}
	return newPre, nil
}

// Update renames the node at pre to name. Its polynomial is rebuilt as
// (x − map(name)) times its children's product, and each ancestor's
// polynomial is rebuilt around the changed child. Numbering does not
// move.
func (s *Session) Update(pre int64, name string) error {
	t, err := s.keys.m.Value(name)
	if err != nil {
		return err
	}
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	return s.mutateWithRetry(func() ([]filter.RowOp, error) { return s.planUpdate(pre, t) })
}

// Delete removes the LEAF node at pre (ErrHasChildren otherwise; the
// root is not deletable). Every later row shifts down by one and the
// parent's polynomial is rebuilt without the deleted child's factor.
func (s *Session) Delete(pre int64) error {
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	return s.mutateWithRetry(func() ([]filter.RowOp, error) { return s.planDelete(pre) })
}

// planInsert builds the op list for a new last child of parentPre with
// tag value t.
func (s *Session) planInsert(parentPre int64, t gf.Elem) (ops []filter.RowOp, newPre int64, err error) {
	r := s.keys.ring
	chain, err := s.chainMeta(parentPre)
	if err != nil {
		return nil, 0, err
	}
	parent := chain[0]
	desc, err := s.cli.Descendants(parentPre, parent.Post)
	if err != nil {
		return nil, 0, err
	}
	total, err := s.cli.Count()
	if err != nil {
		return nil, 0, err
	}
	pStar := parentPre + int64(len(desc)) + 1

	// Tail shift, descending so pre+1 never collides with a live row.
	// A shifted row's post also moves up (it follows the new leaf in
	// postorder); its parent pointer moves only if the parent itself
	// shifted, i.e. parent ≥ pStar — a parent always precedes its
	// children in pre order, so no unshifted row can point past pStar.
	for pre := total; pre >= pStar; pre-- {
		ops = append(ops, filter.RowOp{
			Kind: filter.OpPatch, Pre: pre, NewPre: pre + 1,
			PostDelta: 1, ParentMin: pStar, ParentDelta: 1,
			Blob: s.rebindDelta(pre, pre+1),
		})
	}

	// Ancestors, parent included: each gains the new leaf's (x − t)
	// factor, and each sits after the leaf in postorder (the leaf takes
	// the parent's old post), so post moves up by one.
	for _, a := range chain {
		fOld, err := s.cli.Reconstruct(a.Pre)
		if err != nil {
			return nil, 0, err
		}
		fNew := r.MulLinear(fOld, t)
		ops = append(ops, filter.RowOp{
			Kind: filter.OpPatch, Pre: a.Pre, PostDelta: 1,
			Blob: r.Bytes(r.Sub(fNew, fOld)),
		})
	}

	// The new leaf itself, last: its slot is free once the tail moved.
	leaf := s.scheme.Split(r.Linear(t), uint64(pStar))
	ops = append(ops, filter.RowOp{
		Kind: filter.OpPut, Pre: pStar, Post: parent.Post, Parent: parentPre,
		Blob: r.Bytes(leaf),
	})
	return ops, pStar, nil
}

// planUpdate builds the op list for renaming the node at pre to tag
// value t.
func (s *Session) planUpdate(pre int64, t gf.Elem) ([]filter.RowOp, error) {
	r := s.keys.ring
	chain, err := s.editChain(pre)
	if err != nil {
		return nil, err
	}
	prod, _, _ := childProducts(r, chain[0], 0, nil) // replacing nothing cannot fail
	fNew := r.MulLinear(prod, t)
	ops := []filter.RowOp{{Kind: filter.OpPatch, Pre: pre, Blob: r.Bytes(r.Sub(fNew, chain[0].Node.Poly))}}
	up, err := rebuildUp(r, chain[1:], pre, fNew, 0)
	if err != nil {
		return nil, err
	}
	return append(ops, up...), nil
}

// planDelete builds the op list for removing the leaf at pre.
func (s *Session) planDelete(pre int64) ([]filter.RowOp, error) {
	chain, err := s.editChain(pre)
	switch {
	case err != nil:
		return nil, err
	case len(chain) == 1:
		return nil, ErrDeleteRoot
	case len(chain[0].Children) > 0:
		return nil, ErrHasChildren
	}
	total, err := s.cli.Count()
	if err != nil {
		return nil, err
	}

	// The parent and every ancestor above it lose the deleted child's
	// factor, and each sits after it in postorder.
	up, err := rebuildUp(s.keys.ring, chain[1:], pre, nil, -1)
	if err != nil {
		return nil, err
	}

	// Row removal first (frees the slot), then the tail shift ascending
	// (pre+1 lands on the just-freed pre), then the rebuilt chain. The
	// deleted node is a leaf, so nothing can point AT it; pointers past
	// it shift down with their targets.
	ops := []filter.RowOp{{Kind: filter.OpDelete, Pre: pre}}
	for q := pre + 1; q <= total; q++ {
		ops = append(ops, filter.RowOp{
			Kind: filter.OpPatch, Pre: q, NewPre: q - 1,
			PostDelta: -1, ParentMin: pre + 1, ParentDelta: -1,
			Blob: s.rebindDelta(q, q-1),
		})
	}
	return append(ops, up...), nil
}

// chainMeta walks the metadata chain from the node at pre up to the
// root, one Node call per level: chain[0] is the node's own, the root's
// comes last, each bound to the pre asked for, never the one the
// server echoes. It refuses a parent pointer that does not precede its
// child, so a lying server cannot loop the walk.
func (s *Session) chainMeta(pre int64) ([]filter.NodeMeta, error) {
	var chain []filter.NodeMeta
	for a := pre; ; {
		m, err := s.cli.Node(a)
		if err != nil {
			return nil, err
		}
		if m.Parent >= a { // a parent precedes its children in pre order
			return nil, fmt.Errorf("encshare: node %d names parent %d, which does not precede it", a, m.Parent)
		}
		m.Pre = a
		chain = append(chain, m)
		if m.Parent == 0 {
			return chain, nil
		}
		a = m.Parent
	}
}

// editChain reads everything an update or delete of the node at pre
// plans from: the metadata chain (chainMeta), then every chain node's
// bundle (its row plus all child rows), fetched and reconstructed in a
// single NodePolysBatch exchange. chain[0] is the edited node's family,
// the root's comes last. Reads are all pre-mutation: the plan is
// computed before any op is applied.
func (s *Session) editChain(pre int64) ([]filter.Family, error) {
	chain, err := s.chainMeta(pre)
	if err != nil {
		return nil, err
	}
	pres := make([]int64, len(chain))
	for i, m := range chain {
		pres[i] = m.Pre
	}
	return s.cli.Families(pres)
}

// rebuildUp rebuilds the ancestors whose families are listed, the path
// child's parent first and the root last. At each step the ancestor's
// polynomial is rebuilt with the path child (childPre) replaced by
// childNew, or dropped when childNew is nil, its tag recovered
// algebraically from the pre-mutation family, and a patch with the
// given postDelta emitted. Pure: every polynomial comes from the
// families, fetched in one exchange by editChain.
func rebuildUp(r *ring.Ring, fams []filter.Family, childPre int64, childNew ring.Poly, postDelta int64) ([]filter.RowOp, error) {
	ops := make([]filter.RowOp, 0, len(fams))
	for _, fam := range fams {
		cOld, cNew, err := childProducts(r, fam, childPre, childNew)
		if err != nil {
			return nil, err
		}
		tA, err := recoverTag(r, fam.Node.Poly, cOld)
		if err != nil {
			return nil, err
		}
		fNew := r.MulLinear(cNew, tA)
		ops = append(ops, filter.RowOp{
			Kind: filter.OpPatch, Pre: fam.Node.Pre, PostDelta: postDelta,
			Blob: r.Bytes(r.Sub(fNew, fam.Node.Poly)),
		})
		childPre, childNew = fam.Node.Pre, fNew
	}
	return ops, nil
}

// childProducts returns the product of fam's child polynomials twice:
// as stored (old), and with the child at replacePre substituted by
// replaceWith (new). A nil replaceWith drops that child from the new
// product (the delete case); replacePre 0 leaves both products
// identical and cannot fail. Pure: the children come reconstructed in
// the family.
func childProducts(r *ring.Ring, fam filter.Family, replacePre int64, replaceWith ring.Poly) (cOld, cNew ring.Poly, err error) {
	cOld, cNew = r.One(), r.One()
	found := false
	for _, k := range fam.Children {
		cOld = r.Mul(cOld, k.Poly)
		switch {
		case k.Pre != replacePre:
			cNew = r.Mul(cNew, k.Poly)
		case replaceWith != nil:
			cNew = r.Mul(cNew, replaceWith)
			found = true
		default:
			found = true
		}
	}
	if replacePre != 0 && !found {
		return nil, nil, fmt.Errorf("encshare: node %d is not a child of node %d", replacePre, fam.Node.Pre)
	}
	return cOld, cNew, nil
}

// rebindDelta re-binds an unchanged polynomial from the client share of
// oldPre to that of newPre: the stored server share s = f − c(pre)
// needs s += c(oldPre) − c(newPre). Pure client-side PRG work on one
// pooled polynomial; only the returned blob is allocated.
func (s *Session) rebindDelta(oldPre, newPre int64) []byte {
	r := s.keys.ring
	buf := r.GetPoly()
	defer r.PutPoly(buf)
	delta := s.scheme.SplitInto(buf, s.scheme.ClientShareInto(buf, uint64(oldPre)), uint64(newPre))
	return r.Bytes(delta)
}

// recoverTag recovers t from f = (x − t)·c: at any β ∈ F_q^* with
// c(β) ≠ 0, t = β − f(β)/c(β). The full-product equality check guards
// against a coincidental match at the sample point; with an injective
// tag map c cannot vanish at every nonzero point (it has at most
// deg(c) < q−1 roots), so some β always works on honest data.
func recoverTag(r *ring.Ring, f, c ring.Poly) (gf.Elem, error) {
	fld := r.Field()
	for b := gf.Elem(1); b < fld.Q(); b++ {
		cb := r.Eval(c, b)
		if cb == 0 {
			continue
		}
		t := fld.Sub(b, fld.Div(r.Eval(f, b), cb))
		if r.Equal(r.MulLinear(c, t), f) {
			return t, nil
		}
	}
	return 0, errors.New("encshare: cannot recover a node's tag from its children product (shares corrupt?)")
}

// mutateWithRetry plans and applies one mutation, re-planning when the
// state the plan was read from moved under it. A stale plan is never
// resent — its reads predate the state it would apply to — so every
// retryable failure re-runs plan() against the current state. Caller
// holds s.mutMu.
//
// Every attempt takes the writer lease BEFORE planning, so the plan's
// reads are fenced: a writer that loses the lease between plan and
// apply gets a LeaseExpiredError instead of applying a stale plan. A
// single-server or local batch carries Seq 0 and the server assigns
// the next sequence under the lock that fences the lease, so
// concurrent writer sessions take turns and never collide on one.
func (s *Session) mutateWithRetry(plan func() ([]filter.RowOp, error)) error {
	const attempts = 3
	var err error
	for i := 0; i < attempts; i++ {
		var lease *filter.LeaseGrant
		if lease, err = s.acquireWriteLease(); err != nil {
			return err
		}
		var ops []filter.RowOp
		if ops, err = plan(); err == nil {
			if s.testHookAfterPlan != nil {
				s.testHookAfterPlan()
			}
			err = s.applyOps(ops, lease)
		}
		// A leased single-server batch hands the lease back server-side
		// the moment it applies, so the next writer plans while this
		// batch's fsync is in flight. Failed attempts and cluster
		// batches hand it back here, best-effort: a release that fails
		// leaves the lease to expire at its TTL.
		switch {
		case lease == nil:
		case s.shardF != nil:
			_ = s.shardF.ReleaseWriterLease(lease.ID)
		case err != nil:
			_ = s.writer.ReleaseLease(lease.ID)
		}
		switch {
		case err == nil:
			return nil
		case cluster.IsPartialMutation(err) || errors.Is(err, cluster.ErrPendingMutation):
			// The cluster committed this plan on some shards only (or
			// refused because an earlier batch is still parked): the
			// document is torn across shards, so plan reads — which span
			// shards — would see an inconsistent document. Never re-plan
			// here, even when the underlying per-shard failure is a
			// sequence gap; surface the error and let the caller repair
			// with Resync first. This case must precede the gap/mismatch
			// replan below for exactly that reason.
			return err
		case filter.IsStaleEpoch(err):
			if !s.refreshEpoch() {
				return err
			}
		case filter.IsSeqGap(err) || filter.IsBatchMismatch(err):
			// Cluster sessions only: another writer advanced a shard's log
			// past the sequence this batch was planned for. The cluster
			// layer already dropped the stale sequence; replan.
		case filter.IsLeaseExpired(err):
			// The lease lapsed (or transferred) between planning and
			// apply: another writer may have rewritten the table this plan
			// was read from. The batch was fenced before applying; replan
			// under a fresh grant.
		default:
			return err
		}
	}
	return err
}

// acquireWriteLease takes the writer lease for one mutation attempt,
// polling while another writer holds it, for at most twice the lease
// TTL. Caller holds s.mutMu.
//
// Single-server and local sessions cannot write without the lease: a
// lease still held at the deadline surfaces as the server's
// LeaseHeldError and any other acquisition error surfaces as-is.
// Cluster sessions sequence their batches client-side, so for them the
// lease only makes writers take turns planning: when it cannot be had
// (a dead lease endpoint must not block writes) the grant is nil and
// the per-shard sequence and digest checks guard the batch alone.
func (s *Session) acquireWriteLease() (*filter.LeaseGrant, error) {
	ttl := s.leaseTTL
	if ttl <= 0 {
		ttl = filter.DefaultLeaseTTL
	}
	// Held-lease polls are cheap — the server answers from a small
	// mutex-guarded struct without touching the apply lock — so poll
	// fast: a writer parked in a long backoff is a writer NOT staging
	// its batch into the group commit currently in flight.
	backoff := min(2*time.Millisecond, max(ttl/4, time.Millisecond))
	deadline := time.Now().Add(2 * ttl)
	ms := int64(ttl / time.Millisecond)
	for {
		var grant filter.LeaseGrant
		var err error
		if s.shardF != nil {
			grant, err = s.shardF.AcquireWriterLease(s.writerID, ms)
		} else {
			grant, err = s.writer.AcquireLease(filter.LeaseRequest{Owner: s.writerID, TTLMillis: ms})
		}
		switch {
		case err == nil:
			// The grant carries the server's epoch: re-pin without an
			// extra Epoch round-trip.
			s.pinEpoch(grant.Epoch)
			return &grant, nil
		case filter.IsLeaseHeld(err) && time.Now().Before(deadline):
			time.Sleep(backoff)
		case s.shardF != nil:
			return nil, nil
		default:
			return nil, err
		}
	}
}

// applyOps commits one planned mutation. Caller holds s.mutMu.
//
// A single-server or local batch goes out under the lease with Seq 0
// and Release set. Cluster batches carry client-assigned sequences
// even under a lease — the redelivery machinery needs a sequence known
// before delivery is attempted, and a server-assigned one is only safe
// when there is exactly one authoritative server; lease is nil when
// the cluster lease could not be had.
func (s *Session) applyOps(ops []filter.RowOp, lease *filter.LeaseGrant) error {
	if s.shardF != nil {
		return s.shardF.Mutate(ops)
	}
	reply, err := s.writer.MutateLeased(filter.LeasedBatch{
		LeaseID: lease.ID,
		Release: true,
		B:       filter.MutationBatch{Ver: filter.MutationBatchVersion, Ops: ops},
	})
	if err != nil {
		return err
	}
	s.pinEpoch(reply.Epoch)
	return nil
}

// pinEpoch stamps a single-server session's frames with the epoch its
// last write or grant reported. Cluster sessions pin per shard inside
// the cluster layer; local sessions have no frames to stamp.
func (s *Session) pinEpoch(epoch uint64) {
	if s.rmiCli != nil {
		s.rmiCli.SetEpoch(epoch)
	}
}

// refreshEpoch re-pins the session to the servers' current epoch after
// a StaleEpochError and reports whether a retry is worthwhile.
func (s *Session) refreshEpoch() bool {
	switch {
	case s.shardF != nil:
		return s.shardF.RefreshEpochs() == nil
	case s.remote != nil:
		info, err := s.remote.Epoch()
		if err != nil {
			return false
		}
		s.pinEpoch(info.Epoch)
		return true
	}
	return false
}

// Resync reconnects restarted replicas and redelivers the mutation
// batches they missed, polling until every replica of every shard is
// caught up (and re-pinned) or the timeout expires. addrs lists the
// replica addresses to re-dial if their connections died — typically
// the same flat list the session was dialed with. Cluster sessions
// only. Resync is also the repair path after a PartialMutationError or
// ErrPendingMutation: the sync flushes any batch parked with unknown
// delivery, restoring a consistent cross-shard tiling before the next
// write.
func (s *Session) Resync(addrs []string, timeout time.Duration) error {
	if s.shardF == nil {
		return errors.New("encshare: Resync requires a cluster session")
	}
	deadline := time.Now().Add(timeout)
	for {
		for _, a := range addrs {
			_, _ = s.shardF.EnsureReplica(a) // down replicas: retried next round
		}
		pending, err := s.shardF.SyncReplicas()
		if pending == 0 {
			return err
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("encshare: %d replica(s) still out of sync after %v", pending, timeout)
			}
			return err
		}
		time.Sleep(100 * time.Millisecond)
	}
}
