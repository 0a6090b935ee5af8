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
// One writer session per document is assumed (see internal/cluster's
// mutate.go); concurrent writers trip each other's sequence-gap checks
// — or, when one lands exactly one sequence behind, the server's
// batch-digest check (BatchMismatchError) — rather than corrupting
// anything or falsely acknowledging an unapplied batch; either error
// makes the losing writer re-plan. Local (in-process) sessions must
// also not query concurrently with a mutation — there is no RMI frame
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
	// ErrReadOnly reports a session with no write path at all (e.g. a
	// cluster of pre-mutation servers).
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
	parent, err := s.cli.Node(parentPre)
	if err != nil {
		return nil, 0, err
	}
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
	for a := parent; ; {
		fOld, rerr := s.cli.Reconstruct(a.Pre)
		if rerr != nil {
			return nil, 0, rerr
		}
		fNew := r.MulLinear(fOld, t)
		ops = append(ops, filter.RowOp{
			Kind: filter.OpPatch, Pre: a.Pre, PostDelta: 1,
			Blob: r.Bytes(r.Sub(fNew, fOld)),
		})
		if a.Parent == 0 {
			break
		}
		if a, err = s.cli.Node(a.Parent); err != nil {
			return nil, 0, err
		}
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
	node, err := s.cli.Node(pre)
	if err != nil {
		return nil, err
	}
	prod, _, err := s.childProducts(pre, 0, nil)
	if err != nil {
		return nil, err
	}
	fNew := r.MulLinear(prod, t)
	fOld, err := s.cli.Reconstruct(pre)
	if err != nil {
		return nil, err
	}
	ops := []filter.RowOp{{Kind: filter.OpPatch, Pre: pre, Blob: r.Bytes(r.Sub(fNew, fOld))}}
	up, err := s.rebuildUp(node.Parent, pre, fNew, 0)
	if err != nil {
		return nil, err
	}
	return append(ops, up...), nil
}

// planDelete builds the op list for removing the leaf at pre.
func (s *Session) planDelete(pre int64) ([]filter.RowOp, error) {
	r := s.keys.ring
	node, err := s.cli.Node(pre)
	if err != nil {
		return nil, err
	}
	if node.Parent == 0 {
		return nil, ErrDeleteRoot
	}
	kids, err := s.cli.Children(pre)
	if err != nil {
		return nil, err
	}
	if len(kids) > 0 {
		return nil, ErrHasChildren
	}
	total, err := s.cli.Count()
	if err != nil {
		return nil, err
	}

	// Parent rebuilt without the deleted child's factor. Its old tag is
	// recovered against the product that still includes the child.
	parent, err := s.cli.Node(node.Parent)
	if err != nil {
		return nil, err
	}
	cOld, cNew, err := s.childProducts(parent.Pre, pre, nil)
	if err != nil {
		return nil, err
	}
	fpOld, err := s.cli.Reconstruct(parent.Pre)
	if err != nil {
		return nil, err
	}
	tP, err := recoverTag(r, fpOld, cOld)
	if err != nil {
		return nil, err
	}
	fpNew := r.MulLinear(cNew, tP)

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
	ops = append(ops, filter.RowOp{
		Kind: filter.OpPatch, Pre: parent.Pre, PostDelta: -1,
		Blob: r.Bytes(r.Sub(fpNew, fpOld)),
	})
	up, err := s.rebuildUp(parent.Parent, parent.Pre, fpNew, -1)
	if err != nil {
		return nil, err
	}
	return append(ops, up...), nil
}

// rebuildUp walks the ancestor chain from the node at `from` (0 stops
// immediately) to the root. At each step the ancestor's polynomial is
// rebuilt with the path child's polynomial replaced by childNew, its
// tag recovered algebraically from the pre-mutation state, and a patch
// with the given postDelta emitted. Reads are all pre-mutation: the
// plan is computed before any op is applied.
func (s *Session) rebuildUp(from, childPre int64, childNew ring.Poly, postDelta int64) ([]filter.RowOp, error) {
	r := s.keys.ring
	var ops []filter.RowOp
	for a := from; a != 0; {
		meta, err := s.cli.Node(a)
		if err != nil {
			return nil, err
		}
		cOld, cNew, err := s.childProducts(a, childPre, childNew)
		if err != nil {
			return nil, err
		}
		fOld, err := s.cli.Reconstruct(a)
		if err != nil {
			return nil, err
		}
		tA, err := recoverTag(r, fOld, cOld)
		if err != nil {
			return nil, err
		}
		fNew := r.MulLinear(cNew, tA)
		ops = append(ops, filter.RowOp{
			Kind: filter.OpPatch, Pre: a, PostDelta: postDelta,
			Blob: r.Bytes(r.Sub(fNew, fOld)),
		})
		childPre, childNew = a, fNew
		a = meta.Parent
	}
	return ops, nil
}

// childProducts reconstructs the children of the node at pre and
// returns the product of their polynomials twice: as stored (old), and
// with the child at replacePre substituted by replaceWith (new). A nil
// replaceWith drops that child from the new product (the delete case);
// replacePre 0 leaves both products identical.
func (s *Session) childProducts(pre, replacePre int64, replaceWith ring.Poly) (cOld, cNew ring.Poly, err error) {
	r := s.keys.ring
	kids, err := s.cli.Children(pre)
	if err != nil {
		return nil, nil, err
	}
	cOld, cNew = r.One(), r.One()
	found := false
	for _, k := range kids {
		fk, err := s.cli.Reconstruct(k.Pre)
		if err != nil {
			return nil, nil, err
		}
		cOld = r.Mul(cOld, fk)
		switch {
		case k.Pre != replacePre:
			cNew = r.Mul(cNew, fk)
		case replaceWith != nil:
			cNew = r.Mul(cNew, replaceWith)
			found = true
		default:
			found = true
		}
	}
	if replacePre != 0 && !found {
		return nil, nil, fmt.Errorf("encshare: node %d is not a child of node %d", replacePre, pre)
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
// epoch pin or the cached sequence fell behind another writer's work.
// A stale plan is never resent — its reads predate the state it would
// apply to — so both failure modes re-run plan() against the current
// state. Caller holds s.mutMu.
//
// Networked sessions first try to take the server's writer lease for
// the attempt (acquired BEFORE planning, so the plan's reads are
// fenced): under a lease the server assigns the batch sequence, so two
// concurrent writer sessions interleave without burning retries on
// sequence-gap collisions. Everything degrades — a server without the
// lease frames, or a lease held past the wait deadline, falls back to
// the optimistic path, whose gap/digest checks remain the correctness
// backstop either way.
func (s *Session) mutateWithRetry(plan func() ([]filter.RowOp, error)) error {
	const attempts = 3
	var err error
	for i := 0; i < attempts; i++ {
		lease, release := s.acquireWriteLease()
		var ops []filter.RowOp
		if ops, err = plan(); err == nil {
			if s.testHookAfterPlan != nil {
				s.testHookAfterPlan()
			}
			err = s.applyOps(ops, lease)
		}
		release()
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
			s.mutSeqOK = false // the pin moved, so the cached sequence did too
		case filter.IsSeqGap(err) || filter.IsBatchMismatch(err):
			// Another writer moved the state this plan was read from (a
			// gap: the cached sequence fell behind; a mismatch: this batch
			// collided with a sequence the other writer consumed). applyOps
			// already invalidated the stale sequence; replan.
		case filter.IsLeaseExpired(err):
			// The lease lapsed (or transferred) between planning and
			// apply: another writer may have rewritten the table this plan
			// was read from. The batch was fenced before applying; drop
			// the cached sequence and replan under a fresh grant.
			s.mutSeqOK = false
		default:
			return err
		}
	}
	return err
}

// acquireWriteLease tries to take the server's writer lease for one
// mutation attempt. It returns the grant (nil when running optimistic)
// and a release func the attempt calls when done — releasing after the
// apply is a no-op for leased single-server batches (they release
// server-side at apply, overlapping the next writer with this batch's
// fsync) but hands the cluster lease back promptly. Degrades to
// (nil, no-op) — never an error — when a cluster shard lacks the lease
// frames, the lease stays held past the wait deadline, the acquisition
// fails, or the session is local. Caller holds s.mutMu.
func (s *Session) acquireWriteLease() (*filter.LeaseGrant, func()) {
	noop := func() {}
	if s.noLease || (s.remote == nil && s.shardF == nil) {
		return nil, noop
	}
	ttl := s.leaseTTL
	if ttl <= 0 {
		ttl = filter.DefaultLeaseTTL
	}
	wait := s.leaseWait
	if wait <= 0 {
		wait = 2 * ttl
	}
	// Held-lease polls are cheap — the server answers from a small
	// mutex-guarded struct without touching the apply lock — so poll
	// fast: a writer parked in a long backoff is a writer NOT staging
	// its batch into the group commit currently in flight.
	backoff := 2 * time.Millisecond
	if q := ttl / 4; q < backoff {
		backoff = q
	}
	if backoff <= 0 {
		backoff = time.Millisecond
	}
	deadline := time.Now().Add(wait)
	for {
		var grant filter.LeaseGrant
		var err error
		if s.shardF != nil {
			grant, err = s.shardF.AcquireWriterLease(s.writerID, int64(ttl/time.Millisecond))
		} else {
			grant, err = s.remote.AcquireLease(filter.LeaseRequest{Owner: s.writerID, TTLMillis: int64(ttl / time.Millisecond)})
		}
		switch {
		case err == nil:
			if s.remote != nil {
				// The grant carries the server's write position: re-pin
				// without an extra Epoch round-trip.
				s.mutSeq = grant.LastSeq
				s.mutSeqOK = true
				s.rmiCli.SetEpoch(grant.Epoch)
			}
			g := grant
			return &g, func() {
				if s.shardF != nil {
					_ = s.shardF.ReleaseWriterLease(g.ID)
				} else {
					_ = s.remote.ReleaseLease(g.ID)
				}
			}
		case errors.Is(err, filter.ErrLeaseUnsupported):
			s.noLease = true
			return nil, noop
		case filter.IsLeaseHeld(err):
			if time.Now().After(deadline) {
				// Another writer is hogging the lease; proceed optimistic
				// — the sequence/digest checks still protect the batch.
				return nil, noop
			}
			time.Sleep(backoff)
		default:
			// Transport or server trouble; the optimistic path surfaces
			// it with better context.
			return nil, noop
		}
	}
}

// applyOps commits one planned mutation through whichever write path
// the session has. Caller holds s.mutMu.
//
// Cluster batches always carry explicit client-assigned sequences even
// under a lease — the redelivery/backlog machinery needs a sequence
// known before delivery is attempted, and a server-assigned one is only
// safe when there is exactly one authoritative server. The cluster
// lease is contention avoidance (writers take turns planning); the
// per-shard sequence and digest checks stay the backstop.
func (s *Session) applyOps(ops []filter.RowOp, lease *filter.LeaseGrant) error {
	switch {
	case s.shardF != nil:
		return s.shardF.Mutate(ops)
	case s.remote != nil:
		if lease != nil {
			return s.remoteMutateLeased(ops, lease)
		}
		return s.remoteMutate(ops)
	case s.mut != nil:
		b := filter.MutationBatch{Ver: filter.MutationBatchVersion, Seq: s.mut.LastSeq() + 1, Ops: ops}
		_, err := s.mut.Mutate(b)
		return err
	}
	return ErrReadOnly
}

// remoteMutateLeased sends one batch under the writer lease with Seq 0:
// the server assigns lastSeq+1 under the same lock that fences the
// lease, so concurrent leased writers can never collide on a sequence.
// Release is set — the server hands the lease back the moment the batch
// is applied (before its fsync completes), so the next writer plans and
// stages while this batch's fdatasync is in flight and group commit
// coalesces both.
func (s *Session) remoteMutateLeased(ops []filter.RowOp, lease *filter.LeaseGrant) error {
	lb := filter.LeasedBatch{
		LeaseID: lease.ID,
		Release: true,
		B:       filter.MutationBatch{Ver: filter.MutationBatchVersion, Ops: ops},
	}
	reply, err := s.remote.MutateLeased(lb)
	if err != nil {
		s.mutSeqOK = false // same delivery-unknown reasoning as remoteMutate
		return err
	}
	s.mutSeq = reply.LastSeq
	s.mutSeqOK = true
	s.rmiCli.SetEpoch(reply.Epoch)
	return nil
}

// remoteMutate sequences and sends one batch to a single-server
// session. The sequence is learned lazily from the server's epoch
// info; ANY error invalidates it, forcing a fresh Epoch() fetch before
// the next batch. The invalidation must not be narrowed to sequence
// gaps: the server consumes a sequence even when applying its batch
// fails (so replicas converge), and a transport error leaves delivery
// unknown — in both cases the cached sequence may already be taken,
// and reusing it would make the next batch's Seq collide with the
// consumed one, turning it into a false idempotent ack (a silently
// lost update). Surfaced errors reach mutateWithRetry, which re-plans
// — the batch was planned against a state the server no longer holds,
// so resending it would apply a stale plan.
func (s *Session) remoteMutate(ops []filter.RowOp) error {
	if !s.mutSeqOK {
		info, err := s.remote.Epoch()
		if err != nil {
			return err
		}
		s.mutSeq = info.LastSeq
		s.mutSeqOK = true
	}
	b := filter.MutationBatch{Ver: filter.MutationBatchVersion, Seq: s.mutSeq + 1, Ops: ops}
	reply, err := s.remote.Mutate(b)
	if err != nil {
		s.mutSeqOK = false
		return err
	}
	s.mutSeq = reply.LastSeq
	s.rmiCli.SetEpoch(reply.Epoch)
	return nil
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
		s.rmiCli.SetEpoch(info.Epoch)
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
