// Cluster write path: routing mutation batches to shards and their
// replicas.
//
// The Session planner emits row operations in global pre space; this
// layer splits them by owning shard (patches and deletes by the row
// they address, puts by the shard whose range the new row lands in),
// assigns each shard's batch the next sequence in that shard's log,
// and delivers it to EVERY replica of the shard. One acknowledgment
// per affected shard commits the write — the acking replica journaled
// it — and replicas that missed it are caught up from a bounded
// in-session redelivery window (SyncReplicas), or, past the window,
// by re-seeding from a sibling's files.
//
// Per-shard batches stay independent: an insert's renumbering patches
// for shard k shift only rows shard k holds, so the shard ranges keep
// tiling after every shard applies its own slice of the plan (the
// owner's Hi grows by one, every later shard's window slides by one).
// The reply's range updates the router live.
//
// A multi-shard plan commits shard by shard with no cross-shard
// atomicity: a failure partway leaves the global pre numbering torn
// across shards. Mutate bounds and repairs the tear — every shard is
// still attempted, a shard whose delivery is merely unknown parks its
// batch, the mixed outcome surfaces as a PartialMutationError, further
// writes are refused (ErrPendingMutation) until SyncReplicas flushes
// the parked batches, and the flush is safe to repeat because servers
// digest-verify redelivered sequences.
//
// Concurrent writer sessions take turns under the cluster writer lease
// (AcquireWriterLease) when they can get it. Without it they would
// interleave sequence numbers and fail each other's gap checks
// (SeqGapError, or BatchMismatchError when a batch collides with a
// sequence the other writer already consumed; either way the losing
// writer must re-learn and re-plan).
package cluster

import (
	"errors"
	"fmt"
	"sync"

	"encshare/internal/filter"
)

// backlogMax bounds the per-shard redelivery window: a replica that
// missed more than this many batches cannot be caught up by this
// session and must be re-seeded from a sibling's store + log files.
const backlogMax = 64

// epochSetter is the frame-pinning hook a dialed replica connection
// exposes (*filter.Remote). In-process connections don't carry frame
// headers and don't need pins — their sessions serialize locally.
type epochSetter interface{ SetEpoch(epoch uint64) }

// mutMu serializes this session's writers across all shards. It lives
// on the Filter rather than per shard so a multi-shard batch commits
// shard by shard without interleaving another local writer.
type mutState struct {
	mu sync.Mutex
	// lastLeaseID is the writer-lease fencing ID from the last grant
	// this session saw; a different ID on the next grant means another
	// writer held the lease in between and advanced logs this session's
	// cached sequences do not reflect.
	lastLeaseID uint64
}

// errNoLeaseEndpoint reports a cluster none of whose shard-0 replica
// connections speaks the writer-lease frames.
var errNoLeaseEndpoint = errors.New("cluster: no shard-0 replica speaks the writer lease")

// AcquireWriterLease acquires the cluster-wide writer lease from the
// designated sequencer — the lexically lowest address among shard 0's
// replicas whose connection speaks the lease frames, so every session
// elects the same endpoint without coordination. The lease does not
// replace explicit per-shard sequencing (redelivery and digest checks
// still guard correctness); it keeps concurrent writer sessions from
// ever planning against the same state and burning retries.
//
// A grant whose lease ID differs from the last one this session saw
// means the lease transferred through another writer meanwhile: every
// shard's cached sequence is dropped and epochs re-learned before the
// grant is returned.
//
// Fails with errNoLeaseEndpoint when no replica speaks the lease
// frames. The lease is best-effort here: callers that cannot get it
// write unleased.
func (f *Filter) AcquireWriterLease(owner string, ttlMillis int64) (filter.LeaseGrant, error) {
	la := f.leaseEndpoint()
	if la == nil {
		return filter.LeaseGrant{}, errNoLeaseEndpoint
	}
	grant, err := la.AcquireLease(filter.LeaseRequest{Owner: owner, TTLMillis: ttlMillis})
	if err != nil {
		return filter.LeaseGrant{}, err
	}
	f.mutMu.mu.Lock()
	transferred := grant.ID != f.mutMu.lastLeaseID
	f.mutMu.lastLeaseID = grant.ID
	if transferred {
		for _, sh := range f.shards {
			sh.seqOK = false
		}
	}
	f.mutMu.mu.Unlock()
	if transferred {
		if err := f.RefreshEpochs(); err != nil {
			return grant, err
		}
	}
	return grant, nil
}

// ReleaseWriterLease hands the cluster writer lease back early (it
// would expire on its own). Best-effort: no endpoint, no error.
func (f *Filter) ReleaseWriterLease(id uint64) error {
	la := f.leaseEndpoint()
	if la == nil {
		return nil
	}
	return la.ReleaseLease(id)
}

// leaseEndpoint picks the designated sequencer: shard 0's lease-capable
// replica at the lexically lowest address.
func (f *Filter) leaseEndpoint() filter.LeaseAPI {
	if len(f.shards) == 0 {
		return nil
	}
	var best filter.LeaseAPI
	var bestAddr string
	for _, rep := range f.shards[0].replicaList() {
		la, ok := rep.conn.(filter.LeaseAPI)
		if !ok {
			continue
		}
		if best == nil || rep.addr < bestAddr {
			best, bestAddr = la, rep.addr
		}
	}
	return best
}

// Mutate applies one logical mutation (the op list a Session planner
// produced) across the cluster. Ops are split by shard, sequenced, and
// sent to every replica; the call succeeds when every affected shard
// acknowledged on at least one replica. Failed replicas are left to
// SyncReplicas — their conns keep their place in the shard and their
// missed batches sit in the redelivery window.
//
// A multi-shard plan has no cross-shard atomicity: each shard commits
// its slice independently. Every affected shard is attempted even when
// an earlier one fails — a shard whose delivery is merely unknown
// parks its batch for SyncReplicas to flush, so finishing the others
// means one successful sync restores a globally consistent tiling
// instead of leaving several shards behind. A mixed outcome surfaces
// as a PartialMutationError naming the committed and failed shards;
// until the failed ones are repaired the global pre numbering is torn
// across shards, so callers must not re-plan against it (the root
// session surfaces the error instead of retrying). While any batch is
// parked, further mutations are refused with ErrPendingMutation.
func (f *Filter) Mutate(ops []filter.RowOp) error {
	f.mutMu.mu.Lock()
	defer f.mutMu.mu.Unlock()
	for si, sh := range f.shards {
		if sh.pending != nil {
			return f.shardErr(si, fmt.Errorf("%w (batch %d)", ErrPendingMutation, sh.pending.Seq))
		}
	}
	groups, err := f.groupOps(ops)
	if err != nil {
		return err
	}
	var applied, failed []int
	var firstErr error
	for si, sub := range groups {
		if len(sub) == 0 {
			continue
		}
		if err := f.mutateShard(si, sub); err != nil {
			failed = append(failed, si)
			if firstErr == nil {
				firstErr = err
			}
		} else {
			applied = append(applied, si)
		}
	}
	switch {
	case firstErr == nil:
		return nil
	case len(applied) == 0:
		return firstErr
	default:
		return &PartialMutationError{Applied: applied, Failed: failed, Err: firstErr}
	}
}

// groupOps splits ops by owning shard, preserving op order within each
// shard (the planner's shift-ordering is what keeps the primary key
// unique mid-batch, and a subsequence keeps its order).
func (f *Filter) groupOps(ops []filter.RowOp) ([][]filter.RowOp, error) {
	groups := make([][]filter.RowOp, len(f.shards))
	for _, op := range ops {
		var si int
		var err error
		if op.Kind == filter.OpPut {
			si = f.putOwner(op.Pre)
		} else {
			si, err = f.owner(op.Pre)
			if err != nil {
				return nil, err
			}
		}
		groups[si] = append(groups[si], op)
	}
	return groups, nil
}

// putOwner picks the shard a brand-new row at pre lands in: the first
// shard whose range reaches pre, or the last shard when pre extends
// past every range (an append at the end of the document). A put at a
// shard boundary (pre = Hi_k+1 = the next shard's Lo) goes to the next
// shard — its rows shift up by one, opening the slot; both choices
// would re-tile, but every replica must see the same one, so the rule
// is fixed client-side.
func (f *Filter) putOwner(pre int64) int {
	for si := range f.shards {
		if f.shards[si].rangeOf().Hi >= pre {
			return si
		}
	}
	return len(f.shards) - 1
}

// mutateShard sequences and delivers one shard's slice of the plan.
// Outcomes: at least one ack (or a definitive consume) commits the
// sequence into the shard's bookkeeping; a purely-unknown delivery
// (every answering replica failed at the transport) parks the batch
// for SyncReplicas to flush — the digest-verified idempotent ack makes
// redelivering it safe whether or not it actually landed; a definitive
// rejection on every replica (gap, mismatch, unsupported) consumes
// nothing and parks nothing.
func (f *Filter) mutateShard(si int, ops []filter.RowOp) error {
	sh := f.shards[si]
	if !sh.seqOK {
		info, err := f.shardEpoch(si)
		if err != nil {
			return f.shardErr(si, err)
		}
		sh.lastSeq = info.LastSeq
		sh.seqOK = true
	}
	b := filter.MutationBatch{Ver: filter.MutationBatchVersion, Seq: sh.lastSeq + 1, Ops: ops}
	prev := sh.rangeOf()
	var (
		acks     int
		unknown  int // transport failures: delivery unknown
		firstErr error
		consumed bool // a replica definitively consumed the sequence
		ack      filter.MutateReply
	)
	for _, rep := range sh.replicaList() {
		ma, ok := rep.conn.(filter.MutableAPI)
		if !ok {
			if firstErr == nil {
				firstErr = filter.ErrMutationUnsupported
			}
			continue
		}
		reply, err := ma.Mutate(b)
		switch {
		case err == nil:
			acks++
			ack = reply
		case errors.Is(err, filter.ErrMutationUnsupported):
			if firstErr == nil {
				firstErr = err
			}
		case filter.IsSeqGap(err) || filter.IsBatchMismatch(err):
			// This replica's log is elsewhere (it lags, or another writer
			// advanced it — a mismatch means the sequence this batch was
			// planned for went to a different writer's batch). Re-learn
			// before the next attempt.
			sh.seqOK = false
			if firstErr == nil {
				firstErr = err
			}
		case filter.IsWALFailed(err):
			// A definitive refusal, not an unknown delivery: the replica's
			// disk is sick and it rejected the batch BEFORE journaling, so
			// nothing may have landed there. Keep trying the siblings (the
			// error is Retryable for exactly that reason) — one healthy
			// ack commits the batch; the sick replica catches up through
			// SyncReplicas after its operator restarts it.
			if firstErr == nil {
				firstErr = err
			}
		case filter.Retryable(err):
			// Transport: delivery unknown. SyncReplicas resolves it.
			unknown++
			if firstErr == nil {
				firstErr = err
			}
		default:
			// A deterministic reply (e.g. the apply failed): the server
			// journaled the batch and advanced its sequence — every
			// replica and every replay lands in the same state, so the
			// sequence is spent even though the mutation failed.
			consumed = true
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if acks == 0 && !consumed {
		if unknown > 0 && sh.seqOK {
			// Delivery unknown on every answering replica: park the batch.
			// SyncReplicas redelivers it — an exact redelivery is acked
			// idempotently if it did land, applied normally if it did not.
			// (Not parked when a replica definitively rejected the
			// sequence: the batch is known-dead and must be re-planned.)
			sh.pending = &b
		}
		return f.shardErr(si, fmt.Errorf("mutation batch %d: %w", b.Seq, firstErr))
	}
	sh.lastSeq = b.Seq
	sh.backlog = append(sh.backlog, backlogEntry{b: b, prev: prev})
	if len(sh.backlog) > backlogMax {
		sh.backlog = sh.backlog[len(sh.backlog)-backlogMax:]
	}
	if acks == 0 {
		return f.shardErr(si, fmt.Errorf("mutation batch %d: %w", b.Seq, firstErr))
	}
	sh.setRange(Range{Lo: ack.Range.Lo, Hi: ack.Range.Hi})
	f.pinShard(sh, ack.Epoch)
	return nil
}

// pinShard stamps every dialable connection of the shard with the
// epoch. A lagging replica pinned ahead of its data refuses reads with
// a StaleEpochError, which is Retryable — the router fails the frame
// over to an in-sync sibling instead of serving a stale answer.
func (f *Filter) pinShard(sh *shardState, epoch uint64) {
	for _, rep := range sh.replicaList() {
		if es, ok := rep.conn.(epochSetter); ok {
			es.SetEpoch(epoch)
		}
	}
}

// shardEpoch asks the shard's replicas for their mutation state and
// returns the most advanced answer — pinning to a lagging replica's
// epoch would fence reads off the current data. Replicas that are down
// are skipped; a shard where nothing answers fails.
func (f *Filter) shardEpoch(si int) (filter.EpochInfo, error) {
	var (
		best    filter.EpochInfo
		got     bool
		lastErr error
	)
	for _, rep := range f.shards[si].replicaList() {
		ma, ok := rep.conn.(filter.MutableAPI)
		if !ok {
			if lastErr == nil {
				lastErr = filter.ErrMutationUnsupported
			}
			continue
		}
		info, err := ma.Epoch()
		if err != nil {
			if lastErr == nil || errors.Is(lastErr, filter.ErrMutationUnsupported) {
				lastErr = err
			}
			continue
		}
		if !got || info.LastSeq > best.LastSeq {
			best, got = info, true
		}
	}
	if !got {
		return filter.EpochInfo{}, lastErr
	}
	return best, nil
}

// RefreshEpochs re-pins every shard's connections to the shard's
// current epoch and refreshes the routing ranges — what a session calls
// after a StaleEpochError before rerunning its query. Shards served
// only by pre-mutation servers are skipped (nothing to pin).
func (f *Filter) RefreshEpochs() error {
	for si, sh := range f.shards {
		info, err := f.shardEpoch(si)
		if err != nil {
			if errors.Is(err, filter.ErrMutationUnsupported) {
				continue
			}
			return f.shardErr(si, err)
		}
		sh.setRange(Range{Lo: info.Range.Lo, Hi: info.Range.Hi})
		f.pinShard(sh, info.Epoch)
	}
	return nil
}

// SyncReplicas redelivers missed batches from the session's redelivery
// window to every replica that is behind, flushes any parked batch
// whose delivery was unknown, and reports how many replicas remain out
// of sync (down, or lagging past the window). Callers poll it after a
// replica restart until pending hits zero. Replicas are accounted by
// ADDRESS: a restarted process leaves its dead pre-restart connection
// behind (the reconnect seam keeps it in the shard behind its
// breaker), and an address whose fresh connection answers and is
// caught up is in sync regardless of dead siblings.
//
// A parked batch is redelivered exactly as sent: if it landed before
// the outage it is acked idempotently (the server digest-verifies the
// bytes), if not it applies as the next sequence — either way one ack
// commits it into the shard's bookkeeping and repairs the torn tiling
// a PartialMutationError reported. A sequence-gap or batch-mismatch
// rejection means another writer consumed its sequence: the batch is
// dropped as definitively lost and the shard's sequence re-learned.
func (f *Filter) SyncReplicas() (pending int, err error) {
	f.mutMu.mu.Lock()
	defer f.mutMu.mu.Unlock()
	var firstErr error
	for si, sh := range f.shards {
		if !sh.seqOK && sh.pending == nil {
			continue // no writes through this session: nothing to redeliver
		}
		type endpoint struct {
			ma    filter.MutableAPI
			info  filter.EpochInfo
			alive bool
		}
		state := make(map[string]*endpoint)
		var order []string
		for _, rep := range sh.replicaList() {
			ma, ok := rep.conn.(filter.MutableAPI)
			if !ok {
				continue
			}
			ep := state[rep.addr]
			if ep == nil {
				ep = &endpoint{}
				state[rep.addr] = ep
				order = append(order, rep.addr)
			}
			if ep.alive {
				continue
			}
			if info, ierr := ma.Epoch(); ierr == nil {
				*ep = endpoint{ma: ma, info: info, alive: true}
			}
		}
		for _, addr := range order {
			ep := state[addr]
			if !ep.alive {
				pending++ // down: retry on the caller's next poll
				continue
			}
			if ep.info.LastSeq >= sh.lastSeq && sh.pending == nil {
				continue
			}
			if ep.info.LastSeq < sh.lastSeq &&
				(len(sh.backlog) == 0 || sh.backlog[0].b.Seq > ep.info.LastSeq+1) {
				pending++
				if firstErr == nil {
					firstErr = f.shardErr(si, fmt.Errorf(
						"replica %s is at seq %d, beyond the %d-batch redelivery window (re-seed it from a sibling)",
						addr, ep.info.LastSeq, backlogMax))
				}
				continue
			}
			caught := true
			for _, e := range sh.backlog {
				if e.b.Seq <= ep.info.LastSeq {
					continue
				}
				if _, merr := ep.ma.Mutate(e.b); merr != nil {
					pending++
					caught = false
					if firstErr == nil && !filter.Retryable(merr) {
						firstErr = f.shardErr(si, fmt.Errorf("redelivering batch %d to %s: %w", e.b.Seq, addr, merr))
					}
					break
				}
			}
			if caught && sh.pending != nil {
				prev := sh.rangeOf()
				reply, merr := ep.ma.Mutate(*sh.pending)
				switch {
				case merr == nil:
					sh.lastSeq = sh.pending.Seq
					sh.backlog = append(sh.backlog, backlogEntry{b: *sh.pending, prev: prev})
					if len(sh.backlog) > backlogMax {
						sh.backlog = sh.backlog[len(sh.backlog)-backlogMax:]
					}
					sh.pending = nil
					sh.setRange(Range{Lo: reply.Range.Lo, Hi: reply.Range.Hi})
				case filter.IsSeqGap(merr) || filter.IsBatchMismatch(merr):
					// Another writer took the parked batch's sequence: the
					// batch is lost for good, not pending. Drop it and
					// re-learn before the next write.
					sh.pending = nil
					sh.seqOK = false
					caught = false
					if firstErr == nil {
						firstErr = f.shardErr(si, fmt.Errorf("parked batch %d lost to a concurrent writer: %w", sh.lastSeq+1, merr))
					}
				default:
					pending++
					caught = false
					if firstErr == nil && !filter.Retryable(merr) {
						firstErr = f.shardErr(si, fmt.Errorf("flushing parked batch to %s: %w", addr, merr))
					}
				}
			}
			if caught {
				f.pinShard(sh, sh.lastSeq+1)
			}
		}
	}
	return pending, firstErr
}

// AdoptReplica joins conn as a replica of shard si without AddReplica's
// range gate — for a restarted replica the caller knows belongs there
// (its reported range lags until SyncReplicas catches it up) and for
// in-process chaos tests that rebuild a replica's backend around a
// replayed log.
func (f *Filter) AdoptReplica(si int, addr string, conn Conn) error {
	if si < 0 || si >= len(f.shards) {
		return fmt.Errorf("cluster: no shard %d", si)
	}
	if conn == nil {
		return fmt.Errorf("cluster: adopting %s: nil connection", addr)
	}
	if tr := f.tracer.Load(); tr != nil {
		if ct, ok := conn.(connTracer); ok {
			ct.SetTracer(tr, si, addr)
		}
	}
	f.shards[si].addReplica(&replica{addr: addr, conn: conn})
	return nil
}

// EnsureReplica probes the replicas registered at addr and, when none
// answers, dials the address fresh and joins the connection to the
// shard its range (best-overlap for a lagging recoverer) indicates —
// the reconnect seam a writer session uses after a replica process is
// killed and restarted: the dead conn stays behind its breaker, the
// fresh conn takes the traffic, SyncReplicas replays what was missed.
func (f *Filter) EnsureReplica(addr string) (int, error) {
	for si, sh := range f.shards {
		for _, rep := range sh.replicaList() {
			if rep.addr != addr {
				continue
			}
			if ma, ok := rep.conn.(filter.MutableAPI); ok {
				if _, err := ma.Epoch(); err == nil {
					return si, nil // already connected and answering
				}
			}
		}
	}
	return f.AddReplica(addr)
}
