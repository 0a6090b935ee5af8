// Writer leases: server-side sequencing for concurrent mutation
// sessions.
//
// PR 8's optimistic concurrency makes each writer guess the next batch
// sequence; two concurrent sessions collide with SeqGapError /
// BatchMismatchError and one replans per batch — correct, but pure
// contention. The lease protocol moves sequencing to the server: a
// writer acquires a short-TTL lease before planning, submits batches
// with Seq 0 (the server assigns lastSeq+1 under its own lock), and the
// lease fences stale planners — the lease ID bumps on every transfer to
// a different owner, so a writer that lost the lease gets a typed
// LeaseExpiredError instead of applying a plan computed against a table
// another writer has since rewritten.
//
// The lease does NOT serialize durability: MutateLeased releases the
// lease (when the batch asks) as soon as the batch is applied, before
// its covering fsync completes, so the next writer plans and stages
// while the previous batch's fdatasync is in flight and group commit
// still coalesces. It is also not required: servers keep accepting
// plain Mutate with explicit sequences (the cluster redelivery path
// depends on it), with the digest window as the correctness backstop.
package filter

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"encshare/internal/rmi"
)

// Lease TTL bounds: requests clamp into [default, max]. Short TTLs keep
// a crashed writer from blocking others for long; the cap keeps a
// stuck client from parking the write path.
const (
	DefaultLeaseTTL = 2 * time.Second
	MaxLeaseTTL     = 30 * time.Second
)

// LeaseRequest asks for the tenant's writer lease.
type LeaseRequest struct {
	// Owner identifies the requesting session (a random ID). Re-acquire
	// by the same owner extends the lease without bumping the lease ID.
	Owner string
	// TTLMillis is the requested validity window; 0 = DefaultLeaseTTL.
	TTLMillis int64
}

// LeaseGrant is a successful acquisition: the fencing ID to present
// with MutateLeased, plus the server's current write position so the
// session re-pins without an extra Epoch round-trip.
type LeaseGrant struct {
	ID        uint64
	TTLMillis int64
	LastSeq   uint64
	Epoch     uint64
	Range     PreRange
}

// LeasedBatch is a mutation under a lease. Seq 0 asks the server to
// assign the next sequence; Release hands the lease back as soon as the
// batch is applied (before its fsync completes), letting the next
// writer overlap with this batch's durability wait.
type LeasedBatch struct {
	LeaseID uint64
	Release bool
	B       MutationBatch
}

// LeaseAPI is the optional interface for server-sequenced multi-writer
// mutation. RegisterServerAt exposes it as the v7 wire methods.
type LeaseAPI interface {
	AcquireLease(req LeaseRequest) (LeaseGrant, error)
	ReleaseLease(id uint64) error
	MutateLeased(lb LeasedBatch) (MutateReply, error)
}

// ErrLeaseUnsupported reports a cluster whose shard connections lack the
// lease methods (a Remote always has them). Sessions fall back to
// optimistic client-side sequencing.
var ErrLeaseUnsupported = errors.New("filter: server does not support writer leases")

// leaseHeldPrefix is the wire-stable start of a LeaseHeldError message.
const leaseHeldPrefix = "filter: lease held"

// LeaseHeldError refuses an acquisition because another writer holds a
// live lease. RetryAfterMillis is the remaining TTL — the longest the
// caller could need to wait.
type LeaseHeldError struct {
	Holder           string
	RetryAfterMillis int64
}

func (e *LeaseHeldError) Error() string {
	return fmt.Sprintf("%s: by %q for another %dms", leaseHeldPrefix, e.Holder, e.RetryAfterMillis)
}

// IsLeaseHeld reports whether err is a lease-held refusal, locally
// typed or over the wire.
func IsLeaseHeld(err error) bool {
	var le *LeaseHeldError
	if errors.As(err, &le) {
		return true
	}
	var re *rmi.RemoteError
	return errors.As(err, &re) && strings.Contains(re.Msg, leaseHeldPrefix)
}

// leaseExpiredPrefix is the wire-stable start of a LeaseExpiredError
// message.
const leaseExpiredPrefix = "filter: lease expired"

// LeaseExpiredError fences a MutateLeased whose lease is no longer
// live: the TTL lapsed, or another writer took the lease (the ID
// bumped). The batch was NOT applied; the cure is re-acquire + re-plan.
type LeaseExpiredError struct {
	ID uint64
}

func (e *LeaseExpiredError) Error() string {
	return fmt.Sprintf("%s: lease %d is no longer live", leaseExpiredPrefix, e.ID)
}

// IsLeaseExpired reports whether err is a lease-expiry fence, locally
// typed or over the wire.
func IsLeaseExpired(err error) bool {
	var le *LeaseExpiredError
	if errors.As(err, &le) {
		return true
	}
	var re *rmi.RemoteError
	return errors.As(err, &re) && strings.Contains(re.Msg, leaseExpiredPrefix)
}

// LeaseStats is a point-in-time view of the lease counters.
type LeaseStats struct {
	Acquires    uint64 // grants handed out (extensions included)
	Expirations uint64 // expired leases fenced or taken over
	ID          uint64 // current fencing ID (bumps on owner transfer)
	Held        bool
	Holder      string
}

// leaseState is the per-Mutable writer-lease bookkeeping. It has its
// own lock (below m.mu in the order; AcquireLease never takes m.mu, so
// acquisitions do not stall behind a long apply).
type leaseState struct {
	mu     sync.Mutex
	id     uint64
	owner  string // current holder; "" = unheld
	holder string // last granted owner — ID stays stable across one
	// owner's release/re-acquire cycles, bumping only on true transfer
	expires int64 // mono nanos; lazy expiry
	now     func() int64

	acquires    uint64
	expirations uint64
}

func (ls *leaseState) clock() int64 {
	if ls.now != nil {
		return ls.now()
	}
	return int64(time.Since(leaseEpoch))
}

// leaseEpoch anchors the default monotonic clock.
var leaseEpoch = time.Now()

// SetLeaseClock replaces the lease clock (monotonic nanoseconds) — a
// test hook for deterministic expiry.
func (m *Mutable) SetLeaseClock(now func() int64) {
	m.ls.mu.Lock()
	m.ls.now = now
	m.ls.mu.Unlock()
}

// AcquireLease implements LeaseAPI. Semantics:
//
//   - unheld (or held by the requester): granted; same-owner re-acquire
//     extends the TTL and keeps the lease ID, so an uninterrupted
//     writer's cached state stays valid across batches;
//   - held by another live owner: LeaseHeldError with the remaining
//     TTL;
//   - held by another EXPIRED owner: granted, the lease ID bumps (the
//     transfer fences the previous holder's in-flight plans), and the
//     expiration counter ticks.
func (m *Mutable) AcquireLease(req LeaseRequest) (LeaseGrant, error) {
	if req.Owner == "" {
		return LeaseGrant{}, fmt.Errorf("filter: lease request without owner")
	}
	ttl := time.Duration(req.TTLMillis) * time.Millisecond
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	if ttl > MaxLeaseTTL {
		ttl = MaxLeaseTTL
	}
	ls := &m.ls
	ls.mu.Lock()
	now := ls.clock()
	if ls.owner != "" && ls.owner != req.Owner {
		if now < ls.expires {
			held := &LeaseHeldError{Holder: ls.owner, RetryAfterMillis: (ls.expires - now) / int64(time.Millisecond)}
			ls.mu.Unlock()
			return LeaseGrant{}, held
		}
		ls.expirations++
	}
	if req.Owner != ls.holder {
		ls.id++
	}
	ls.owner, ls.holder = req.Owner, req.Owner
	ls.expires = now + int64(ttl)
	ls.acquires++
	id := ls.id
	ls.mu.Unlock()

	// Position the grant so the session re-pins without extra frames.
	info, err := m.Epoch()
	if err != nil {
		return LeaseGrant{}, err
	}
	return LeaseGrant{
		ID:        id,
		TTLMillis: int64(ttl / time.Millisecond),
		LastSeq:   info.LastSeq,
		Epoch:     info.Epoch,
		Range:     info.Range,
	}, nil
}

// ReleaseLease implements LeaseAPI: hands the lease back if id is the
// live lease. Releasing an already-transferred or unknown id is a
// no-op, not an error — the release raced a takeover, which is fine.
func (m *Mutable) ReleaseLease(id uint64) error {
	ls := &m.ls
	ls.mu.Lock()
	if ls.id == id {
		ls.owner = ""
	}
	ls.mu.Unlock()
	return nil
}

// checkLease fences lb against the live lease. Caller holds m.mu.
func (ls *leaseState) check(id uint64) error {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if id == 0 || id != ls.id {
		return &LeaseExpiredError{ID: id}
	}
	if ls.clock() >= ls.expires {
		ls.expirations++
		return &LeaseExpiredError{ID: id}
	}
	return nil
}

// releaseAtApply hands the lease back after a leased batch applied.
// Caller holds m.mu.
func (ls *leaseState) releaseAtApply(id uint64) {
	ls.mu.Lock()
	if ls.id == id {
		ls.owner = ""
	}
	ls.mu.Unlock()
}

// LeaseStatsNow returns the lease counters.
func (m *Mutable) LeaseStatsNow() LeaseStats {
	ls := &m.ls
	ls.mu.Lock()
	defer ls.mu.Unlock()
	held := ls.owner != "" && ls.clock() < ls.expires
	return LeaseStats{
		Acquires:    ls.acquires,
		Expirations: ls.expirations,
		ID:          ls.id,
		Held:        held,
		Holder:      ls.owner,
	}
}

// MutateLeased implements LeaseAPI: fence against the lease, assign the
// next sequence when the batch carries Seq 0, then run the standard
// journal/apply/fsync pipeline. The expiry check and the sequence
// assignment happen under the same lock that orders applies, so a
// fenced-out writer can never slip a stale plan between another
// writer's batches.
func (m *Mutable) MutateLeased(lb LeasedBatch) (MutateReply, error) {
	b := lb.B
	if b.Ver == 0 || b.Ver > MutationBatchVersion {
		return MutateReply{}, fmt.Errorf("filter: mutation batch version %d unsupported", b.Ver)
	}
	m.mu.Lock()
	if err := m.ls.check(lb.LeaseID); err != nil {
		m.mu.Unlock()
		return MutateReply{}, err
	}
	if b.Seq == 0 {
		b.Seq = m.lastSeq.Load() + 1
	}
	payload, err := EncodeBatch(b)
	if err != nil {
		m.mu.Unlock()
		return MutateReply{}, err
	}
	reply, commit, err := m.mutateLocked(b, payload)
	if lb.Release && err == nil {
		// Applied: the next writer can acquire, plan, and stage while
		// this batch's fsync is in flight — its commit will coalesce
		// with ours under the WAL's commit leader.
		m.ls.releaseAtApply(lb.LeaseID)
	}
	m.mu.Unlock()
	if commit != nil {
		if cerr := commit(); cerr != nil {
			werr := m.failWAL(b.Seq, cerr)
			if err == nil {
				err = werr
			}
		}
	}
	if err != nil {
		return MutateReply{}, err
	}
	return reply, nil
}

var _ LeaseAPI = (*Mutable)(nil)
