// Writable shares: the server half of the mutation pipeline.
//
// The client plans every insert/update/delete as a flat list of row
// operations (see the Session planner in the root package) — division
// in the ring F_q[x]/(x^(q−1)−1) is impossible (zero divisors), so all
// rewrites arrive as precomputed additive deltas or full replacement
// rows, and the server applies them without learning tags or structure
// beyond what the static table already reveals. A batch is:
//
//   - journaled to the tenant's write-ahead log (internal/wal) before
//     any row changes, so a crash replays it;
//   - applied atomically with respect to readers: the epoch gate's
//     write lock holds off per-frame reads for the duration;
//   - sequenced: batches carry a per-log sequence number, the server
//     rejects gaps and acknowledges duplicates idempotently, which is
//     what lets the cluster layer redeliver batches to a restarted
//     replica without divergence. An idempotent ack is digest-verified:
//     the server keeps a checksum of the last digestWindow applied
//     batches, and a redelivery whose bytes differ from what the
//     sequence actually consumed is rejected with a BatchMismatchError
//     instead of falsely acknowledged — a concurrent writer one
//     sequence behind gets a typed error, not a silently lost update.
//
// Apply is deterministic: replicas that accept the same batch sequence
// hold byte-identical node tables (the store rewrites a row in its own
// slot and dumps heap pages in page order), and a batch that fails mid-way fails at
// the same op on every replica — consistency never depends on a batch
// succeeding, only on everyone applying the same prefix.
package filter

import (
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"sync"
	"sync/atomic"

	"encshare/internal/rmi"
	"encshare/internal/store"
)

// Op kinds of one row operation.
const (
	// OpPut inserts a brand-new row (Pre, Post, Parent, Blob).
	OpPut = uint8(iota + 1)
	// OpPatch rewrites the row at Pre: optionally renumbering it to
	// NewPre, shifting Post by PostDelta, conditionally shifting Parent,
	// and ring-adding Blob (a share delta) onto the stored share.
	OpPatch
	// OpDelete removes the row at Pre.
	OpDelete
)

// RowOp is one wire-level row operation. For OpPatch, Blob — when
// non-empty — is the additive share delta: decoded, ring-added to the
// stored share, re-encoded. Parent is shifted by ParentDelta only when
// the stored parent is ≥ ParentMin (evaluated server-side, so a
// renumbering shift is one op per row instead of a fetch round-trip).
type RowOp struct {
	Kind   uint8
	Pre    int64
	Post   int64 // OpPut: post value
	Parent int64 // OpPut: parent value

	NewPre      int64 // OpPatch: new pre (0 = unchanged)
	PostDelta   int64 // OpPatch: post += PostDelta
	ParentMin   int64 // OpPatch: shift parent only when parent >= ParentMin (0 = never)
	ParentDelta int64 // OpPatch: parent += ParentDelta when the guard holds

	Blob []byte // OpPut: full share; OpPatch: share delta (empty = unchanged)
}

// MutationBatchVersion is the current MutationBatch.Ver value.
const MutationBatchVersion = 1

// MutationBatch is one journaled unit of mutation: the ops of one
// logical insert/update/delete (or several), applied atomically with
// respect to reader frames.
type MutationBatch struct {
	Ver uint8
	// Seq is the batch's position in the tenant's log: the server
	// accepts exactly lastSeq+1, acknowledges ≤ lastSeq idempotently,
	// and rejects anything further ahead as a gap.
	Seq uint64
	Ops []RowOp
}

// MutateReply acknowledges a batch: the server's new epoch and last
// applied sequence, plus the shard's (possibly shifted) pre range.
type MutateReply struct {
	Epoch   uint64
	LastSeq uint64
	Range   PreRange
}

// EpochInfo reports a server's mutation state without changing it —
// what sessions pin at dial time and refresh after a StaleEpochError.
type EpochInfo struct {
	Epoch   uint64
	LastSeq uint64
	Range   PreRange
}

// staleEpochPrefix is the wire-stable start of a StaleEpochError's
// message; IsStaleEpoch matches it across the RMI boundary.
const staleEpochPrefix = "filter: stale epoch"

// StaleEpochError fences a pinned reader off data that mutated under
// it: the frame carried epoch Pinned but the server is at Current. The
// cure is a whole-query retry after re-pinning (sessions do this
// automatically), so the error is Retryable.
type StaleEpochError struct {
	Pinned  uint64
	Current uint64
}

func (e *StaleEpochError) Error() string {
	return fmt.Sprintf("%s: pinned %d, server at %d", staleEpochPrefix, e.Pinned, e.Current)
}

// IsStaleEpoch reports whether err is a stale-epoch fence, locally
// typed or arriving over the wire as a RemoteError.
func IsStaleEpoch(err error) bool {
	var se *StaleEpochError
	if errors.As(err, &se) {
		return true
	}
	var re *rmi.RemoteError
	return errors.As(err, &re) && strings.Contains(re.Msg, staleEpochPrefix)
}

// seqGapPrefix is the wire-stable start of a SeqGapError's message.
const seqGapPrefix = "filter: sequence gap"

// SeqGapError rejects a batch that is not the immediate successor of
// the log: the sender must catch the replica up (redeliver Want..) or
// refresh its own view of LastSeq.
type SeqGapError struct {
	Want uint64
	Got  uint64
}

func (e *SeqGapError) Error() string {
	return fmt.Sprintf("%s: want %d, got %d", seqGapPrefix, e.Want, e.Got)
}

// IsSeqGap reports whether err is a sequence-gap rejection, locally
// typed or over the wire.
func IsSeqGap(err error) bool {
	var ge *SeqGapError
	if errors.As(err, &ge) {
		return true
	}
	var re *rmi.RemoteError
	return errors.As(err, &re) && strings.Contains(re.Msg, seqGapPrefix)
}

// walFailedPrefix is the wire-stable start of a WALFailedError's
// message.
const walFailedPrefix = "filter: wal failed"

// WALFailedError refuses a mutation because the tenant's write-ahead
// log is in the sticky failed state: an fsync (or write) error occurred
// and durability can no longer be promised, so the tenant serves reads
// but refuses writes until an operator restarts it (restart-and-replay
// recovers the synced prefix). The error is Retryable and names the
// tenant — a clustered client fails the batch over to a healthy replica
// and the repair loop redelivers once the sick one is restarted.
type WALFailedError struct {
	Tenant string
	Err    error
}

func (e *WALFailedError) Error() string {
	return fmt.Sprintf("%s: tenant %q is read-only until restart: %v", walFailedPrefix, e.Tenant, e.Err)
}

func (e *WALFailedError) Unwrap() error { return e.Err }

// IsWALFailed reports whether err is a WAL-failure refusal, locally
// typed or over the wire.
func IsWALFailed(err error) bool {
	var we *WALFailedError
	if errors.As(err, &we) {
		return true
	}
	var re *rmi.RemoteError
	return errors.As(err, &re) && strings.Contains(re.Msg, walFailedPrefix)
}

// batchMismatchPrefix is the wire-stable start of a BatchMismatchError's
// message.
const batchMismatchPrefix = "filter: batch mismatch"

// BatchMismatchError rejects a redelivered batch whose bytes differ
// from the batch that actually consumed its sequence number — a
// concurrent writer raced another writer's batch onto the same
// sequence. The rejected batch was never applied; its sender must
// re-plan against the current state, so the error is not Retryable
// (resending the same bytes can never succeed).
type BatchMismatchError struct {
	Seq uint64
}

func (e *BatchMismatchError) Error() string {
	return fmt.Sprintf("%s: sequence %d was consumed by a different batch", batchMismatchPrefix, e.Seq)
}

// IsBatchMismatch reports whether err is a batch-mismatch rejection,
// locally typed or over the wire.
func IsBatchMismatch(err error) bool {
	var be *BatchMismatchError
	if errors.As(err, &be) {
		return true
	}
	var re *rmi.RemoteError
	return errors.As(err, &re) && strings.Contains(re.Msg, batchMismatchPrefix)
}

// ErrMutationUnsupported reports a read-only backend, one that
// registers no mutation methods: the caller sees a typed refusal
// instead of silent data loss.
var ErrMutationUnsupported = errors.New("filter: server does not support mutation frames")

// MutableAPI is the optional interface a writable backend adds on top
// of ServerAPI. RegisterServerAt exposes it as the v6 wire methods.
type MutableAPI interface {
	Mutate(b MutationBatch) (MutateReply, error)
	Epoch() (EpochInfo, error)
}

// GateExempt reports whether an RMI method must bypass the epoch read
// gate: the write path takes its own locks (gating Mutate behind a read
// lock would deadlock against its own apply), and Epoch must answer
// even when the caller's pin is stale — it is how sessions re-pin.
func GateExempt(method string) bool {
	switch method {
	case methodMutate, methodEpoch,
		methodAcquireLease, methodReleaseLease, methodMutateLeased:
		return true
	}
	return false
}

// EncodeBatch serializes a batch to the byte string journaled in the
// WAL (and replayed from it) — the same bytes the batch travels as on
// the wire (see MutationBatch.AppendWire). The encoding is hand-rolled
// because it must be fully deterministic: equal batches must encode to
// equal bytes in every process, since replica WAL files are compared
// byte-for-byte. Layout: Ver byte, Seq uvarint, op count uvarint, then
// per op a Kind byte, the seven numeric fields as zigzag varints, and a
// length-prefixed blob. New fields append behind a Ver bump.
func EncodeBatch(b MutationBatch) ([]byte, error) {
	return b.AppendWire(make([]byte, 0, 16+len(b.Ops)*24)), nil
}

// DecodeBatch reverses EncodeBatch. It is defensive — a corrupted
// record surfaces as an error, never a panic or an oversized
// allocation — because replay feeds it whatever prefix of the log
// passed the CRC check, and the server whatever a peer sent.
func DecodeBatch(data []byte) (MutationBatch, error) {
	var b MutationBatch
	err := decodeWire(data, true, func(r *wireReader) {
		b.Ver, b.Seq = r.byte("header"), r.uvarint("seq")
		// Every op occupies at least 9 bytes: a kind, seven one-byte
		// varints and an empty blob.
		b.Ops = readList(r, "op count", 9, func(op *RowOp, r *wireReader) {
			op.Kind = r.byte("op kind")
			for _, dst := range [...]*int64{&op.Pre, &op.Post, &op.Parent, &op.NewPre, &op.PostDelta, &op.ParentMin, &op.ParentDelta} {
				*dst = r.varint("op field")
			}
			op.Blob = r.bytes("blob")
		})
	})
	if err != nil {
		return MutationBatch{}, fmt.Errorf("filter: decode batch: %w", err)
	}
	return b, nil
}

// Mutable wraps a ServerFilter with the write path: sequencing, WAL
// journaling, and the epoch gate that fences readers. It serves the
// full read API by embedding, so it registers wherever a ServerFilter
// would; reads do not lock here — per-frame atomicity comes from the
// epoch gate held by the RMI dispatch layer (see Mutable.ReadLock),
// and in-process sessions serialize at the session level.
type Mutable struct {
	*ServerFilter

	mu   sync.Mutex   // one writer at a time: seq check + journal + apply
	gate sync.RWMutex // readers (per frame) vs apply

	// lastSeq is atomic, not mu-guarded: ReadLock checks it while
	// holding gate.RLock, and taking mu there would deadlock against a
	// writer holding mu while waiting for gate.Lock. Writers still
	// serialize stores under mu; the store happens before gate.Unlock so
	// an admitted reader never sees a pre-bump epoch with post-apply
	// rows.
	lastSeq atomic.Uint64

	// journal stages an encoded batch before apply; nil = ephemeral
	// (mutations allowed, nothing survives a restart). The returned
	// commit makes the staged bytes durable (fsync) — it runs OUTSIDE mu
	// so the next writer can stage while this fsync is in flight, which
	// is what lets the WAL's commit leader coalesce concurrent batches
	// into one fdatasync. The batch is acked only after commit returns
	// nil.
	journal JournalFunc
	// compact runs after a successful apply, under mu (which is why it
	// is handed lastSeq instead of reading it back through a method that
	// would re-lock); the server runtime uses it for size-triggered log
	// folding. May be nil.
	compact func(lastSeq uint64) error

	// dead, once set, is the sticky WAL failure: every mutation —
	// including idempotent re-acks — is refused with it until the
	// process restarts. First cause wins.
	dead atomic.Pointer[WALFailedError]
	// tenant names this Mutable in WALFailedError messages so a
	// clustered client knows which replica to report sick.
	tenant atomic.Pointer[string]
	// trips counts sticky-failure transitions (0 or 1 per process life,
	// but a counter reads naturally in metrics).
	trips atomic.Uint64

	// hist holds the digests of the last digestWindow consumed batches
	// (mu-guarded, ascending seq): the evidence that lets the
	// idempotent-ack path tell a true redelivery from a different batch
	// colliding with a consumed sequence.
	hist []batchDigest

	// ls is the writer-lease state (see lease.go); mutations through
	// MutateLeased are sequenced by the server under it.
	ls leaseState
}

// JournalFunc stages one encoded batch for durability. The write must
// be staged (ordered, framed) before returning; the returned commit
// blocks until the bytes are covered by a successful fsync. Either
// error moves the owning Mutable into the sticky read-only state.
type JournalFunc func(payload []byte) (commit func() error, err error)

// digestWindow bounds how many consumed batches keep a digest. It must
// exceed the cluster layer's redelivery backlog (64 batches) so every
// batch a coordinator can legally redeliver is still verifiable; a
// batch older than the window (or applied before this process started)
// is acknowledged unverified, as before.
const digestWindow = 128

// batchDigest is the checksum of one consumed batch's canonical
// encoding — the same bytes journaled to the WAL, so replicas record
// identical digests.
type batchDigest struct {
	seq uint64
	sum uint32
}

var _ MutableAPI = (*Mutable)(nil)

// NewMutable makes sf writable. journal and compact may be nil; seed
// lastSeq with the sequence number recovered from the snapshot + log.
func NewMutable(sf *ServerFilter, lastSeq uint64, journal JournalFunc, compact func(lastSeq uint64) error) *Mutable {
	m := &Mutable{ServerFilter: sf, journal: journal, compact: compact}
	m.lastSeq.Store(lastSeq)
	return m
}

// SetTenant names this Mutable in WALFailedError messages. Call before
// serving; safe concurrently regardless.
func (m *Mutable) SetTenant(name string) { m.tenant.Store(&name) }

// failWAL moves the Mutable into the sticky read-only state (first
// cause wins) and returns the refusal to surface.
func (m *Mutable) failWAL(seq uint64, cause error) error {
	name := "default"
	if p := m.tenant.Load(); p != nil {
		name = *p
	}
	we := &WALFailedError{Tenant: name, Err: fmt.Errorf("batch %d: %w", seq, cause)}
	if m.dead.CompareAndSwap(nil, we) {
		m.trips.Add(1)
	}
	return m.dead.Load()
}

// WALFailed returns the sticky WAL failure, or nil while the write
// path is healthy. Reads are unaffected either way.
func (m *Mutable) WALFailed() error {
	if we := m.dead.Load(); we != nil {
		return we
	}
	return nil
}

// WALTrips returns how many times the sticky failure tripped (0 or 1).
func (m *Mutable) WALTrips() uint64 { return m.trips.Load() }

// epochOf maps a log position to the reader-visible epoch: a fresh
// table is epoch 1, every applied batch bumps it by one. Epoch 0 in a
// frame header means "unpinned".
func epochOf(lastSeq uint64) uint64 { return lastSeq + 1 }

// LastSeq returns the sequence number of the last applied batch.
func (m *Mutable) LastSeq() uint64 { return m.lastSeq.Load() }

// Epoch implements MutableAPI.
func (m *Mutable) Epoch() (EpochInfo, error) {
	last := m.lastSeq.Load()
	rng, err := m.PreRange()
	if err != nil {
		return EpochInfo{}, err
	}
	return EpochInfo{Epoch: epochOf(last), LastSeq: last, Range: rng}, nil
}

// ReadLock admits one reader frame pinned at epoch (0 = unpinned): it
// takes the gate's read lock, verifies the pin against the current
// epoch, and returns the release. The lock is held across the whole
// frame, so an apply cannot interleave with it — a pinned frame either
// sees its epoch's data in full or fails the check here.
func (m *Mutable) ReadLock(epoch uint64) (release func(), err error) {
	m.gate.RLock()
	if epoch != 0 {
		if cur := epochOf(m.lastSeq.Load()); epoch != cur {
			m.gate.RUnlock()
			return nil, &StaleEpochError{Pinned: epoch, Current: cur}
		}
	}
	return m.gate.RUnlock, nil
}

// recordDigest remembers the digest of the batch that consumed seq,
// trimming the history to digestWindow. Caller holds m.mu.
func (m *Mutable) recordDigest(seq uint64, sum uint32) {
	m.hist = append(m.hist, batchDigest{seq: seq, sum: sum})
	if n := len(m.hist) - digestWindow; n > 0 {
		m.hist = append(m.hist[:0], m.hist[n:]...)
	}
}

// digestAt returns the recorded digest for seq, if still in the
// window. Caller holds m.mu.
func (m *Mutable) digestAt(seq uint64) (uint32, bool) {
	for i := len(m.hist) - 1; i >= 0; i-- {
		switch {
		case m.hist[i].seq == seq:
			return m.hist[i].sum, true
		case m.hist[i].seq < seq:
			return 0, false
		}
	}
	return 0, false
}

// Mutate implements MutableAPI: sequence-check, journal, apply, bump,
// then fsync before acking. The fsync (the journal's commit) runs after
// mu is released so the next writer stages its batch concurrently and
// the WAL's commit leader coalesces the fdatasyncs — group commit. The
// reply reaches the caller only after the covering fsync returns nil; a
// commit failure trips the sticky read-only state and the batch is NOT
// acked (it is applied in memory, but this process refuses all further
// writes and a restart recovers exactly the durable prefix).
func (m *Mutable) Mutate(b MutationBatch) (MutateReply, error) {
	if b.Ver == 0 || b.Ver > MutationBatchVersion {
		return MutateReply{}, fmt.Errorf("filter: mutation batch version %d unsupported", b.Ver)
	}
	// The canonical encoding feeds both the journal and the digest
	// history; encoding before taking mu keeps the lock hold short.
	payload, err := EncodeBatch(b)
	if err != nil {
		return MutateReply{}, err
	}
	m.mu.Lock()
	reply, commit, err := m.mutateLocked(b, payload)
	m.mu.Unlock()
	// Run the commit even when apply reported an error: the sequence
	// advanced, so the journaled bytes must become durable (or trip the
	// sticky failure) either way.
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

// mutateLocked is the under-mu body of Mutate: sequence-check, journal
// staging, apply, bump, reply assembly. It returns the commit (fsync)
// closure for the caller to run after releasing mu. Caller holds m.mu.
func (m *Mutable) mutateLocked(b MutationBatch, payload []byte) (MutateReply, func() error, error) {
	// A sick WAL refuses everything, idempotent re-acks included: an
	// applied-but-unsynced batch must never be confirmed.
	if we := m.dead.Load(); we != nil {
		return MutateReply{}, nil, we
	}
	sum := crc32.ChecksumIEEE(payload)
	last := m.lastSeq.Load()
	ack := func() (MutateReply, error) {
		rng, err := m.PreRange()
		if err != nil {
			return MutateReply{}, err
		}
		cur := m.lastSeq.Load()
		return MutateReply{Epoch: epochOf(cur), LastSeq: cur, Range: rng}, nil
	}
	if b.Seq <= last {
		// Redelivery of a consumed sequence: acknowledge idempotently —
		// but only if these are the bytes that consumed it (a replica
		// catch-up overshooting, or a writer retry after a lost ack). A
		// digest mismatch means a DIFFERENT batch took this sequence (a
		// concurrent writer raced this one); acking it would report a
		// never-applied batch as committed.
		if want, ok := m.digestAt(b.Seq); ok && want != sum {
			return MutateReply{}, nil, &BatchMismatchError{Seq: b.Seq}
		}
		reply, err := ack()
		return reply, nil, err
	}
	if b.Seq != last+1 {
		return MutateReply{}, nil, &SeqGapError{Want: last + 1, Got: b.Seq}
	}
	var commit func() error
	if m.journal != nil {
		c, err := m.journal(payload)
		if err != nil {
			// A staging failure is sticky too: the WAL refuses further
			// writes anyway (a hole below later records would let an
			// acked record vanish at recovery).
			return MutateReply{}, nil, m.failWAL(b.Seq, err)
		}
		commit = c
	}
	m.gate.Lock()
	applyErr := m.ServerFilter.ApplyOps(b.Ops)
	// The batch is journaled and its deterministic prefix applied: the
	// sequence advances even on error, because every replica (and every
	// replay) fails at the same op and holds the same state. The bump
	// happens before the gate opens so a reader admitted next sees the
	// new epoch with the new rows, never one without the other.
	m.lastSeq.Store(b.Seq)
	m.gate.Unlock()
	m.recordDigest(b.Seq, sum)
	if applyErr != nil {
		return MutateReply{}, commit, fmt.Errorf("filter: apply batch %d: %w", b.Seq, applyErr)
	}
	if m.compact != nil {
		// Compaction may fold this very batch into the base snapshot and
		// truncate the log; the pending commit then observes the WAL's
		// truncation generation moved and reports durable — sound,
		// because the snapshot is fsynced before the truncate.
		if err := m.compact(b.Seq); err != nil {
			return MutateReply{}, commit, fmt.Errorf("filter: compact after batch %d: %w", b.Seq, err)
		}
	}
	reply, err := ack()
	return reply, commit, err
}

// Replay applies a batch recovered from the log without re-journaling
// it — the attach-time recovery path. Batches at or below lastSeq are
// skipped (they are folded into the snapshot already). Replayed batches
// seed the digest history, so a restarted server verifies redeliveries
// of pre-crash batches too (the codec is a canonical fixed point:
// re-encoding a decoded batch reproduces the journaled bytes).
func (m *Mutable) Replay(b MutationBatch) error {
	payload, perr := EncodeBatch(b)
	if perr != nil {
		return perr
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	last := m.lastSeq.Load()
	if b.Seq <= last {
		return nil
	}
	if b.Seq != last+1 {
		return &SeqGapError{Want: last + 1, Got: b.Seq}
	}
	m.gate.Lock()
	err := m.ServerFilter.ApplyOps(b.Ops)
	m.lastSeq.Store(b.Seq)
	m.gate.Unlock()
	m.recordDigest(b.Seq, crc32.ChecksumIEEE(payload))
	return err
}

// Compact runs fn with writers excluded and the current last sequence:
// the hook a manual compaction (snapshot + log truncate) uses to dump a
// store no batch is concurrently rewriting. Reader frames are not held
// off — they only read, and no writer can interleave.
func (m *Mutable) Compact(fn func(lastSeq uint64) error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	// A sick WAL must not be compacted: the snapshot would capture
	// in-memory state that was applied but never made durable, silently
	// promoting lost writes at the next restart.
	if we := m.dead.Load(); we != nil {
		return we
	}
	return fn(m.lastSeq.Load())
}

// ApplyOps applies row operations in order. Determinism contract: the
// only sources of outcome are the op list and the current table; any
// error leaves exactly the ops before the failing one applied. The
// decoded-polynomial cache is invalidated wholesale afterwards — a
// renumbering batch touches most keys anyway, and correctness must
// never depend on selective invalidation.
func (sf *ServerFilter) ApplyOps(ops []RowOp) error {
	defer sf.purgeCache()
	for i, op := range ops {
		var err error
		switch op.Kind {
		case OpPut:
			err = sf.st.InsertNode(store.NodeRow{Pre: op.Pre, Post: op.Post, Parent: op.Parent, Poly: op.Blob})
		case OpPatch:
			err = sf.applyPatch(op)
		case OpDelete:
			err = sf.st.DeleteNode(op.Pre)
		default:
			err = fmt.Errorf("unknown op kind %d", op.Kind)
		}
		if err != nil {
			return fmt.Errorf("op %d (kind %d, pre %d): %w", i, op.Kind, op.Pre, err)
		}
	}
	return nil
}

func (sf *ServerFilter) applyPatch(op RowOp) error {
	row, err := sf.st.Node(op.Pre)
	if err != nil {
		return err
	}
	if len(op.Blob) > 0 {
		cur := sf.r.GetPoly()
		delta := sf.r.GetPoly()
		defer sf.r.PutPoly(cur)
		defer sf.r.PutPoly(delta)
		if err := sf.r.DecodeInto(cur, row.Poly); err != nil {
			return fmt.Errorf("stored share: %w", err)
		}
		if err := sf.r.DecodeInto(delta, op.Blob); err != nil {
			return fmt.Errorf("share delta: %w", err)
		}
		sf.r.AddInPlace(cur, delta)
		row.Poly = sf.r.AppendBytes(make([]byte, 0, sf.r.PolyBytes()), cur)
	} else {
		// The blob cells alias the stored row; copy before UpdateNode
		// rewrites the slot.
		row.Poly = append([]byte(nil), row.Poly...)
	}
	newPre := op.Pre
	if op.NewPre != 0 {
		newPre = op.NewPre
	}
	parent := row.Parent
	if op.ParentMin > 0 && parent >= op.ParentMin {
		parent += op.ParentDelta
	}
	return sf.st.UpdateNode(op.Pre, store.NodeRow{
		Pre:    newPre,
		Post:   row.Post + op.PostDelta,
		Parent: parent,
		Poly:   row.Poly,
	})
}

// purgeCache drops every decoded polynomial after a mutation; mutations
// are rare next to reads.
func (sf *ServerFilter) purgeCache() {
	if sf.cache != nil {
		sf.cache.purge()
	}
}
