package cluster

import (
	"errors"
	"fmt"
)

// ErrPendingMutation refuses a new mutation while an earlier batch is
// parked with unknown delivery (every replica of its shard was
// unreachable when it was sent). Accepting more writes would stack
// unacknowledged sequences; the caller repairs first — SyncReplicas
// (or the session's Resync) either delivers the parked batch or
// discovers it definitively lost.
var ErrPendingMutation = errors.New("cluster: a mutation batch is pending delivery; sync replicas before writing again")

// PartialMutationError reports a multi-shard mutation that committed on
// some shards but not all of them: the global pre numbering is torn
// across shards until the failed shards are repaired (SyncReplicas
// delivers parked batches) or the losing writer's view is refreshed.
// Callers must NOT re-plan against the torn state — plan reads span
// shards and would see an inconsistent document.
type PartialMutationError struct {
	Applied []int // shard indices whose slice of the plan committed
	Failed  []int // shard indices whose slice did not
	Err     error // the first per-shard failure
}

func (e *PartialMutationError) Error() string {
	return fmt.Sprintf("cluster: mutation committed on shards %v but not %v: %v", e.Applied, e.Failed, e.Err)
}

func (e *PartialMutationError) Unwrap() error { return e.Err }

// IsPartialMutation reports whether err is (or wraps) a torn
// multi-shard commit.
func IsPartialMutation(err error) bool {
	var pe *PartialMutationError
	return errors.As(err, &pe)
}

// ShardError wraps a failure of one shard with its identity, so an
// unreachable or misbehaving member of the cluster is named instead of
// surfacing as a raw transport or decode error.
type ShardError struct {
	Shard int    // index in manifest order
	Addr  string // dial address or local label
	Err   error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("cluster: shard %d (%s): %v", e.Shard, e.Addr, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// RangeError reports a pre that no shard's manifest range covers — a
// stale manifest or a query against the wrong cluster.
type RangeError struct {
	Pre    int64
	Lo, Hi int64 // the interval the manifest does cover
}

func (e *RangeError) Error() string {
	return fmt.Sprintf("cluster: no shard covers pre %d (manifest covers [%d, %d])", e.Pre, e.Lo, e.Hi)
}
