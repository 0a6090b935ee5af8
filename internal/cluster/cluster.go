// Package cluster shards the encrypted node table over N servers and
// presents them to the engines as one filter.ServerAPI.
//
// The paper's protocol assumes a single untrusted server holding the
// whole (pre, post, parent, poly) share table. Because every share row
// is independently uniformly random, the table can be cut along the pre
// axis into contiguous slices and each slice handed to a different
// server without changing what any one server learns: a shard sees a
// strict subset of the rows, point queries, and batch frames the single
// server would have seen, and the secrets (seed, tag map) still never
// leave the client. See DESIGN.md for the full trust argument.
//
// Routing exploits the Grust numbering the store already relies on:
//
//   - point operations (Node, EvalAt, Poly) go to the one shard whose
//     range contains the pre;
//   - descendants of (pre, post) occupy the contiguous pre interval
//     (pre, pre+size], so the span scatters to every shard whose range
//     ends past pre, each shard range-scans its slice independently, and
//     concatenating replies in shard order is already document order;
//   - children of pre live inside that same interval, so child fetches
//     broadcast the same way; and the strict equality test's
//     node+children bundles use filter.PartialAPI, where every relevant
//     shard returns the fragment it stores and the client merges.
//
// Every batch frame of one engine step is scattered as at most ONE
// concurrent rmi frame per shard, gathered, and re-ordered to preserve
// batch member order — so the whole batched pipeline of PR 1 runs
// unchanged against a cluster, and a step costs at most one exchange
// per shard instead of one exchange total.
//
// # Replicas and failover
//
// A shard may be served by several replicas. Replicas are byte-identical
// copies of the same share slice (the rows are immutable once encoded,
// so there is no consistency protocol — any replica answers any read
// identically). Each per-shard frame is routed to one healthy replica,
// chosen round-robin to spread load; a transport failure or a
// protocol-violating reply (filter.Retryable) fails the frame over to
// the next replica and trips the failed connection's circuit breaker,
// so a dead replica is skipped until its cooldown expires. With
// Options.Hedge, a frame that outlives the shard's recent latency
// percentile is duplicated on a second replica and the first reply
// wins — safe for the same immutability reason.
package cluster

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"encshare/internal/filter"
	"encshare/internal/gf"
	"encshare/internal/obs"
	"encshare/internal/store"
)

// Range is a contiguous, inclusive pre interval owned by one shard.
type Range struct {
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
}

func (r Range) contains(pre int64) bool { return pre >= r.Lo && pre <= r.Hi }

// Conn is what the cluster needs from each shard replica: the filter
// protocol (per-call, batch, stats and aggregate fold frames) and the
// shard-partial equality bundles. Both *filter.Remote (TCP shards) and
// *filter.ServerFilter (in-process shards) satisfy it.
type Conn interface {
	filter.ServerAPI
	filter.PartialAPI
}

// Replica couples one replica connection with its address label.
type Replica struct {
	Addr string
	Conn Conn
}

// Shard couples a replica set with the pre range it owns. The
// single-replica shorthand (Addr + Conn, as PR 2 deployments built)
// remains valid: when Replicas is empty, {Addr, Conn} is the one
// replica.
type Shard struct {
	Addr     string // diagnostic label (host:port, or a name for local shards)
	Range    Range
	Conn     Conn // single-replica shorthand; ignored when Replicas is set
	Replicas []Replica
}

// replicas returns the shard's normalized replica list.
func (s Shard) replicas() []Replica {
	if len(s.Replicas) > 0 {
		return s.Replicas
	}
	if s.Conn == nil {
		return nil
	}
	return []Replica{{Addr: s.Addr, Conn: s.Conn}}
}

// Options tunes the replica routing of a cluster filter.
type Options struct {
	// Hedge enables hedged reads: a per-shard frame still unanswered
	// after the hedge delay is duplicated on a second replica, first
	// reply wins. Replicas hold identical immutable rows, so duplicated
	// reads are always consistent.
	Hedge bool
	// HedgeAfter fixes the hedge trigger delay. Zero means adaptive: the
	// 90th percentile of the shard's recent call latencies, once enough
	// samples exist.
	HedgeAfter time.Duration
	// TolerateUnreachable lets DialWith succeed while some listed
	// servers are down, as long as the reachable ones still tile the pre
	// axis — so sessions can start during a replica outage. The default
	// (strict) dial fails on the first unreachable address, which is the
	// right behavior for catching typos.
	TolerateUnreachable bool
	// Tenant names the tenant every dialed connection is issued
	// against — how one cluster of multi-tenant servers presents a
	// different shard table per tenant. Empty routes to each server's
	// default tenant (the pre-tenant behavior). Non-empty tenants are
	// verified at dial time: a server that predates the tenant
	// protocol fails the dial instead of silently answering from its
	// default table.
	Tenant string
}

// replica is the runtime state of one shard replica connection.
type replica struct {
	addr string
	conn Conn
	brk  breaker
}

// Op classes for latency sampling. Point lookups (a row fetch, one
// evaluation) and batch frames (a whole engine step's work) live on
// latency scales orders of magnitude apart; hedging batches against a
// point-op percentile would duplicate every expensive frame, so each
// class keeps its own window.
const (
	opPoint = iota
	opBatch
	opClasses
)

// shardState is the runtime state of one shard: its replica set plus the
// round-robin cursor and per-op-class latency windows the router uses.
// The replica set is mutable — AddReplica grows it on a live session —
// so readers take a snapshot through replicaList and index only into
// that snapshot.
type shardState struct {
	label string // first replica's address, for error messages
	rngMu sync.RWMutex
	rng   Range // guarded by rngMu: renumbering mutations shift it live
	repMu sync.RWMutex
	reps  []*replica
	rr    atomic.Uint32
	lat   [opClasses]latWindow

	// Writer-session mutation state, guarded by the Filter's mutMu: the
	// shard's log position as this session knows it, the bounded
	// redelivery window SyncReplicas serves lagging replicas from, and
	// at most one parked batch whose delivery is unknown (sent while
	// every replica was unreachable; flushed by SyncReplicas).
	lastSeq uint64
	seqOK   bool
	backlog []backlogEntry
	pending *filter.MutationBatch
}

// backlogEntry is one committed batch in the redelivery window plus the
// shard's pre range BEFORE it applied — the log-position evidence that
// lets a recovering replica be adopted into the right shard (see
// rangeAt / Filter.shardAtLogPos).
type backlogEntry struct {
	b    filter.MutationBatch
	prev Range
}

// rangeAt returns the shard's pre range as of log position seq (the
// range after batch seq applied; seq 0 = before any batch this session
// recorded), reconstructed from the backlog's pre-batch ranges.
// ok=false when seq falls outside the retained window or ahead of the
// log. Caller holds the Filter's mutMu.
func (sh *shardState) rangeAt(seq uint64) (Range, bool) {
	if seq == sh.lastSeq {
		return sh.rangeOf(), true
	}
	if seq > sh.lastSeq {
		return Range{}, false
	}
	for i := len(sh.backlog) - 1; i >= 0; i-- {
		if sh.backlog[i].b.Seq == seq+1 {
			return sh.backlog[i].prev, true
		}
	}
	return Range{}, false
}

// rangeOf snapshots the shard's current pre range.
func (sh *shardState) rangeOf() Range {
	sh.rngMu.RLock()
	defer sh.rngMu.RUnlock()
	return sh.rng
}

func (sh *shardState) setRange(r Range) {
	sh.rngMu.Lock()
	sh.rng = r
	sh.rngMu.Unlock()
}

// replicaList snapshots the current replica set. The slice is
// append-only: a concurrent addReplica may publish a longer list, but
// never mutates the elements a snapshot holds.
func (sh *shardState) replicaList() []*replica {
	sh.repMu.RLock()
	defer sh.repMu.RUnlock()
	return sh.reps
}

func (sh *shardState) addReplica(r *replica) {
	sh.repMu.Lock()
	sh.reps = append(sh.reps, r)
	sh.repMu.Unlock()
}

// replicaOrder returns indices into reps in dispatch-preference order:
// round-robin rotated for load spread, connections with open circuit
// breakers pushed last (still tried when every healthy replica fails —
// a degraded replica beats no answer).
func (sh *shardState) replicaOrder(reps []*replica) []int {
	n := len(reps)
	if n == 1 {
		return []int{0}
	}
	start := int(sh.rr.Add(1)-1) % n
	order := make([]int, 0, n)
	var open []int
	for i := 0; i < n; i++ {
		ri := (start + i) % n
		if reps[ri].brk.allow() {
			order = append(order, ri)
		} else {
			open = append(open, ri)
		}
	}
	return append(order, open...)
}

// Filter is the client-side sharded backend: a filter.ServerAPI that
// scatters work over shards and gathers replies in request order,
// failing over between replicas per shard. A filter.Client (and
// therefore every engine) runs against it unchanged.
type Filter struct {
	shards []*shardState // sorted by rng.Lo; ranges tile [lo, hi] with no gaps
	opts   Options
	mutMu  mutState // serializes this session's Mutate/SyncReplicas calls

	closerMu sync.Mutex
	closers  []io.Closer

	failovers atomic.Int64
	hedges    atomic.Int64

	// tracer, when attached, gets failover/hedge events and is pushed
	// down to every replica proxy (including ones joined later).
	tracer atomic.Pointer[obs.Tracer]
}

// connTracer is the tracing hook a replica connection may expose
// (*filter.Remote does; in-process conns don't record frames).
type connTracer interface {
	SetTracer(tr *obs.Tracer, shard int, addr string)
}

var _ filter.ServerAPI = (*Filter)(nil)

// New assembles a cluster filter from shards with default options. The
// shard ranges must tile a contiguous pre interval: copies may arrive in
// any order, but after sorting there must be no gap and no overlap.
func New(shards []Shard) (*Filter, error) { return NewWith(shards, Options{}) }

// NewWith is New with explicit replica-routing options.
func NewWith(shards []Shard, opts Options) (*Filter, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: no shards")
	}
	s := append([]Shard(nil), shards...)
	sort.Slice(s, func(i, j int) bool { return s[i].Range.Lo < s[j].Range.Lo })
	states := make([]*shardState, len(s))
	for i, sh := range s {
		reps := sh.replicas()
		if len(reps) == 0 {
			return nil, fmt.Errorf("cluster: shard %d (%s) has no connection", i, sh.Addr)
		}
		if sh.Range.Lo > sh.Range.Hi {
			return nil, fmt.Errorf("cluster: shard %d (%s) has empty range [%d, %d]", i, sh.Addr, sh.Range.Lo, sh.Range.Hi)
		}
		if i > 0 && sh.Range.Lo != s[i-1].Range.Hi+1 {
			return nil, fmt.Errorf("cluster: shard ranges do not tile: [..., %d] then [%d, ...]",
				s[i-1].Range.Hi, sh.Range.Lo)
		}
		st := &shardState{rng: sh.Range}
		for ri, rep := range reps {
			if rep.Conn == nil {
				return nil, fmt.Errorf("cluster: shard %d replica %d (%s) has no connection", i, ri, rep.Addr)
			}
			st.reps = append(st.reps, &replica{addr: rep.Addr, conn: rep.Conn})
		}
		st.label = st.reps[0].addr
		states[i] = st
	}
	return &Filter{shards: states, opts: opts}, nil
}

// Shards returns the shard count.
func (f *Filter) Shards() int { return len(f.shards) }

// Replicas returns the per-shard replica counts, in shard order.
func (f *Filter) Replicas() []int {
	out := make([]int, len(f.shards))
	for i, sh := range f.shards {
		out[i] = len(sh.replicaList())
	}
	return out
}

// Failovers returns how many per-shard frames were retried on another
// replica after a retryable failure.
func (f *Filter) Failovers() int64 { return f.failovers.Load() }

// Hedges returns how many hedge frames were fired at a second replica.
func (f *Filter) Hedges() int64 { return f.hedges.Load() }

// SetTracer attaches (nil detaches) a query tracer: every replica proxy
// records its frames under the owning shard's index and address, and
// the router emits failover/hedge events. Replicas joined later via
// AddReplica inherit the tracer.
func (f *Filter) SetTracer(tr *obs.Tracer) {
	f.tracer.Store(tr)
	for si, sh := range f.shards {
		for _, rep := range sh.replicaList() {
			if ct, ok := rep.conn.(connTracer); ok {
				ct.SetTracer(tr, si, rep.addr)
			}
		}
	}
}

// RegisterMetrics registers the cluster's routing health into reg:
// failover/hedge totals as func-backed counters, and per-replica
// breaker state plus per-shard replica counts as a scrape-time
// collector (the replica set is live-mutable, so enumeration happens at
// scrape).
func (f *Filter) RegisterMetrics(reg *obs.Registry) {
	reg.CounterFunc("cluster_failovers_total", "frames retried on another replica", nil, f.failovers.Load)
	reg.CounterFunc("cluster_hedges_total", "hedge frames fired", nil, f.hedges.Load)
	reg.Collect(func(emit func(obs.Sample)) {
		for si, sh := range f.shards {
			reps := sh.replicaList()
			emit(obs.Sample{
				Name: "cluster_replicas", Help: "replicas serving the shard", Type: obs.TypeGauge,
				Labels: obs.Labels{"shard": fmt.Sprint(si)}, Value: float64(len(reps)),
			})
			for _, rep := range reps {
				streak, open := rep.brk.state()
				lbl := obs.Labels{"shard": fmt.Sprint(si), "addr": rep.addr}
				var openVal float64
				if open {
					openVal = 1
				}
				emit(obs.Sample{Name: "cluster_breaker_open", Help: "1 while the replica's circuit breaker is open", Type: obs.TypeGauge, Labels: lbl, Value: openVal})
				emit(obs.Sample{Name: "cluster_breaker_streak", Help: "consecutive retryable failures on the replica", Type: obs.TypeGauge, Labels: lbl, Value: float64(streak)})
			}
		}
	})
}

// Close closes whatever closers the filter owns (the rmi connections of
// a dialed cluster, including ones joined later via AddReplica; none
// for in-process shards).
func (f *Filter) Close() error {
	f.closerMu.Lock()
	closers := f.closers
	f.closers = nil
	f.closerMu.Unlock()
	var first error
	for _, c := range closers {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// addCloser registers a connection for Close to release.
func (f *Filter) addCloser(c io.Closer) {
	f.closerMu.Lock()
	f.closers = append(f.closers, c)
	f.closerMu.Unlock()
}

// roundTripper is implemented by *filter.Remote; in-process shard conns
// report zero.
type roundTripper interface {
	RoundTrips() int64
	EvalRoundTrips() int64
}

// RoundTrips returns the total rmi exchanges issued across all shards.
func (f *Filter) RoundTrips() int64 {
	var total int64
	for _, n := range f.ShardRoundTrips() {
		total += n
	}
	return total
}

// ShardRoundTrips returns per-shard exchange counts (summed over the
// shard's replicas), in shard order — how the tests enforce "at most one
// exchange per shard per step".
func (f *Filter) ShardRoundTrips() []int64 {
	out := make([]int64, len(f.shards))
	for i, sh := range f.shards {
		for _, rep := range sh.replicaList() {
			if rt, ok := rep.conn.(roundTripper); ok {
				out[i] += rt.RoundTrips()
			}
		}
	}
	return out
}

// ServerStats implements filter.StatsAPI: the member-wise sum of every
// reachable replica's server-side counters (each replica serves a share
// of the shard's frames, so the shard's work is spread across them).
// Replicas that are down contribute zeros — stats are diagnostics and
// must not fail a healthy query session.
func (f *Filter) ServerStats() (filter.ServerStats, error) {
	var (
		mu    sync.Mutex
		total filter.ServerStats
	)
	all := make([]bool, len(f.shards))
	for i := range all {
		all[i] = true
	}
	_ = f.scatter(all, func(si int) error {
		for _, rep := range f.shards[si].replicaList() {
			st, err := rep.conn.ServerStats()
			if err != nil {
				continue // unreachable replica: diagnostics stay best-effort
			}
			mu.Lock()
			total = total.Add(st)
			mu.Unlock()
		}
		return nil
	})
	return total, nil
}

// owner returns the index of the shard owning pre.
func (f *Filter) owner(pre int64) (int, error) {
	i := sort.Search(len(f.shards), func(i int) bool { return f.shards[i].rangeOf().Hi >= pre })
	if i == len(f.shards) || !f.shards[i].rangeOf().contains(pre) {
		return 0, &RangeError{Pre: pre, Lo: f.shards[0].rangeOf().Lo, Hi: f.shards[len(f.shards)-1].rangeOf().Hi}
	}
	return i, nil
}

// onShard runs op against one replica of shard si: the round-robin
// choice first, failing over through the remaining replicas on
// retryable errors (filter.Retryable — transport failures and
// protocol-violating replies), with an optional hedge duplicate once
// the call outlives the shard's latency percentile for the op's class.
// The first successful reply wins; a deterministic error aborts
// immediately, as every byte-identical replica would repeat it.
func onShard[T any](f *Filter, si, class int, op func(Conn) (T, error)) (T, error) {
	sh := f.shards[si]
	reps := sh.replicaList()
	order := sh.replicaOrder(reps)
	type result struct {
		v   T
		err error
	}
	// Buffered to the replica count so abandoned calls (losing hedges,
	// stragglers behind a non-retryable failure) never leak a goroutine.
	ch := make(chan result, len(order))
	next, inflight := 0, 0
	launch := func() {
		rep := reps[order[next]]
		next++
		inflight++
		go func() {
			start := time.Now()
			v, err := op(rep.conn)
			switch {
			case err == nil:
				rep.brk.success()
				sh.lat[class].add(time.Since(start))
			case filter.Retryable(err):
				rep.brk.failure()
			default:
				// A deterministic handler error still proves the
				// connection round-trips: health-wise it is a success.
				rep.brk.success()
			}
			ch <- result{v, err}
		}()
	}
	launch()
	var hedge <-chan time.Time
	if f.opts.Hedge && next < len(order) {
		if d, ok := f.hedgeDelay(sh, class); ok {
			hedge = time.After(d)
		}
	}
	var lastErr error
	for inflight > 0 {
		select {
		case r := <-ch:
			inflight--
			if r.err == nil {
				return r.v, nil
			}
			if !filter.Retryable(r.err) {
				var zero T
				return zero, r.err
			}
			lastErr = r.err
			// Fail over immediately even while a hedge duplicate is
			// still in flight — otherwise the frame's latency would be
			// gated on the very straggler the hedge was meant to beat.
			if next < len(order) {
				f.failovers.Add(1)
				if tr := f.tracer.Load(); tr != nil {
					tr.Event(fmt.Sprintf("failover shard %d -> %s", si, reps[order[next]].addr))
				}
				launch()
			}
		case <-hedge:
			hedge = nil
			if next < len(order) { // a failover may already hold the last replica
				f.hedges.Add(1)
				if tr := f.tracer.Load(); tr != nil {
					tr.Event(fmt.Sprintf("hedge shard %d -> %s", si, reps[order[next]].addr))
				}
				launch()
			}
		}
	}
	var zero T
	if len(order) == 1 {
		return zero, lastErr
	}
	return zero, fmt.Errorf("cluster: all %d replicas failed: %w", len(order), lastErr)
}

// hedgeDelay returns the delay after which a frame of the given class
// on sh should be hedged, or ok=false when there is no basis to hedge
// yet.
func (f *Filter) hedgeDelay(sh *shardState, class int) (time.Duration, bool) {
	if f.opts.HedgeAfter > 0 {
		return f.opts.HedgeAfter, true
	}
	d, ok := sh.lat[class].quantile(hedgeQuantile)
	if !ok {
		return 0, false
	}
	if d < minHedgeDelay {
		d = minHedgeDelay
	}
	return d, true
}

// scatter runs fn for every shard with a non-nil work item, one
// goroutine per shard, and returns the first failure wrapped as a
// ShardError naming the shard.
func (f *Filter) scatter(active []bool, fn func(si int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(f.shards))
	for si := range f.shards {
		if !active[si] {
			continue
		}
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			errs[si] = fn(si)
		}(si)
	}
	wg.Wait()
	for si, err := range errs {
		if err != nil {
			return &ShardError{Shard: si, Addr: f.shards[si].label, Err: err}
		}
	}
	return nil
}

// group splits request indices by owning shard, preserving request order
// within each group.
func (f *Filter) group(n int, preAt func(int) int64) (groups [][]int, active []bool, err error) {
	groups = make([][]int, len(f.shards))
	active = make([]bool, len(f.shards))
	for i := 0; i < n; i++ {
		si, err := f.owner(preAt(i))
		if err != nil {
			return nil, nil, err
		}
		groups[si] = append(groups[si], i)
		active[si] = true
	}
	return groups, active, nil
}

// spread lists, per shard, the request indices the shard may hold rows
// for: everything whose subtree interval reaches into the shard's range
// (rows of interest have pre > req pre, so shards ending at or before it
// hold none).
func (f *Filter) spread(n int, preAt func(int) int64) (groups [][]int, active []bool) {
	groups = make([][]int, len(f.shards))
	active = make([]bool, len(f.shards))
	for si, sh := range f.shards {
		hi := sh.rangeOf().Hi
		for i := 0; i < n; i++ {
			if hi > preAt(i) {
				groups[si] = append(groups[si], i)
				active[si] = true
			}
		}
	}
	return groups, active
}

// --- point operations: route to the owning shard -----------------------

// shardErr wraps a shard-level failure with the shard's identity.
func (f *Filter) shardErr(si int, err error) error {
	if err == nil {
		return nil
	}
	return &ShardError{Shard: si, Addr: f.shards[si].label, Err: err}
}

// Root implements filter.ServerAPI: the document root is the smallest
// pre, owned by the first shard.
func (f *Filter) Root() (filter.NodeMeta, error) {
	m, err := onShard(f, 0, opPoint, func(c Conn) (filter.NodeMeta, error) { return c.Root() })
	if err != nil {
		return filter.NodeMeta{}, f.shardErr(0, err)
	}
	return m, nil
}

// Node implements filter.ServerAPI.
func (f *Filter) Node(pre int64) (filter.NodeMeta, error) {
	si, err := f.owner(pre)
	if err != nil {
		return filter.NodeMeta{}, err
	}
	m, err := onShard(f, si, opPoint, func(c Conn) (filter.NodeMeta, error) { return c.Node(pre) })
	if err != nil {
		return filter.NodeMeta{}, f.shardErr(si, err)
	}
	return m, nil
}

// EvalAt implements filter.ServerAPI.
func (f *Filter) EvalAt(pre int64, point gf.Elem) (gf.Elem, error) {
	si, err := f.owner(pre)
	if err != nil {
		return 0, err
	}
	v, err := onShard(f, si, opPoint, func(c Conn) (gf.Elem, error) { return c.EvalAt(pre, point) })
	if err != nil {
		return 0, f.shardErr(si, err)
	}
	return v, nil
}

// Poly implements filter.ServerAPI.
func (f *Filter) Poly(pre int64) (filter.PolyRow, error) {
	si, err := f.owner(pre)
	if err != nil {
		return filter.PolyRow{}, err
	}
	row, err := onShard(f, si, opPoint, func(c Conn) (filter.PolyRow, error) { return c.Poly(pre) })
	if err != nil {
		return filter.PolyRow{}, f.shardErr(si, err)
	}
	return row, nil
}

// Count implements filter.ServerAPI: the sum over shards.
func (f *Filter) Count() (int64, error) {
	counts := make([]int64, len(f.shards))
	all := make([]bool, len(f.shards))
	for i := range all {
		all[i] = true
	}
	err := f.scatter(all, func(si int) error {
		n, err := onShard(f, si, opPoint, func(c Conn) (int64, error) { return c.Count() })
		counts[si] = n
		return err
	})
	if err != nil {
		return 0, err
	}
	var total int64
	for _, n := range counts {
		total += n
	}
	return total, nil
}

// --- interval operations: broadcast and merge in shard order -----------

// mergeLists concatenates each member's per-shard reply lists in shard
// order. Shards tile the pre axis in ascending order and every shard
// returns its rows sorted by pre, so the concatenation is document
// order — identical to the single-server reply.
func mergeLists[T any](nShards, nReqs int, groups [][]int, parts [][][]T) [][]T {
	out := make([][]T, nReqs)
	for si := 0; si < nShards; si++ {
		for j, i := range groups[si] {
			if len(parts[si][j]) > 0 {
				out[i] = append(out[i], parts[si][j]...)
			}
		}
	}
	return out
}

// badCount reports a shard reply carrying the wrong member count — a
// retryable protocol violation (another replica may answer correctly).
func badCount(got, want int) error {
	return &filter.BadReplyError{Msg: fmt.Sprintf("shard reply carried %d members for %d requests", got, want)}
}

// broadcastLists is the shared scatter/gather of Children- and
// Descendants-shaped calls: ship each shard its relevant members in one
// call, validate reply lengths, merge in shard order. Validation runs
// inside the per-replica op, so a malformed reply fails over like a
// transport error.
func broadcastLists[Req, T any](f *Filter, reqs []Req, preOf func(Req) int64,
	call func(Conn, []Req) ([][]T, error)) ([][]T, error) {
	groups, active := f.spread(len(reqs), func(i int) int64 { return preOf(reqs[i]) })
	parts := make([][][]T, len(f.shards))
	err := f.scatter(active, func(si int) error {
		sub := make([]Req, len(groups[si]))
		for j, i := range groups[si] {
			sub[j] = reqs[i]
		}
		part, err := onShard(f, si, opBatch, func(c Conn) ([][]T, error) {
			part, err := call(c, sub)
			if err != nil {
				return nil, err
			}
			if len(part) != len(sub) {
				return nil, badCount(len(part), len(sub))
			}
			return part, nil
		})
		if err != nil {
			return err
		}
		parts[si] = part
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mergeLists(len(f.shards), len(reqs), groups, parts), nil
}

// Children implements filter.ServerAPI: children can spill past the
// owner's boundary, so the fetch broadcasts to every shard past pre.
func (f *Filter) Children(pre int64) ([]filter.NodeMeta, error) {
	lists, err := broadcastLists(f, []int64{pre}, func(p int64) int64 { return p },
		func(c Conn, sub []int64) ([][]filter.NodeMeta, error) {
			kids, err := c.Children(sub[0])
			return [][]filter.NodeMeta{kids}, err
		})
	if err != nil {
		return nil, err
	}
	return lists[0], nil
}

// Descendants implements filter.ServerAPI. Each shard resolves the span
// against its own slice (the store's boundary scan is correct on a
// slice: any local row between pre and the first local following node
// is a descendant), and shard-order concatenation restores document
// order.
func (f *Filter) Descendants(pre, post int64) ([]filter.NodeMeta, error) {
	lists, err := broadcastLists(f, []filter.Span{{Pre: pre, Post: post}},
		func(sp filter.Span) int64 { return sp.Pre },
		func(c Conn, sub []filter.Span) ([][]filter.NodeMeta, error) {
			ms, err := c.Descendants(sub[0].Pre, sub[0].Post)
			return [][]filter.NodeMeta{ms}, err
		})
	if err != nil {
		return nil, err
	}
	return lists[0], nil
}

// ChildrenPolys implements filter.ServerAPI.
func (f *Filter) ChildrenPolys(pre int64) ([]filter.PolyRow, error) {
	lists, err := broadcastLists(f, []int64{pre}, func(p int64) int64 { return p },
		func(c Conn, sub []int64) ([][]filter.PolyRow, error) {
			rows, err := c.ChildrenPolys(sub[0])
			return [][]filter.PolyRow{rows}, err
		})
	if err != nil {
		return nil, err
	}
	return lists[0], nil
}

// --- batched operations: one frame per shard per batch -----------------

// gatherIndexed is the shared scatter/gather of the index-addressed
// batch methods (EvalBatch, NodeBatch): one frame per shard carrying the
// shard's members, replies land back at their request indices.
func gatherIndexed[Req, Resp any](f *Filter, reqs []Req, preOf func(Req) int64,
	call func(Conn, []Req) ([]Resp, error)) ([]Resp, error) {
	groups, active, err := f.group(len(reqs), func(i int) int64 { return preOf(reqs[i]) })
	if err != nil {
		return nil, err
	}
	out := make([]Resp, len(reqs))
	err = f.scatter(active, func(si int) error {
		sub := make([]Req, len(groups[si]))
		for j, i := range groups[si] {
			sub[j] = reqs[i]
		}
		part, err := onShard(f, si, opBatch, func(c Conn) ([]Resp, error) {
			part, err := call(c, sub)
			if err != nil {
				return nil, err
			}
			if len(part) != len(sub) {
				return nil, badCount(len(part), len(sub))
			}
			return part, nil
		})
		if err != nil {
			return err
		}
		for j, i := range groups[si] {
			out[i] = part[j]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// EvalBatch implements filter.BatchAPI: members are grouped by owning
// shard, one concurrent frame per shard, and replies land back at their
// request indices.
func (f *Filter) EvalBatch(reqs []filter.EvalRequest) ([]filter.EvalResult, error) {
	return gatherIndexed(f, reqs, func(r filter.EvalRequest) int64 { return r.Pre },
		func(c Conn, sub []filter.EvalRequest) ([]filter.EvalResult, error) { return c.EvalBatch(sub) })
}

// NodeBatch implements filter.BatchAPI.
func (f *Filter) NodeBatch(pres []int64) ([]filter.NodeMeta, error) {
	return gatherIndexed(f, pres, func(p int64) int64 { return p },
		func(c Conn, sub []int64) ([]filter.NodeMeta, error) { return c.NodeBatch(sub) })
}

// ChildrenBatch implements filter.BatchAPI.
func (f *Filter) ChildrenBatch(pres []int64) ([][]filter.NodeMeta, error) {
	return broadcastLists(f, pres, func(p int64) int64 { return p },
		func(c Conn, sub []int64) ([][]filter.NodeMeta, error) { return c.ChildrenBatch(sub) })
}

// DescendantsBatch implements filter.BatchAPI.
func (f *Filter) DescendantsBatch(spans []filter.Span) ([][]filter.NodeMeta, error) {
	return broadcastLists(f, spans, func(sp filter.Span) int64 { return sp.Pre },
		func(c Conn, sub []filter.Span) ([][]filter.NodeMeta, error) { return c.DescendantsBatch(sub) })
}

// AggregateBatch implements filter.AggregateAPI: the rows are grouped
// by owning shard (shards tile the pre axis, so each group is a
// contiguous run of the sorted request), each shard folds its run in ONE
// frame — this is where bytes-on-wire drop from O(rows) to O(shards) —
// and the per-shard chunk lists concatenate in shard order, which is
// exactly request order. Each chunk is stamped with its shard's label so
// a failed verification names the misbehaving shard. Folds are pure
// functions of immutable rows, so a replica dying mid-frame fails over
// like any read: the sibling reproduces the identical chunks, and a
// duplicated (hedged) frame is harmless.
func (f *Filter) AggregateBatch(req filter.AggregateRequest) (filter.AggregateReply, error) {
	pres, err := filter.UnpackPres(req.Pres)
	if err != nil {
		return filter.AggregateReply{}, err
	}
	if len(req.Mask) != 0 && len(req.Mask) != len(pres) {
		return filter.AggregateReply{}, fmt.Errorf("cluster: aggregate mask has %d elements for %d rows", len(req.Mask), len(pres))
	}
	groups, active, err := f.group(len(pres), func(i int) int64 { return pres[i] })
	if err != nil {
		return filter.AggregateReply{}, err
	}
	parts := make([][]filter.AggregateChunk, len(f.shards))
	err = f.scatter(active, func(si int) error {
		idx := groups[si]
		subPres := make([]int64, len(idx))
		var subMask []gf.Elem
		if len(req.Mask) != 0 {
			subMask = make([]gf.Elem, len(idx))
		}
		for j, i := range idx {
			subPres[j] = pres[i]
			if subMask != nil {
				subMask[j] = req.Mask[i]
			}
		}
		subReq := filter.AggregateRequest{
			Ver:       req.Ver,
			Kind:      req.Kind,
			Pres:      filter.PackPres(subPres),
			Mask:      subMask,
			ChunkRows: req.ChunkRows,
		}
		rep, err := onShard(f, si, opBatch, func(c Conn) (filter.AggregateReply, error) {
			rep, err := c.AggregateBatch(subReq)
			if err != nil {
				return filter.AggregateReply{}, err
			}
			// Structural validation runs inside the per-replica op so a
			// malformed reply fails over to a sibling; the value-level
			// verification stays with the client, which holds the keys.
			var rows int
			for _, ck := range rep.Chunks {
				rows += int(ck.Rows)
			}
			if rows != len(subPres) {
				return filter.AggregateReply{}, badCount(rows, len(subPres))
			}
			return rep, nil
		})
		if err != nil {
			return err
		}
		for i := range rep.Chunks {
			rep.Chunks[i].Origin = f.shards[si].label
		}
		parts[si] = rep.Chunks
		return nil
	})
	if err != nil {
		return filter.AggregateReply{}, err
	}
	out := filter.AggregateReply{Ver: filter.AggregateFrameVersion}
	for si := range f.shards {
		out.Chunks = append(out.Chunks, parts[si]...)
	}
	return out, nil
}

// NodePolysBatch implements filter.BatchAPI: every shard whose range
// reaches the node or could hold its children answers with the fragment
// it stores (filter.PartialAPI); fragments merge into the single-server
// bundle — node row from the owner, children concatenated in shard
// order.
func (f *Filter) NodePolysBatch(pres []int64) ([]filter.NodePolys, error) {
	groups := make([][]int, len(f.shards))
	active := make([]bool, len(f.shards))
	for si, sh := range f.shards {
		hi := sh.rangeOf().Hi
		for i, pre := range pres {
			if hi >= pre { // owner (Hi >= pre) or potential child holder (Hi > pre)
				groups[si] = append(groups[si], i)
				active[si] = true
			}
		}
	}
	parts := make([][]filter.PartialNodePolys, len(f.shards))
	err := f.scatter(active, func(si int) error {
		sub := make([]int64, len(groups[si]))
		for j, i := range groups[si] {
			sub[j] = pres[i]
		}
		part, err := onShard(f, si, opBatch, func(c Conn) ([]filter.PartialNodePolys, error) {
			part, err := c.NodePolysPartial(sub)
			if err != nil {
				return nil, err
			}
			if len(part) != len(sub) {
				return nil, badCount(len(part), len(sub))
			}
			return part, nil
		})
		if err != nil {
			return err
		}
		parts[si] = part
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]filter.NodePolys, len(pres))
	found := make([]bool, len(pres))
	for si := 0; si < len(f.shards); si++ {
		for j, i := range groups[si] {
			frag := parts[si][j]
			if frag.Err != "" && out[i].Err == "" {
				out[i].Err = frag.Err
				continue
			}
			if frag.Has {
				out[i].Node = frag.Node
				found[i] = true
			}
			out[i].Children = append(out[i].Children, frag.Children...)
		}
	}
	for i, ok := range found {
		if !ok && out[i].Err == "" {
			// Mirror the single-server behavior for a nonexistent node: a
			// member error, not a call failure.
			out[i].Err = store.NotFoundError(pres[i]).Error()
		}
	}
	return out, nil
}
