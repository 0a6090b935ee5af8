// Package server is the multi-tenant server runtime: everything a
// serving process does that is not pure query evaluation. It owns the
// rmi endpoint and its accept/dispatch loop, a registry of named
// tenants — each an independent encrypted shard table with its own
// store, field parameters and decoded-polynomial cache — and the
// process lifecycle (graceful drain on shutdown, live attach/detach
// for config reloads).
//
// The filter package stays pure: a ServerFilter evaluates queries
// against one store and knows nothing about listeners or tenants. The
// runtime builds one filter per tenant, hands each its own cache of
// DefaultCacheEntries polynomials (so one tenant's scan cannot evict
// another's hot set), and registers the filter's RMI methods under the
// tenant's name. Calls carrying no tenant — from pre-tenant client
// binaries, whose frames decode identically — route to the designated
// default tenant, so a single-tenant deployment upgrades in place.
package server

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"encshare/internal/filter"
	"encshare/internal/gf"
	"encshare/internal/obs"
	"encshare/internal/ring"
	"encshare/internal/rmi"
	"encshare/internal/store"
	"encshare/internal/wal"
)

// Per-tenant durability files inside Tenant.WALDir.
const (
	walLogName  = "wal.log"
	walSnapName = "base.snap"
)

// methodResolveTenant is the runtime-level RMI method, registered in the
// global handler set so it answers under any tenant name (it runs before
// a tenant is trusted to exist).
const methodResolveTenant = "runtime.ResolveTenant"

// DefaultCacheEntries is the size of every tenant's decoded-polynomial
// cache: about 1.3 MiB of polynomials at q = 83.
const DefaultCacheEntries = 4096

// unnamedKey is the rmi registry key of the unnamed (legacy
// single-tenant) tenant. It must NOT be the empty string: the empty
// key is the global handler set (runtime methods), which can never be
// dropped — registering the unnamed tenant there would make it
// impossible to detach and re-attach on a config reload. The NUL
// prefix keeps it out of the way of configured names (config
// validation requires non-empty names; a wire client naming it
// explicitly just reaches the default-tenant handlers, exactly as an
// empty tenant field would).
const unnamedKey = "\x00unnamed"

// regKey maps a tenant name to its rmi registry key.
func regKey(name string) string {
	if name == "" {
		return unnamedKey
	}
	return name
}

// Tenant describes one tenant's serving configuration.
type Tenant struct {
	// Name identifies the tenant in frame headers. Empty names the
	// legacy unnamed tenant (registered globally) — valid only for the
	// single-tenant layout.
	Name string
	// Path is the encoded database file to load (AttachFile).
	Path string
	// P, E are the field parameters the tenant's table was encoded
	// with (the server needs ring dimensions, not secrets).
	P, E uint32
	// WALDir, when set, makes the tenant's writes durable: mutation
	// batches journal to WALDir/wal.log before applying, compaction
	// folds the log into WALDir/base.snap, and AttachFile recovers
	// snapshot + log state in preference to Path. Empty means
	// mutations are accepted but die with the process.
	WALDir string
	// CompactBytes, when positive, folds the log into a snapshot
	// automatically once wal.log exceeds this many bytes (checked
	// after each applied batch). Zero leaves folding to
	// Runtime.Compact — the default, so operators (and the CI
	// byte-diff of replica logs) control when log bytes disappear.
	CompactBytes int64
	// CompactIdle, when positive, folds the log into a snapshot once the
	// tenant has gone this long without an applied batch — compaction
	// during the lull instead of mid-write-burst. Zero keeps the
	// PR 8 semantics: never fold on a timer, so replica logs stay
	// byte-comparable until an operator (or CompactBytes) folds them.
	CompactIdle time.Duration
	// FS is the filesystem the tenant's WAL and snapshots go through.
	// Nil means the real filesystem (wal.OS); tests install
	// internal/iofault to inject disk faults deterministically.
	FS wal.FS
}

// Config tunes the runtime.
type Config struct {
	// Default names the tenant that calls without a tenant header route
	// to. Empty means the first attached tenant becomes the default.
	Default string
}

type tenantState struct {
	cfg   Tenant
	st    *store.Store
	dsn   string // fresh DSN to drop, when the runtime opened the store
	owned bool
	sf    *filter.ServerFilter
	mut   *filter.Mutable // always set: the registered (writable) API
	log   *wal.Log        // nil when cfg.WALDir is empty

	// lastWrite is the UnixNano stamp of the last applied batch, read by
	// the idle-compaction loop (0 = nothing written this process life).
	lastWrite atomic.Int64
	// stop ends the idle-compaction goroutine; nil when none runs.
	stop chan struct{}
}

// Runtime hosts a set of tenants behind one rmi endpoint.
type Runtime struct {
	cfg Config
	srv *rmi.Server

	mu      sync.Mutex
	tenants map[string]*tenantState
	dflt    string
	l       net.Listener
	reg     *obs.Registry // created lazily by Metrics

	// fsyncH is the encshare_wal_fsync_seconds histogram once Metrics
	// has run; tenant logs observe through it via an atomic load so the
	// serving path never touches a registry before one exists.
	fsyncH atomic.Pointer[obs.Histogram]
}

// New creates an empty runtime and registers the runtime-level RMI
// method (tenant resolution).
func New(cfg Config) *Runtime {
	rt := &Runtime{cfg: cfg, srv: rmi.NewServer(), tenants: map[string]*tenantState{}}
	rmi.HandleFunc(rt.srv, methodResolveTenant, func(name []byte) ([]byte, error) {
		resolved, err := rt.resolve(string(name))
		return []byte(resolved), err
	})
	// The epoch gate brackets every read frame: it holds the tenant's
	// read lock across the handler (mutations cannot interleave with a
	// frame) and refuses frames pinned to an epoch the data has moved
	// past. Write and runtime methods bypass it — they take their own
	// locks or touch no tenant data.
	rt.srv.SetGate(func(tenant, method string, epoch uint64) (func(), error) {
		if filter.GateExempt(method) || strings.HasPrefix(method, "runtime.") {
			return nil, nil
		}
		rt.mu.Lock()
		name := tenant
		if name == "" {
			name = rt.dflt
		}
		ts := rt.tenants[name]
		rt.mu.Unlock()
		if ts == nil {
			return nil, nil // unknown tenant: dispatch reports it
		}
		return ts.mut.ReadLock(epoch)
	})
	if cfg.Default != "" {
		rt.setDefault(cfg.Default)
	}
	return rt
}

// RMI returns the runtime's rmi server, for callers that register
// additional methods (tests, future admin surfaces).
func (rt *Runtime) RMI() *rmi.Server { return rt.srv }

// resolve maps a caller-supplied tenant name ("" = default) to the
// attached tenant it would dispatch to.
func (rt *Runtime) resolve(name string) (string, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if name == "" {
		name = rt.dflt
	}
	if _, ok := rt.tenants[name]; !ok {
		return "", rmi.ErrUnknownTenant(name)
	}
	return name, nil
}

// Tenants returns the attached tenant names, sorted.
func (rt *Runtime) Tenants() []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]string, 0, len(rt.tenants))
	for name := range rt.tenants {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Default returns the tenant name calls without a tenant header route
// to.
func (rt *Runtime) Default() string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.dflt
}

// setDefault records the default and points the rmi dispatcher at it.
// The empty name means "no named default": if the unnamed tenant is
// attached, tenantless frames dispatch to it (its registry key is
// unnamedKey, never the empty string). Caller must not hold rt.mu.
func (rt *Runtime) setDefault(name string) {
	rt.mu.Lock()
	rt.dflt = name
	_, hasUnnamed := rt.tenants[""]
	rt.mu.Unlock()
	key := name
	if name == "" && hasUnnamed {
		key = unnamedKey
	}
	rt.srv.SetDefaultTenant(key)
}

// AttachFile opens and loads tenant t into a fresh store and attaches
// it. The base state comes from t.WALDir/base.snap when that snapshot
// exists, t.Path otherwise; with a WALDir, the tail of wal.log is then
// replayed on top, so a restarted server recovers exactly the batches
// it acknowledged. The runtime owns the store: Detach (and a failed
// attach) closes it and drops its backing DSN.
func (rt *Runtime) AttachFile(t Tenant) error {
	dsn := store.FreshDSN()
	st, err := store.Open(dsn)
	if err != nil {
		return err
	}
	if err := st.Init(); err != nil {
		st.Close()
		store.Drop(dsn)
		return err
	}
	var lastSeq uint64
	fromSnap := false
	if t.WALDir != "" {
		seq, body, serr := wal.OpenSnapshotAt(tenantFS(t), filepath.Join(t.WALDir, walSnapName))
		switch {
		case serr == nil:
			err = st.Load(body)
			body.Close()
			lastSeq, fromSnap = seq, true
		case !errors.Is(serr, os.ErrNotExist):
			err = serr
		}
	}
	if err == nil && !fromSnap {
		var f *os.File
		f, err = os.Open(t.Path)
		if err == nil {
			err = st.Load(f)
			f.Close()
		}
	}
	if err == nil {
		err = rt.attach(t, st, dsn, true, lastSeq)
	}
	if err != nil {
		st.Close()
		store.Drop(dsn)
		return fmt.Errorf("server: attaching tenant %q from %s: %w", t.Name, t.Path, err)
	}
	return nil
}

// AttachStore attaches an already-open store as tenant t. The caller
// keeps ownership: Detach unregisters the tenant but leaves the store
// open. With a WALDir, wal.log is replayed over the caller's store
// (snapshots are not consulted — the caller supplies the base state).
func (rt *Runtime) AttachStore(t Tenant, st *store.Store) error {
	return rt.attach(t, st, "", false, 0)
}

func (rt *Runtime) attach(t Tenant, st *store.Store, dsn string, owned bool, lastSeq uint64) error {
	f, err := gf.New(normParams(t.P, t.E))
	if err != nil {
		return err
	}
	r, err := ring.New(f)
	if err != nil {
		return err
	}

	rt.mu.Lock()
	if _, dup := rt.tenants[t.Name]; dup {
		rt.mu.Unlock()
		return fmt.Errorf("server: tenant %q already attached", t.Name)
	}
	ts := &tenantState{cfg: t, st: st, dsn: dsn, owned: owned}
	ts.sf = filter.NewServerFilter(st, r, DefaultCacheEntries)
	// The journal and compact hooks close over lg, which is assigned
	// only after wal.OpenAt returns: recovery replays through the
	// Mutable (below) but never journals or compacts, so the hooks fire
	// only once the log handle exists.
	fsys := tenantFS(t)
	var (
		lg      *wal.Log
		journal filter.JournalFunc
		compact func(uint64) error
	)
	if t.WALDir != "" {
		// Two-phase journal: staging orders the record in the log under
		// the Mutable's writer lock; the returned commit fsyncs OUTSIDE
		// it, so concurrent sessions' commits coalesce under the WAL's
		// commit leader (group commit).
		journal = func(p []byte) (func() error, error) {
			end, gen, err := lg.Write(p)
			if err != nil {
				return nil, err
			}
			return func() error { return lg.SyncTo(end, gen) }, nil
		}
		// Runs under the Mutable's writer lock after each applied batch:
		// no batch can interleave with the dump. It always stamps the
		// write clock for the idle-compaction loop; the size trigger
		// stays opt-in.
		compact = func(seq uint64) error {
			ts.lastWrite.Store(time.Now().UnixNano())
			if t.CompactBytes > 0 && lg.Size() >= t.CompactBytes {
				return compactTenant(fsys, t.WALDir, lg, st, seq)
			}
			return nil
		}
	}
	ts.mut = filter.NewMutable(ts.sf, lastSeq, journal, compact)
	if name := t.Name; name != "" {
		ts.mut.SetTenant(name)
	} else {
		ts.mut.SetTenant("default")
	}
	if t.WALDir != "" {
		// Recover the log tail: replay every journaled batch past the
		// base state's sequence, streamed one record at a time so a
		// long-lived log never has to fit in memory. Apply errors are
		// not fatal — a batch that failed deterministically when first
		// accepted fails identically here, and the store lands in the
		// same (prefix-applied) state it was in when the process died.
		// A sequence gap is fatal: the log does not follow from the
		// snapshot, so serving would diverge from the acked history.
		rec := 0
		l, lerr := wal.OpenAt(fsys, filepath.Join(t.WALDir, walLogName), func(payload []byte) error {
			b, derr := filter.DecodeBatch(payload)
			if derr != nil {
				return fmt.Errorf("server: wal record %d: %w", rec, derr)
			}
			if rerr := ts.mut.Replay(b); rerr != nil && filter.IsSeqGap(rerr) {
				return fmt.Errorf("server: wal record %d (seq %d): %w", rec, b.Seq, rerr)
			}
			rec++
			return nil
		})
		if lerr != nil {
			rt.mu.Unlock()
			return lerr
		}
		lg = l
		ts.log = lg
		lg.SetSyncObserver(func(d time.Duration) {
			if h := rt.fsyncH.Load(); h != nil {
				h.Observe(d)
			}
		})
		if t.CompactIdle > 0 {
			ts.stop = make(chan struct{})
			go rt.idleCompactLoop(t.Name, ts, t.CompactIdle)
		}
	}
	rt.tenants[t.Name] = ts
	needDefault := rt.dflt == "" && (rt.cfg.Default == "" || rt.cfg.Default == t.Name) && t.Name != ""
	rt.mu.Unlock()

	filter.RegisterServerAt(rt.srv, regKey(t.Name), ts.mut)
	switch {
	case needDefault:
		rt.setDefault(t.Name)
	case t.Name == "":
		// The unnamed tenant is the legacy single-tenant layout:
		// tenantless frames must dispatch to it. rt.dflt stays "" —
		// resolve("") already finds tenants[""] directly.
		rt.setDefault("")
	}
	return nil
}

// tenantFS resolves the filesystem the tenant's durability files go
// through (nil = the real one).
func tenantFS(t Tenant) wal.FS {
	if t.FS != nil {
		return t.FS
	}
	return wal.OS
}

// compactTenant folds the tenant's current table into base.snap at
// sequence lastSeq and truncates the log. Caller must hold the
// tenant's writer lock (Mutable.Compact, or the compact hook). The
// snapshot is fsynced before the truncate, which is what lets an
// in-flight group commit for a folded record report success.
func compactTenant(fsys wal.FS, dir string, lg *wal.Log, st *store.Store, lastSeq uint64) error {
	if err := wal.WriteSnapshotAt(fsys, filepath.Join(dir, walSnapName), lastSeq, st.Dump); err != nil {
		return err
	}
	return lg.Truncate()
}

// idleCompactLoop folds the tenant's log once writes have been idle for
// the window. Best-effort: a compaction error (including a sick WAL's
// refusal) leaves the log alone and the loop keeps watching.
func (rt *Runtime) idleCompactLoop(name string, ts *tenantState, window time.Duration) {
	every := window / 4
	if every < 10*time.Millisecond {
		every = 10 * time.Millisecond
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ts.stop:
			return
		case <-tick.C:
		}
		lw := ts.lastWrite.Load()
		if lw == 0 || ts.log.Records() == 0 || ts.mut.WALFailed() != nil {
			continue
		}
		if time.Since(time.Unix(0, lw)) < window {
			continue
		}
		rt.Compact(name)
	}
}

// Compact folds the named tenant's log into its snapshot now,
// excluding writers for the duration. Reads keep flowing — the table
// is not mutating under the dump.
func (rt *Runtime) Compact(name string) error {
	rt.mu.Lock()
	ts, ok := rt.tenants[name]
	rt.mu.Unlock()
	if !ok {
		return fmt.Errorf("server: tenant %q not attached", name)
	}
	if ts.log == nil {
		return fmt.Errorf("server: tenant %q has no write-ahead log", name)
	}
	return ts.mut.Compact(func(lastSeq uint64) error {
		return compactTenant(tenantFS(ts.cfg), ts.cfg.WALDir, ts.log, ts.st, lastSeq)
	})
}

// Detach unregisters the named tenant: subsequent frames naming it get
// an unknown-tenant error, and a runtime-owned store is closed and
// dropped. In-flight calls already dispatched may fail as the store
// goes away — detach during a drain, not under live tenant traffic.
func (rt *Runtime) Detach(name string) error {
	rt.mu.Lock()
	ts, ok := rt.tenants[name]
	if !ok {
		rt.mu.Unlock()
		return fmt.Errorf("server: tenant %q not attached", name)
	}
	delete(rt.tenants, name)
	wasDefault := rt.dflt == name
	rt.mu.Unlock()

	rt.srv.DropTenant(regKey(name))
	if wasDefault {
		rt.setDefault("")
	}
	if ts.stop != nil {
		close(ts.stop)
	}
	if ts.log != nil {
		ts.log.Close()
	}
	if ts.owned {
		ts.st.Close()
		store.Drop(ts.dsn)
	}
	return nil
}

// Apply reconciles the attached tenant set against want (a freshly
// reloaded config): tenants not yet attached are attached from their
// files, attached tenants missing from want are detached, and tenants
// whose configuration changed are detached and re-attached. It returns
// the names touched, and the first error with the reconciliation
// stopped at it (already-applied changes stay applied).
func (rt *Runtime) Apply(want []Tenant, dflt string) (attached, detached []string, err error) {
	wantByName := make(map[string]Tenant, len(want))
	for _, t := range want {
		wantByName[t.Name] = t
	}
	rt.mu.Lock()
	var toDetach []string
	for name, ts := range rt.tenants {
		w, keep := wantByName[name]
		if keep && w == ts.cfg {
			delete(wantByName, name) // unchanged
			continue
		}
		toDetach = append(toDetach, name)
	}
	rt.mu.Unlock()
	sort.Strings(toDetach)
	for _, name := range toDetach {
		if err := rt.Detach(name); err != nil {
			return attached, detached, err
		}
		detached = append(detached, name)
	}
	var toAttach []string
	for name := range wantByName {
		toAttach = append(toAttach, name)
	}
	sort.Strings(toAttach)
	for _, name := range toAttach {
		if err := rt.AttachFile(wantByName[name]); err != nil {
			return attached, detached, err
		}
		attached = append(attached, name)
	}
	if dflt != "" {
		rt.setDefault(dflt)
	} else if rt.Default() == "" {
		// The previous default was detached: fall back to the first
		// attached tenant, so legacy clients keep an endpoint.
		if names := rt.Tenants(); len(names) > 0 {
			rt.setDefault(names[0])
		}
	}
	return attached, detached, nil
}

// Metrics returns the runtime's metrics registry, creating and wiring
// it on first call: the rmi server's traffic counters and per-method
// latency histograms register directly, and a collector emits every
// attached tenant's work counters at scrape time — so tenants attached
// or detached after this call are always reflected, with no
// unregistration bookkeeping. Until the first call, nothing in the
// serving path touches a registry.
func (rt *Runtime) Metrics() *obs.Registry {
	rt.mu.Lock()
	if rt.reg != nil {
		defer rt.mu.Unlock()
		return rt.reg
	}
	reg := obs.NewRegistry()
	rt.reg = reg
	rt.mu.Unlock()

	rt.srv.SetMetrics(reg)
	reg.GaugeFunc("encshare_tenants", "attached tenants", nil, func() int64 {
		return int64(len(rt.Tenants()))
	})
	// The fsync histogram registers eagerly (an idle server still
	// exposes the family) and tenant logs observe into it via rt.fsyncH.
	rt.fsyncH.Store(reg.Histogram("encshare_wal_fsync_seconds", "WAL fdatasync latency", nil))
	reg.Collect(func(emit func(obs.Sample)) {
		for name, st := range rt.Stats() {
			if name == "" {
				name = "default"
			}
			lbl := obs.Labels{"tenant": name}
			emit(obs.Sample{Name: "encshare_tenant_evals_total", Help: "server-share evaluations", Type: obs.TypeCounter, Labels: lbl, Value: float64(st.Evals)})
			emit(obs.Sample{Name: "encshare_tenant_cache_hits_total", Help: "decoded-polynomial cache hits", Type: obs.TypeCounter, Labels: lbl, Value: float64(st.CacheHits)})
			emit(obs.Sample{Name: "encshare_tenant_cache_misses_total", Help: "decoded-polynomial cache misses", Type: obs.TypeCounter, Labels: lbl, Value: float64(st.CacheMisses)})
			emit(obs.Sample{Name: "encshare_tenant_decodes_total", Help: "share-blob decodes", Type: obs.TypeCounter, Labels: lbl, Value: float64(st.Decodes)})
			emit(obs.Sample{Name: "encshare_tenant_aggregates_total", Help: "aggregate fold frames served", Type: obs.TypeCounter, Labels: lbl, Value: float64(st.Aggregates)})
		}
		// Durability + lease families, emitted for every tenant (zeros
		// for WAL-less tenants) so scrapes always see the full set.
		// Appends/fsyncs is the group-commit batch-size ratio.
		for name, dw := range rt.WALStats() {
			if name == "" {
				name = "default"
			}
			lbl := obs.Labels{"tenant": name}
			failed := float64(0)
			if dw.Failed {
				failed = 1
			}
			emit(obs.Sample{Name: "encshare_wal_appends_total", Help: "mutation batches journaled", Type: obs.TypeCounter, Labels: lbl, Value: float64(dw.Appends)})
			emit(obs.Sample{Name: "encshare_wal_fsyncs_total", Help: "WAL fdatasyncs issued (group commit coalesces several appends into one)", Type: obs.TypeCounter, Labels: lbl, Value: float64(dw.Syncs)})
			emit(obs.Sample{Name: "encshare_wal_fsync_failures_total", Help: "WAL fdatasyncs that failed", Type: obs.TypeCounter, Labels: lbl, Value: float64(dw.SyncFailures)})
			emit(obs.Sample{Name: "encshare_wal_sticky_trips_total", Help: "transitions into the sticky WAL-failed (read-only) state", Type: obs.TypeCounter, Labels: lbl, Value: float64(dw.StickyTrips)})
			emit(obs.Sample{Name: "encshare_wal_failed", Help: "1 while the tenant is read-only with a failed WAL", Type: obs.TypeGauge, Labels: lbl, Value: failed})
			emit(obs.Sample{Name: "encshare_lease_acquires_total", Help: "writer-lease grants (extensions included)", Type: obs.TypeCounter, Labels: lbl, Value: float64(dw.LeaseAcquires)})
			emit(obs.Sample{Name: "encshare_lease_expirations_total", Help: "expired writer leases fenced or taken over", Type: obs.TypeCounter, Labels: lbl, Value: float64(dw.LeaseExpirations)})
		}
	})
	return reg
}

// TenantWAL is one tenant's durability and lease counters.
type TenantWAL struct {
	Appends          uint64 // batches journaled
	Syncs            uint64 // fdatasyncs issued (< Appends under group commit)
	SyncFailures     uint64
	Failed           bool // sticky WAL failure: tenant is read-only
	StickyTrips      uint64
	LeaseAcquires    uint64
	LeaseExpirations uint64
}

// WALStats returns every tenant's durability counters (zeros for
// tenants without a WAL), keyed by tenant name.
func (rt *Runtime) WALStats() map[string]TenantWAL {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make(map[string]TenantWAL, len(rt.tenants))
	for name, ts := range rt.tenants {
		var tw TenantWAL
		if ts.log != nil {
			st := ts.log.Stats()
			tw.Appends, tw.Syncs, tw.SyncFailures = st.Appends, st.Syncs, st.SyncFailures
		}
		tw.Failed = ts.mut.WALFailed() != nil
		tw.StickyTrips = ts.mut.WALTrips()
		lst := ts.mut.LeaseStatsNow()
		tw.LeaseAcquires, tw.LeaseExpirations = lst.Acquires, lst.Expirations
		out[name] = tw
	}
	return out
}

// Stats returns every tenant's server-side work counters, keyed by
// tenant name.
func (rt *Runtime) Stats() map[string]filter.ServerStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make(map[string]filter.ServerStats, len(rt.tenants))
	for name, ts := range rt.tenants {
		st, _ := ts.sf.ServerStats()
		out[name] = st
	}
	return out
}

// NodeCounts returns every tenant's stored-node count, for startup
// banners and smoke checks.
func (rt *Runtime) NodeCounts() (map[string]int64, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make(map[string]int64, len(rt.tenants))
	for name, ts := range rt.tenants {
		n, err := ts.st.Count()
		if err != nil {
			return nil, err
		}
		out[name] = n
	}
	return out, nil
}

// Serve accepts connections on l until the listener closes or Shutdown
// runs.
func (rt *Runtime) Serve(l net.Listener) error {
	rt.mu.Lock()
	rt.l = l
	rt.mu.Unlock()
	return rt.srv.Serve(l)
}

// Shutdown drains gracefully: the listener stops accepting, frames
// already being handled complete and reply, connections close, and
// owned tenant stores are released. Serve then returns nil.
func (rt *Runtime) Shutdown() {
	rt.mu.Lock()
	l := rt.l
	rt.l = nil
	rt.mu.Unlock()
	if l != nil {
		l.Close()
	}
	rt.srv.Shutdown()
	for _, name := range rt.Tenants() {
		rt.Detach(name)
	}
}

func normParams(p, e uint32) (uint32, uint32) {
	if e == 0 {
		e = 1
	}
	return p, e
}

// TenantError reports that a reachable, answering server cannot serve
// the requested tenant because it does not host it. Distinct from a
// transport failure: retrying or tolerating the server is wrong, the
// deployment is misconfigured.
type TenantError struct {
	Tenant string
	Err    error
}

func (e *TenantError) Error() string {
	return fmt.Sprintf("server: tenant %q: %v", e.Tenant, e.Err)
}

func (e *TenantError) Unwrap() error { return e.Err }

// ResolveTenant verifies, over an established client connection, that
// the server will dispatch this client's tenant, returning the resolved
// name (the default tenant's name for clients that set none). A server
// that does not host a named tenant — including a bare filter server
// with no tenant table — fails the check with a *TenantError instead of
// silently answering from the wrong table.
func ResolveTenant(c *rmi.Client) (string, error) {
	tenant := c.Tenant()
	var name []byte
	err := c.Call(methodResolveTenant, []byte(tenant), &name)
	switch {
	case err == nil:
		return string(name), nil
	case rmi.IsUnknownTenant(err, tenant):
		return "", &TenantError{Tenant: tenant, Err: err}
	default:
		return "", err
	}
}
