// Command encshare-server loads encrypted database files produced by
// encshare-encode and serves the ServerFilter API over TCP (the paper's
// server side, §5.2). The server holds only polynomial shares — it can
// evaluate them at points the client sends, but the results are
// meaningless without the client's seed.
//
// The endpoint speaks both filter protocols: the original per-call
// exchanges and the batched frames (one per engine step), with -workers
// bounding the pool that evaluates batch members in parallel. A shard
// file from encshare-encode -shards serves exactly like a full database
// (the cluster protocol discovers its pre range at dial time);
// -manifest/-shard resolve the shard's file (and listen address, when
// recorded) from a cluster manifest instead of naming it with -db, and
// -replica picks which copy of a replicated shard (encshare-encode
// -replicas) this process serves — every replica is byte-identical, so
// any copy answers any read.
//
// A v2 manifest lists named tenants: one process then serves shard
// -shard of every tenant concurrently, each tenant an independent
// table with its own worker quota and decoded-polynomial cache quota
// (carved from the manifest's cache_budget), dispatched by the tenant
// name in each request frame. Clients that name no tenant are routed to
// the manifest's default tenant. SIGHUP reloads the manifest and
// attaches/detaches tenants live, without dropping the other tenants'
// connections; SIGTERM (and SIGINT) drains gracefully —
// in-flight frames complete and reply, then the process exits 0.
//
// Usage:
//
//	encshare-server -db auction.db -listen :7083 -workers 8 -cache 4096
//	encshare-server -manifest auction.manifest.json -shard 1 -listen :7084
//	encshare-server -manifest auction.manifest.json -shard 1 -replica 1 -listen :7184
//	encshare-server -manifest tenants.json -listen :7083        (v2, single-shard tenants)
//	encshare-server -db auction.db -listen :7083 -metrics :9090
//	encshare-server -db auction.db -listen :7083 -wal /var/lib/encshare/r0
//	kill -HUP <pid>    # reload tenants.json: attach new tenants, detach removed ones
//
// -wal makes writes (encshare-mutate) durable: every mutation batch
// journals to <dir>/wal.log before it touches the table, and a restart
// recovers snapshot + log state in preference to the -db file. Each
// tenant journals under its own subdirectory; each replica process
// needs its own -wal dir. -compact-bytes folds the log into a snapshot
// once it exceeds the given size, and -compact-idle folds it after a
// quiet period with no writes (both default 0, never fold — replica
// logs then stay byte-comparable).
//
// -fault-fsync-after N is a testing hook for disk-fault drills: it
// routes WAL I/O through a fault-injection filesystem that fails the
// n-th and every later fsync, so the affected tenants trip the sticky
// failure rule and degrade to read-only. Never use it in production.
//
// -metrics starts an HTTP listener exposing the runtime's counters —
// RMI frame/byte totals, per-method latency histograms, per-tenant
// eval/cache counters — as Prometheus text at /metrics, JSON at
// /metrics.json, and the pprof handlers at /debug/pprof/.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"

	"encshare/internal/cluster"
	"encshare/internal/iofault"
	"encshare/internal/obs"
	"encshare/internal/server"
	"encshare/internal/wal"
)

func main() {
	var (
		p        = flag.Uint("p", 83, "field characteristic (prime); per-tenant p in a v2 manifest overrides")
		e        = flag.Uint("e", 1, "field extension degree; per-tenant e in a v2 manifest overrides")
		dbPath   = flag.String("db", "encrypted.db", "database file from encshare-encode")
		manifest = flag.String("manifest", "", "cluster manifest from encshare-encode -shards (v1) or a multi-tenant manifest (v2)")
		shard    = flag.Int("shard", -1, "shard index to serve from -manifest (default 0 for single-shard manifests)")
		replica  = flag.Int("replica", 0, "replica index of the shard to serve (with -manifest)")
		listen   = flag.String("listen", "", "listen address (default 127.0.0.1:7083, or the manifest's addr)")
		workers  = flag.Int("workers", 0, "batch worker pool size per tenant (0 = number of CPUs); per-tenant workers in a v2 manifest override")
		cache    = flag.Int("cache", 4096, "decoded-polynomial cache entries per tenant (0 = default 4096, negative disables); per-tenant cache in a v2 manifest overrides")
		metrics  = flag.String("metrics", "", "serve Prometheus metrics, JSON metrics, and pprof on this HTTP address (e.g. :9090); empty disables")
		walDir   = flag.String("wal", "", "journal mutations under this directory (one subdirectory per tenant); empty = writes die with the process")
		compact  = flag.Int64("compact-bytes", 0, "with -wal: fold the log into a snapshot once it exceeds this many bytes (0 never folds)")
		compIdle = flag.Duration("compact-idle", 0, "with -wal: fold the log into a snapshot after this long without a write (0, the default, never folds on idle)")
		faultN   = flag.Int("fault-fsync-after", 0, "TESTING ONLY: fail the n-th and every later WAL fsync, degrading written tenants to read-only (0 disables); for disk-fault drills, never production")
	)
	flag.Parse()

	// The drill filesystem is created once so its fsync counter spans the
	// process lifetime (SIGHUP reloads keep counting, like a real disk).
	var walFS wal.FS
	if *faultN > 0 {
		ffs := iofault.New()
		ffs.FailSyncFrom(*faultN)
		walFS = ffs
		fmt.Fprintf(os.Stderr, "encshare-server: FAULT DRILL: WAL fsync %d and later will fail\n", *faultN)
	}

	if *manifest == "" {
		if *shard >= 0 {
			fatal(fmt.Errorf("-shard requires -manifest"))
		}
		if *replica != 0 {
			fatal(fmt.Errorf("-replica requires -manifest and -shard"))
		}
	}

	// loadPlan re-reads the configuration — it runs once at startup and
	// again on every SIGHUP.
	loadPlan := func() (tenants []server.Tenant, dflt, addr string, budget int, err error) {
		tenantWAL := func(name string) string {
			if *walDir == "" {
				return ""
			}
			if name == "" {
				name = "default"
			}
			return filepath.Join(*walDir, name)
		}
		if *manifest == "" {
			return []server.Tenant{{
				Path: *dbPath, P: uint32(*p), E: uint32(*e),
				Workers: *workers, CacheEntries: *cache,
				WALDir: tenantWAL(""), CompactBytes: *compact,
				CompactIdle: *compIdle, FS: walFS,
			}}, "", "", 0, nil
		}
		m, err := cluster.LoadManifest(*manifest)
		if err != nil {
			return nil, "", "", 0, err
		}
		table := m.TenantTable()
		si := *shard
		if si < 0 {
			if len(table[0].Shards) != 1 {
				return nil, "", "", 0, fmt.Errorf("manifest %s has %d shards: -shard required", *manifest, len(table[0].Shards))
			}
			si = 0
		}
		if si >= len(table[0].Shards) {
			return nil, "", "", 0, fmt.Errorf("-shard %d out of range: manifest %s has %d shards", si, *manifest, len(table[0].Shards))
		}
		for _, tn := range table {
			info := tn.Shards[si]
			dbs := info.ReplicaDBs()
			if len(dbs) == 0 {
				return nil, "", "", 0, fmt.Errorf("manifest tenant %q shard %d has no db file", tn.Name, si)
			}
			if *replica < 0 || *replica >= info.Replicas() {
				return nil, "", "", 0, fmt.Errorf("-replica %d out of range: manifest shard %d has %d replicas", *replica, si, info.Replicas())
			}
			// Replica files are byte-identical; if the manifest lists
			// fewer files than addresses, any copy serves any slot.
			path := dbs[min(*replica, len(dbs)-1)]
			if !filepath.IsAbs(path) {
				path = filepath.Join(filepath.Dir(*manifest), path)
			}
			tp, te := tn.P, tn.E
			if tp == 0 {
				tp, te = uint32(*p), uint32(*e)
			}
			tw := tn.Workers
			if tw == 0 {
				tw = *workers
			}
			tc := tn.Cache
			if tc == 0 {
				tc = *cache // the flag is the default for tenants without a quota
			}
			tenants = append(tenants, server.Tenant{
				Name: tn.Name, Path: path, P: tp, E: te,
				Workers: tw, CacheEntries: tc,
				WALDir: tenantWAL(tn.Name), CompactBytes: *compact,
				CompactIdle: *compIdle, FS: walFS,
			})
			if addr == "" {
				if addrs := info.ReplicaAddrs(); *replica < len(addrs) {
					addr = addrs[*replica]
				}
			}
		}
		return tenants, m.DefaultTenant(), addr, m.CacheBudget, nil
	}

	tenants, dflt, addr, budget, err := loadPlan()
	if err != nil {
		fatal(err)
	}
	if *listen != "" {
		addr = *listen
	}
	if addr == "" {
		addr = "127.0.0.1:7083"
	}

	rt := server.New(server.Config{CacheBudget: budget, Default: dflt})
	for _, t := range tenants {
		if err := rt.AttachFile(t); err != nil {
			fatal(err)
		}
	}

	l, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	banner(rt, l.Addr())

	if *metrics != "" {
		ml, err := net.Listen("tcp", *metrics)
		if err != nil {
			fatal(fmt.Errorf("metrics listener: %w", err))
		}
		fmt.Printf("metrics on http://%s/metrics (JSON at /metrics.json, pprof at /debug/pprof/)\n", ml.Addr())
		go func() {
			if err := http.Serve(ml, obs.NewMux(rt.Metrics())); err != nil {
				fmt.Fprintln(os.Stderr, "encshare-server: metrics listener:", err)
			}
		}()
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT, syscall.SIGHUP)
	go func() {
		for s := range sig {
			if s != syscall.SIGHUP {
				fmt.Printf("%s: draining in-flight frames and shutting down\n", s)
				rt.Shutdown()
				return
			}
			if *manifest == "" {
				fmt.Println("SIGHUP ignored: no -manifest to reload")
				continue
			}
			tenants, dflt, _, _, err := loadPlan()
			if err != nil {
				fmt.Fprintln(os.Stderr, "encshare-server: reload failed, keeping current tenants:", err)
				continue
			}
			attached, detached, err := rt.Apply(tenants, dflt)
			if err != nil {
				fmt.Fprintln(os.Stderr, "encshare-server: reload incomplete:", err)
			}
			fmt.Printf("reloaded %s: attached %q, detached %q, serving %q\n",
				*manifest, attached, detached, rt.Tenants())
		}
	}()

	if err := rt.Serve(l); err != nil {
		fatal(err)
	}
}

// banner prints what the process serves: per-tenant node counts for
// multi-tenant runtimes, the classic single-line form otherwise.
func banner(rt *server.Runtime, addr net.Addr) {
	counts, err := rt.NodeCounts()
	if err != nil {
		fatal(err)
	}
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 1 && names[0] == "" {
		fmt.Printf("serving %d encrypted nodes on %s\n", counts[""], addr)
		return
	}
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s: %d nodes", name, counts[name])
	}
	fmt.Printf("serving %d tenants on %s (default %s) — %s\n",
		len(names), addr, rt.Default(), strings.Join(parts, ", "))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "encshare-server:", err)
	os.Exit(1)
}
