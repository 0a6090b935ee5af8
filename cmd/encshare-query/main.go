// Command encshare-query runs XPath-subset queries against an
// encshare-server, acting as the paper's client (§5.2–5.3): it holds the
// seed and map files, regenerates client polynomial shares locally, and
// combines them with server evaluations.
//
// Queries default to the batched pipeline (one filter exchange per
// engine step); -percall restores the paper's one-exchange-per-check
// protocol for comparison. -addr accepts a comma-separated list of
// shard servers (from encshare-encode -shards): the client dials each
// server, learns its pre range, and scatters every batched step as at
// most one concurrent frame per shard. Servers holding the same range
// (encshare-encode -replicas) are grouped automatically into replica
// failover sets — list them flat, in any order; -hedge additionally
// fires straggling frames at a second replica.
//
// Usage:
//
//	encshare-query -seed seed.key -map tags.map -addr 127.0.0.1:7083 '/site//europe/item'
//	encshare-query -addr 127.0.0.1:7083,127.0.0.1:7084,127.0.0.1:7085 ... '/site//europe/item'
//	encshare-query -addr 127.0.0.1:7083,127.0.0.1:7183,127.0.0.1:7084,127.0.0.1:7184 -hedge ... '//item'
//	encshare-query -engine simple -test containment ... '//bidder/date'
//	encshare-query -percall -v ... '/site//europe/item'
//	encshare-query -agg sum ... '//item'
//	encshare-query -trace ... '/site//europe/item'
//	encshare-query -stats ... '//item'
//
// -trace records a span tree for the query — one span per engine step,
// one per shard frame with wall time and byte counts, events for
// failovers and hedges — and prints it as an indented timing report.
// -stats fetches and prints the server-side work counters (merged over
// every shard replica) after the query.
//
// -agg count|sum|avg folds the matching rows server-side instead of
// listing them: each shard returns one folded share blob per chunk
// (O(shards) bytes instead of O(rows)), the client completes the
// aggregate with its regenerated shares, and a verification share
// detects a shard returning wrong folds.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"encshare"
)

func main() {
	var (
		p        = flag.Uint("p", 83, "field characteristic (prime)")
		e        = flag.Uint("e", 1, "field extension degree")
		seedPath = flag.String("seed", "seed.key", "seed file")
		mapPath  = flag.String("map", "tags.map", "map file")
		addr     = flag.String("addr", "127.0.0.1:7083", "server address, or comma-separated shard addresses")
		engName  = flag.String("engine", "advanced", "engine: simple or advanced")
		testName = flag.String("test", "exact", "test: exact (strict) or containment (non-strict)")
		percall  = flag.Bool("percall", false, "use the paper's one-exchange-per-check protocol instead of batching")
		hedge    = flag.Bool("hedge", false, "hedge straggling per-shard frames on a second replica")
		tolerate = flag.Bool("tolerate-down", false, "skip unreachable servers at dial time (replicas must still cover the table)")
		agg      = flag.String("agg", "", "aggregate the matching rows instead of listing them: count, sum, or avg")
		tenant   = flag.String("tenant", "", "tenant to query on a multi-tenant server (default: the server's default tenant)")
		cworkers = flag.Int("client-workers", 0, "client-side worker pool for share streams and reconstructions (0 = number of CPUs)")
		trace    = flag.Bool("trace", false, "trace the query and print the span tree (per-step, per-shard frame timings)")
		stats    = flag.Bool("stats", false, "print the merged server-side work counters after the query")
		verbose  = flag.Bool("v", false, "print work statistics")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fatal(fmt.Errorf("exactly one query argument expected"))
	}

	var opts encshare.QueryOptions
	switch *engName {
	case "advanced":
		opts.Engine = encshare.Advanced
	case "simple":
		opts.Engine = encshare.Simple
	default:
		fatal(fmt.Errorf("unknown engine %q", *engName))
	}
	switch *testName {
	case "exact", "strict":
		opts.Test = encshare.TestExact
	case "containment", "non-strict":
		opts.Test = encshare.TestContainment
	default:
		fatal(fmt.Errorf("unknown test %q", *testName))
	}
	if *percall {
		opts.Batch = encshare.PerCall
	}

	seed, err := os.ReadFile(*seedPath)
	if err != nil {
		fatal(err)
	}
	mf, err := os.Open(*mapPath)
	if err != nil {
		fatal(err)
	}
	keys, err := encshare.LoadKeys(encshare.Params{P: uint32(*p), E: uint32(*e)}, seed, mf)
	mf.Close()
	if err != nil {
		fatal(err)
	}

	addrs := strings.Split(*addr, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	session, err := encshare.DialClusterWith(keys, addrs, encshare.ClusterOptions{
		Hedge:               *hedge,
		TolerateUnreachable: *tolerate,
		Tenant:              *tenant,
		ClientWorkers:       *cworkers,
	})
	if err != nil {
		fatal(err)
	}
	defer session.Close()
	if *trace {
		session.SetTracing(true)
	}

	var res encshare.Result
	if *agg != "" {
		var kind encshare.AggKind
		switch *agg {
		case "count":
			kind = encshare.AggCount
		case "sum":
			kind = encshare.AggSum
		case "avg":
			kind = encshare.AggAvg
		default:
			fatal(fmt.Errorf("unknown aggregate %q (want count, sum, or avg)", *agg))
		}
		ar, err := session.AggregateWith(flag.Arg(0), kind, encshare.AggregateOptions{Query: opts})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s over %d matching nodes", kind, ar.Count)
		if kind != encshare.AggCount {
			vec := ar.Sum
			label := "sum"
			if kind == encshare.AggAvg {
				vec, label = ar.Avg, "avg"
			}
			fmt.Printf(": %s coefficients %v", label, vec)
		}
		fmt.Println()
		if ar.Verified {
			fmt.Println("verification share: OK")
		}
		res = encshare.Result{Pres: ar.Pres, Stats: ar.Stats}
	} else {
		var err error
		res, err = session.QueryWith(flag.Arg(0), opts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%d matching nodes (pre positions): %v\n", len(res.Pres), res.Pres)
	}
	if *trace {
		if t := session.Trace(); t != nil {
			t.Render(os.Stdout)
		}
	}
	if *stats {
		ss, err := session.ServerStats()
		if err != nil {
			fatal(fmt.Errorf("fetching server stats: %w", err))
		}
		label := session.Tenant()
		if label == "" {
			label = "default"
		}
		fmt.Printf("server stats (tenant %s, merged over %d shards):\n", label, session.Shards())
		for _, row := range [][2]any{
			{"evaluations", ss.Evals},
			{"cache hits", ss.CacheHits},
			{"cache misses", ss.CacheMisses},
			{"blob decodes", ss.Decodes},
			{"aggregate folds", ss.Aggregates},
		} {
			fmt.Printf("  %-16s %d\n", row[0], row[1])
		}
	}
	if *verbose {
		fmt.Printf("evaluations=%d reconstructions=%d nodes-fetched=%d folds=%d round-trips=%d elapsed=%s\n",
			res.Stats.Evaluations, res.Stats.Reconstructions,
			res.Stats.NodesFetched, res.Stats.Folds, session.RoundTrips(), res.Stats.Elapsed)
		if ss, err := session.ServerStats(); err == nil {
			label := session.Tenant()
			if label == "" {
				label = "default"
			}
			fmt.Printf("tenant=%s server-evals=%d cache-hits=%d cache-misses=%d decodes=%d\n",
				label, ss.Evals, ss.CacheHits, ss.CacheMisses, ss.Decodes)
		}
		if per := session.ShardRoundTrips(); per != nil {
			fmt.Printf("per-shard round-trips: %v (replicas per shard: %v)\n", per, session.Replicas())
			if fo, h := session.Failovers(), session.Hedges(); fo > 0 || h > 0 {
				fmt.Printf("failovers=%d hedged-frames=%d\n", fo, h)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "encshare-query:", err)
	os.Exit(1)
}
