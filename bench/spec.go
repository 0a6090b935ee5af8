package main

import "encshare"

// A workload is one closed-loop traffic mix. The names are stable: later
// issues cite them when they claim a gain or a flat line.
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json
	// scale and docSeed fix the XMark document. The document is part of
	// the workload, not of -seed: documents of different seeds differ by
	// up to 30 % in result sizes, which would swamp every bound below.
	scale   float64
	docSeed int64
	test    encshare.TestKind
	// queries is the op list of a read workload, walked round-robin. For
	// an aggregate workload each entry is cycled through SUM/COUNT/AVG.
	queries []string
	agg     bool
	shards  int  // > 1: a sharded cluster, one connection per shard
	wal     bool // the mutate workload: a journaled writer beside a reader
}

// cycle is the number of ops after which the op sequence repeats.
func (w workload) cycle() int {
	switch {
	case w.wal:
		return 1
	case w.agg:
		return len(w.queries) * len(aggKinds)
	}
	return len(w.queries)
}

var aggKinds = []encshare.AggKind{encshare.AggSum, encshare.AggCount, encshare.AggAvg}

// readerQuery is the background read of mutate-wal.
const readerQuery = "/site/regions/europe/item"

var workloads = []workload{
	{
		name:    "chain-tcp",
		why:     "nine short chain queries on a table that fits every cache: per-frame transport cost dominates",
		scale:   0.1,
		docSeed: 1,
		test:    encshare.TestContainment,
		queries: []string{
			"/site",
			"/site/regions",
			"/site/regions/europe",
			"/site/regions/europe/item",
			"/site/regions/europe/item/description",
			"/site/regions/europe/item/description/parlist",
			"/site/regions/europe/item/description/parlist/listitem",
			"/site/regions/europe/item/description/parlist/listitem/text",
			"/site/regions/europe/item/description/parlist/listitem/text/keyword",
		},
	},
	{
		name:    "scan-large",
		why:     "five descendant/wildcard queries, strict test, on a table larger than the page pool and the poly cache: storage and compute dominate",
		scale:   3,
		docSeed: 1,
		test:    encshare.TestExact,
		queries: []string{
			"/site//europe/item",
			"/site//europe//item",
			"/site/*/person//city",
			"/*/*/open_auction/bidder/date",
			"//bidder/date",
		},
	},
	{
		name:    "agg-cluster",
		why:     "verified SUM/COUNT/AVG over two shards: the only path through cluster scatter/gather and the server-side fold",
		scale:   0.5,
		docSeed: 1,
		test:    encshare.TestExact,
		agg:     true,
		shards:  2,
		queries: []string{
			"/site/regions//item",
			"//bidder/date",
			"/site/*/person//city",
			"/site/regions/europe/item",
			"//open_auction/bidder",
		},
	},
	{
		name:    "mutate-wal",
		why:     "insert/update/delete cycles journaled to a real WAL beside a reader: the write path the read workloads never touch",
		scale:   0.1,
		docSeed: 1,
		test:    encshare.TestContainment,
		wal:     true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef is one registry entry. BENCHMARK.json must list exactly these
// names (bench_test.go checks both directions).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the base it may worsen by
	// Moves says, for a per-layer metric, which end-to-end metric it
	// should move on which workload (README.md has the full table).
	Moves string
}

// endToEnd are the metrics a user of the system sees. Every one is
// reported on every workload, measured with tracing off through the
// public encshare API over loopback TCP. The four timings and the CPU
// time carry the widest bound the contract allows: on this sandbox the
// machine itself drifts by ±10 % over minutes (README.md, "Noise"), and a
// bound must be at least twice the spread seen. The counts repeat to a
// fraction of a percent and keep the issue's bounds.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "wire_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.01},
	{Name: "round_trips_per_op", Unit: "count", Better: "lower", Bound: 0.01},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: "lower", Bound: 0.05},
	{Name: "live_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.10},
	{Name: "stored_bytes_per_xml_byte", Unit: "ratio", Better: "lower", Bound: 0.005},
	{Name: "correct_op_ratio", Unit: "ratio", Better: "higher", Bound: 0.001},
}

// perLayer are the ledger's metrics, from the traced run. Values are per
// op unless the name says otherwise; a layer a workload never enters
// reports 0.
var perLayer = []metricDef{
	{Name: "encshare.client_wire_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on all"},
	{Name: "encshare.client_self_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms, cpu_ms_per_op on scan-large; flat on agg-cluster"},
	{Name: "encshare.reader_p50_ms", Unit: "ms", Better: "lower", Moves: "(secondary) mutate-wal"},
	{Name: "encshare.reader_ops_per_s", Unit: "1/s", Better: "higher", Moves: "(secondary) mutate-wal"},
	{Name: "engine.self_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on chain-tcp (residual: client self time less the secshare replays)"},
	{Name: "engine.exchanges", Unit: "count", Better: "lower", Moves: "round_trips_per_op on chain-tcp, scan-large"},
	{Name: "engine.evals", Unit: "count", Better: "lower", Moves: "cpu_ms_per_op on chain-tcp, scan-large"},
	{Name: "engine.nodes_visited", Unit: "count", Better: "lower", Moves: "cpu_ms_per_op on chain-tcp, scan-large"},
	{Name: "secshare.eval_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms, cpu_ms_per_op on scan-large; flat on chain-tcp"},
	{Name: "secshare.reconstruct_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms, cpu_ms_per_op on scan-large"},
	{Name: "secshare.fold_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on agg-cluster"},
	{Name: "secshare.reconstructions", Unit: "count", Better: "lower", Moves: "cpu_ms_per_op on scan-large"},
	{Name: "prg.mb_per_s", Unit: "MB/s", Better: "higher", Moves: "secshare.eval_ms on scan-large; setup_s"},
	{Name: "rmi.frames", Unit: "count", Better: "lower", Moves: "round_trips_per_op on all"},
	{Name: "rmi.bytes_out", Unit: "B", Better: "lower", Moves: "wire_bytes_per_op on all"},
	{Name: "rmi.bytes_in", Unit: "B", Better: "lower", Moves: "wire_bytes_per_op on all"},
	{Name: "rmi.self_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms, cpu_ms_per_op, ops_per_s on chain-tcp; small share on scan-large"},
	{Name: "rmi.self_us_per_frame", Unit: "us", Better: "lower", Moves: "op_p50_ms on chain-tcp"},
	{Name: "rmi.echo_tcp_us", Unit: "us", Better: "lower", Moves: "rmi.self_us_per_frame on chain-tcp"},
	{Name: "rmi.echo_pipe_us", Unit: "us", Better: "lower", Moves: "rmi.self_us_per_frame on chain-tcp"},
	{Name: "rmi.allocs_per_frame", Unit: "count", Better: "lower", Moves: "alloc_kb_per_op on chain-tcp"},
	{Name: "cluster.self_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on agg-cluster; absent elsewhere"},
	{Name: "cluster.shard_skew_ms", Unit: "ms", Better: "lower", Moves: "op_p95_ms on agg-cluster; absent elsewhere"},
	{Name: "cluster.shard_frames", Unit: "count", Better: "lower", Moves: "round_trips_per_op on agg-cluster; absent elsewhere"},
	{Name: "server.turnaround_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on all"},
	{Name: "server.dispatch_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on chain-tcp, mutate-wal"},
	{Name: "filter.handler_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms, cpu_ms_per_op on scan-large; flat on chain-tcp"},
	{Name: "filter.self_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on scan-large (residual: handler time less the store and ring replays)"},
	{Name: "filter.evals", Unit: "count", Better: "lower", Moves: "cpu_ms_per_op on scan-large"},
	{Name: "filter.decodes", Unit: "count", Better: "lower", Moves: "cpu_ms_per_op on scan-large"},
	{Name: "filter.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "filter.handler_ms: ~1 on chain-tcp, <1 on scan-large"},
	{Name: "filter.fold_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on agg-cluster; absent elsewhere"},
	{Name: "filter.fold_chunks", Unit: "count", Better: "lower", Moves: "wire_bytes_per_op on agg-cluster; absent elsewhere"},
	{Name: "store.replay_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms, op_p95_ms on scan-large; flat on chain-tcp"},
	{Name: "store.rows", Unit: "count", Better: "lower", Moves: "store.replay_ms on scan-large"},
	{Name: "store.pool_hit_ratio", Unit: "ratio", Better: "higher", Moves: "store.replay_ms on scan-large"},
	{Name: "store.pool_misses", Unit: "count", Better: "lower", Moves: "store.replay_ms on scan-large"},
	{Name: "store.pool_evictions", Unit: "count", Better: "lower", Moves: "live_heap_mb, op_p95_ms on scan-large; 0 on chain-tcp"},
	{Name: "ring.replay_ms", Unit: "ms", Better: "lower", Moves: "filter.handler_ms on scan-large; flat on chain-tcp"},
	{Name: "ring.eval_ns_per_poly", Unit: "ns", Better: "lower", Moves: "ring.replay_ms on scan-large"},
	{Name: "ring.decode_ns_per_poly", Unit: "ns", Better: "lower", Moves: "ring.replay_ms on scan-large"},
	{Name: "wal.appends", Unit: "count", Better: "lower", Moves: "op_p50_ms on mutate-wal; absent elsewhere"},
	{Name: "wal.fsyncs", Unit: "count", Better: "lower", Moves: "op_p50_ms, op_p95_ms on mutate-wal; absent elsewhere"},
	{Name: "wal.bytes", Unit: "B", Better: "lower", Moves: "wal.write_ms on mutate-wal; absent elsewhere"},
	{Name: "wal.write_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on mutate-wal; absent elsewhere"},
	{Name: "wal.fsync_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms, op_p95_ms on mutate-wal; absent elsewhere"},
	{Name: "encoder.encode_s", Unit: "s", Better: "lower", Moves: "setup_s on scan-large, agg-cluster"},
	{Name: "encoder.nodes_per_s", Unit: "1/s", Better: "higher", Moves: "setup_s on scan-large, agg-cluster"},
	{Name: "store.load_s", Unit: "s", Better: "lower", Moves: "setup_s on agg-cluster"},
	{Name: "runtime.mallocs_per_op", Unit: "count", Better: "lower", Moves: "alloc_kb_per_op on all"},
	{Name: "runtime.gc_pause_ms_per_s", Unit: "ms/s", Better: "lower", Moves: "op_p95_ms on all"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Moves: "op_p95_ms on all"},
	{Name: "window.steady_pct", Unit: "%", Better: "higher", Moves: "(whole-window throughput as a share of ops_per_s, which is the quiet quarter's: what the machine, or a stall of the program's own, took from the rest)"},
	{Name: "trace.op_ms", Unit: "ms", Better: "lower", Moves: "(the traced op the layers must add up to)"},
	{Name: "trace.residual_pct", Unit: "%", Better: "lower", Moves: "(share of the traced op the ledger gives to engine and filter by subtraction, not by measurement)"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Moves: "(validity of the ledger)"},
}
