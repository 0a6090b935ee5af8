// Top-level benchmarks: one per table/figure of the paper's evaluation
// (§6), delegating to the internal/experiment harness. Run with
//
//	go test -bench=. -benchmem
//
// Shapes to expect (cf. EXPERIMENTS.md): Fig4 encoding scales linearly;
// Fig5 advanced ≥ simple by a constant factor on chain queries; Fig6
// advanced beats simple on all five // queries; Fig7 containment accuracy
// drops with each //.
package encshare_test

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"encshare/internal/engine"
	"encshare/internal/experiment"
	"encshare/internal/filter"
	"encshare/internal/rmi"
	"encshare/internal/xpath"
)

// benchEnv caches one encrypted XMark database per scale across
// benchmarks (building it is expensive and not what we measure).
var (
	benchEnvMu sync.Mutex
	benchEnvs  = map[float64]*experiment.Env{}
)

func getEnv(b *testing.B, scale float64) *experiment.Env {
	b.Helper()
	benchEnvMu.Lock()
	defer benchEnvMu.Unlock()
	if env, ok := benchEnvs[scale]; ok {
		return env
	}
	env, err := experiment.NewEnv(scale, 42)
	if err != nil {
		b.Fatal(err)
	}
	benchEnvs[scale] = env
	return env
}

// BenchmarkFig4Encoding regenerates Fig. 4: full encode pipeline (XMark
// generation excluded) at three input sizes; b.SetBytes reports
// throughput against the input XML size.
func BenchmarkFig4Encoding(b *testing.B) {
	for _, scale := range []float64{0.25, 0.5, 1.0} {
		b.Run(fmt.Sprintf("scale=%.2f", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t, err := experiment.Encoding([]float64{scale}, 42)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 && testing.Verbose() {
					t.Fprint(io.Discard)
				}
			}
		})
	}
}

// BenchmarkFig5QueryLength regenerates Fig. 5 / Table 1: each sub-bench
// is one (engine, query-length) point of the plot; ns/op is the engine
// runtime, and the evaluation counts are reported as custom metrics.
func BenchmarkFig5QueryLength(b *testing.B) {
	env := getEnv(b, 0.1)
	for i, qs := range experiment.Table1Queries {
		q := xpath.MustParse(qs)
		for _, eng := range []engine.Engine{env.Simple, env.Advanced} {
			b.Run(fmt.Sprintf("len=%d/%s", i+1, eng.Name()), func(b *testing.B) {
				var evals int64
				for n := 0; n < b.N; n++ {
					res, err := eng.Run(q, engine.Containment)
					if err != nil {
						b.Fatal(err)
					}
					evals = res.Stats.Evaluations
				}
				b.ReportMetric(float64(evals), "evals")
			})
		}
	}
}

// BenchmarkFig6Strictness regenerates Fig. 6 / Table 2: the four
// (engine, test) configurations on the five queries; ns/op is the
// execution time the paper plots.
func BenchmarkFig6Strictness(b *testing.B) {
	env := getEnv(b, 0.1)
	combos := []struct {
		name string
		eng  engine.Engine
		test engine.Test
	}{
		{"non-strict/simple", env.Simple, engine.Containment},
		{"strict/simple", env.Simple, engine.Equality},
		{"non-strict/advanced", env.Advanced, engine.Containment},
		{"strict/advanced", env.Advanced, engine.Equality},
	}
	for i, qs := range experiment.Table2Queries {
		q := xpath.MustParse(qs)
		for _, c := range combos {
			b.Run(fmt.Sprintf("q%d/%s", i+1, c.name), func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					if _, err := c.eng.Run(q, c.test); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig7Accuracy regenerates Fig. 7: the E/C accuracy ratio per
// Table 2 query, reported as a custom metric.
func BenchmarkFig7Accuracy(b *testing.B) {
	env := getEnv(b, 0.1)
	for i, qs := range experiment.Table2Queries {
		q := xpath.MustParse(qs)
		b.Run(fmt.Sprintf("q%d", i+1), func(b *testing.B) {
			var acc float64
			for n := 0; n < b.N; n++ {
				eq, err := env.Simple.Run(q, engine.Equality)
				if err != nil {
					b.Fatal(err)
				}
				co, err := env.Simple.Run(q, engine.Containment)
				if err != nil {
					b.Fatal(err)
				}
				if len(co.Pres) > 0 {
					acc = 100 * float64(len(eq.Pres)) / float64(len(co.Pres))
				} else {
					acc = 100
				}
			}
			b.ReportMetric(acc, "accuracy%")
		})
	}
}

// BenchmarkTrieStorage regenerates the §4 storage-claims table.
func BenchmarkTrieStorage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.TrieStorage(42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDescendants measures the boundary-scan optimization.
func BenchmarkAblationDescendants(b *testing.B) {
	env := getEnv(b, 0.1)
	root, err := env.Store.Root()
	if err != nil {
		b.Fatal(err)
	}
	kids, err := env.Store.Children(root.Pre)
	if err != nil {
		b.Fatal(err)
	}
	target := kids[1] // a mid-size subtree (categories)
	b.Run("boundary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := env.Store.Descendants(target.Pre, target.Post); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := env.Store.DescendantsNaive(target.Pre, target.Post); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRemoteRoundTrips compares the batched pipeline against the
// paper's per-call protocol over the actual RMI transport: ns/op is the
// query latency and the rtts/op metric is the number of server
// exchanges — the quantity the batch pipeline collapses from
// O(candidates) to O(steps).
func BenchmarkRemoteRoundTrips(b *testing.B) {
	env := getEnv(b, 0.1)
	srv := rmi.NewServer()
	filter.RegisterServer(srv, filter.NewServerFilter(env.Store, env.Ring, 4096))
	cli := rmi.Pipe(srv)
	defer cli.Close()
	rem := filter.NewRemote(cli)
	fcli := filter.NewClient(rem, env.Scheme)

	combos := []struct {
		name string
		eng  engine.Engine
	}{
		{"batched/simple", engine.NewSimple(fcli, env.Map)},
		{"percall/simple", engine.NewSimplePerCall(fcli, env.Map)},
		{"batched/advanced", engine.NewAdvanced(fcli, env.Map)},
		{"percall/advanced", engine.NewAdvancedPerCall(fcli, env.Map)},
	}
	q := xpath.MustParse("/site//europe/item")
	for _, c := range combos {
		b.Run(c.name, func(b *testing.B) {
			start := rem.RoundTrips()
			for n := 0; n < b.N; n++ {
				if _, err := c.eng.Run(q, engine.Containment); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rem.RoundTrips()-start)/float64(b.N), "rtts/op")
		})
	}
}

// BenchmarkXMarkQueryCPU is the compute-bound end-to-end benchmark: a
// full XMark query through an in-process (network-free) session, so
// ns/op is pure client+server compute — share decoding, client-share
// regeneration, and polynomial evaluation — with no transport in the
// way. This is the headline number of the hot-path compute engine work.
func BenchmarkXMarkQueryCPU(b *testing.B) {
	env := getEnv(b, 0.1)
	q := xpath.MustParse("/site//europe/item")
	combos := []struct {
		name string
		test engine.Test
	}{
		{"nonstrict", engine.Containment},
		{"strict", engine.Equality},
	}
	for _, c := range combos {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := env.Advanced.Run(q, c.test); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEndToEndQuery measures the public API round-trip (local
// session, default options) — the number a downstream user would see.
func BenchmarkEndToEndQuery(b *testing.B) {
	env := getEnv(b, 0.1)
	q := xpath.MustParse("/site//europe/item")
	for i := 0; i < b.N; i++ {
		if _, err := env.Advanced.Run(q, engine.Equality); err != nil {
			b.Fatal(err)
		}
	}
}
