// Command encshare-bench regenerates the paper's tables and figures
// (§6) plus this repo's ablation and scaling studies, printing
// paper-style tables. With -json the tables of the run are also written
// to a machine-readable file (e.g. BENCH_cluster.json), so the perf
// trajectory can be tracked across PRs without scraping stdout.
//
// Usage:
//
//	encshare-bench -experiment all
//	encshare-bench -experiment fig4 -scales 0.5,1,2,4
//	encshare-bench -experiment fig6 -scale 0.2
//	encshare-bench -experiment cluster -shards 1,2,4 -json BENCH_cluster.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"encshare/internal/experiment"
)

// jsonReport is the -json file layout: run parameters plus every table
// the experiment produced, verbatim.
type jsonReport struct {
	Experiment string              `json:"experiment"`
	Scale      float64             `json:"scale"`
	Seed       int64               `json:"seed"`
	Shards     string              `json:"shards,omitempty"`
	Tables     []*experiment.Table `json:"tables"`
}

func main() {
	var (
		which    = flag.String("experiment", "all", "fig4|fig5|fig6|fig7|trie|ablation|compute|cluster|failover|multitenant|aggregate|loadtest|mutate|all")
		scale    = flag.Float64("scale", 0.1, "XMark scale for the query experiments")
		scales   = flag.String("scales", "0.25,0.5,1,2", "comma-separated scales for fig4")
		shards   = flag.String("shards", "1,2,4", "comma-separated shard counts for the cluster experiment")
		sessions = flag.Int("sessions", 0, "concurrent client sessions for the loadtest experiment (0 = default 4)")
		ops      = flag.Int("ops", 0, "timed operations: per session for loadtest (0 = default 24), per class for mutate (0 = default 12)")
		jsonPath = flag.String("json", "", "also write the run's tables to this JSON file")
		seed     = flag.Int64("seed", 42, "workload seed")
	)
	flag.Parse()

	needEnv := map[string]bool{"fig5": true, "fig6": true, "fig7": true, "ablation": true, "compute": true, "cluster": true, "failover": true, "multitenant": true, "aggregate": true, "loadtest": true, "all": true}
	var env *experiment.Env
	if needEnv[*which] {
		var err error
		fmt.Fprintf(os.Stderr, "building encrypted XMark database (scale %.2f)...\n", *scale)
		env, err = experiment.NewEnv(*scale, *seed)
		if err != nil {
			fatal(err)
		}
		defer env.Close()
	}

	report := jsonReport{Experiment: *which, Scale: *scale, Seed: *seed}
	show := func(t *experiment.Table, err error) {
		if err != nil {
			fatal(err)
		}
		if err := t.Fprint(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
		report.Tables = append(report.Tables, t)
	}

	run := func(name string) {
		switch name {
		case "fig4":
			var fs []float64
			for _, s := range strings.Split(*scales, ",") {
				f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
				if err != nil {
					fatal(fmt.Errorf("bad scale %q: %w", s, err))
				}
				fs = append(fs, f)
			}
			show(experiment.Encoding(fs, *seed))
		case "fig5":
			show(experiment.QueryLength(env))
		case "fig6":
			show(experiment.Strictness(env))
			show(experiment.StrictnessWork(env))
		case "fig7":
			show(experiment.Accuracy(env))
		case "trie":
			show(experiment.TrieStorage(*seed))
		case "ablation":
			show(experiment.AblationDescendants(env))
			show(experiment.AblationIndexes(20000))
			show(experiment.AblationSerialization())
			show(experiment.AblationMulStrategy())
		case "compute":
			show(experiment.Compute(env))
		case "cluster":
			var counts []int
			for _, s := range strings.Split(*shards, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil || n < 1 {
					fatal(fmt.Errorf("bad shard count %q", s))
				}
				counts = append(counts, n)
			}
			report.Shards = *shards
			show(experiment.ClusterScaling(env, counts))
		case "failover":
			show(experiment.Failover(env))
		case "multitenant":
			show(experiment.MultiTenant(env))
		case "aggregate":
			show(experiment.AggregateBytes(env))
		case "loadtest":
			tabs, err := experiment.LoadTest(env, experiment.LoadTestConfig{
				Sessions: *sessions, Ops: *ops, Seed: *seed,
			})
			if err != nil {
				fatal(err)
			}
			for _, t := range tabs {
				show(t, nil)
			}
		case "mutate":
			show(experiment.Mutate(experiment.MutateConfig{Ops: *ops, Seed: *seed}))
		default:
			fatal(fmt.Errorf("unknown experiment %q", name))
		}
	}

	if *which == "all" {
		for _, name := range []string{"fig4", "fig5", "fig6", "fig7", "trie", "ablation", "compute", "cluster", "failover", "multitenant", "aggregate", "loadtest", "mutate"} {
			run(name)
		}
	} else {
		run(*which)
	}

	if *jsonPath != "" {
		b, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "encshare-bench:", err)
	os.Exit(1)
}
