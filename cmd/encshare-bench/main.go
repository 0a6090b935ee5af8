// Command encshare-bench regenerates the paper's tables and figures
// (§6), the §4 trie claims and this repo's ablations, printing
// paper-style tables. Every query figure is checked against the
// plaintext oracle by answer set. This system's own performance is
// measured by the bench/ module (bench/run.sh), not here.
//
// Usage:
//
//	encshare-bench -experiment all
//	encshare-bench -experiment fig4 -scales 0.5,1,2,4
//	encshare-bench -experiment fig6 -scale 0.2
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"encshare/internal/experiment"
)

func main() {
	var (
		which  = flag.String("experiment", "all", "fig4|fig5|fig6|fig7|trie|ablation|all")
		scale  = flag.Float64("scale", 0.1, "XMark scale for the query experiments")
		scales = flag.String("scales", "0.25,0.5,1,2", "comma-separated scales for fig4")
		seed   = flag.Int64("seed", 42, "workload seed")
	)
	flag.Parse()

	needEnv := map[string]bool{"fig5": true, "fig6": true, "fig7": true, "ablation": true, "all": true}
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

	show := func(t *experiment.Table, err error) {
		if err != nil {
			fatal(err)
		}
		if err := t.Fprint(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
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
		default:
			fatal(fmt.Errorf("unknown experiment %q", name))
		}
	}

	if *which == "all" {
		for _, name := range []string{"fig4", "fig5", "fig6", "fig7", "trie", "ablation"} {
			run(name)
		}
	} else {
		run(*which)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "encshare-bench:", err)
	os.Exit(1)
}
