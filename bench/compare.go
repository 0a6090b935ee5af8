package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads: each
// end-to-end metric's direction and bound.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadBenchmarkFile reads BENCHMARK.json from the nearest directory
// upwards from the working one that has it.
func loadBenchmarkFile() (benchmarkFile, error) {
	var bf benchmarkFile
	dir, err := os.Getwd()
	if err != nil {
		return bf, err
	}
	path := filepath.Join(dir, "BENCHMARK.json")
	for {
		if _, err := os.Stat(path); err == nil {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return bf, fmt.Errorf("no BENCHMARK.json in the working directory or above it")
		}
		dir, path = parent, filepath.Join(parent, "BENCHMARK.json")
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

func loadReport(path string) (report, error) {
	var r report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Sets) == 0 {
		return r, fmt.Errorf("%s: no sets", path)
	}
	return r, nil
}

// verdict compares one metric's medians. worse is the share of the base by
// which the new median is worse (negative: better); a metric whose own
// run-to-run spread, on either side, exceeds the bound cannot resolve a
// change of the bound's size.
func verdict(base, cur, spreadBase, spreadCur, bound float64, better string) (worse float64, v string) {
	if base != 0 {
		worse = (cur - base) / base
	}
	if better == "higher" {
		worse = -worse
	}
	switch {
	case spreadBase > bound || spreadCur > bound:
		v = "unresolved"
	case worse > bound:
		v = "regressed"
	default:
		v = "ok"
	}
	return worse, v
}

// compareFiles prints one row per workload × end-to-end metric and fails
// when any row regressed.
func compareFiles(basePath, newPath string, w io.Writer) error {
	bf, err := loadBenchmarkFile()
	if err != nil {
		return err
	}
	base, err := loadReport(basePath)
	if err != nil {
		return err
	}
	cur, err := loadReport(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "base %s (commit %s, %d sets)\nnew  %s (commit %s, %d sets)\n",
		basePath, base.Header.Commit, len(base.Sets), newPath, cur.Header.Commit, len(cur.Sets))
	fmt.Fprintf(w, "%-12s %-26s %12s %12s %9s %7s %7s  %s\n", "workload", "metric", "base", "new", "new/base", "bound", "spread", "verdict")
	regressed, unresolved, loose := 0, 0, 0
	for _, wl := range base.workloadNames() {
		for _, m := range bf.EndToEnd {
			bv, cv := base.values(wl, m.Name), cur.values(wl, m.Name)
			if len(bv) == 0 || len(cv) == 0 {
				return fmt.Errorf("%s %s: missing from one of the files", wl, m.Name)
			}
			b, c := median(bv), median(cv)
			sb, sc := spread(bv), spread(cv)
			_, v := verdict(b, c, sb, sc, m.Bound, m.Better)
			switch v {
			case "regressed":
				regressed++
			case "unresolved":
				unresolved++
			}
			sp := sb
			if sc > sp {
				sp = sc
			}
			// A bound resolves changes of its own size only when it is at
			// least twice the spread; a row that is not there yet is
			// marked, whatever its verdict.
			if sp > m.Bound/2 {
				loose++
				v += "*"
			}
			ratio := 0.0
			if b != 0 {
				ratio = c / b
			}
			fmt.Fprintf(w, "%-12s %-26s %12.4f %12.4f %9.4f %6.1f%% %6.2f%%  %s\n", wl, m.Name, b, c, ratio, 100*m.Bound, 100*sp, v)
		}
	}
	fmt.Fprintf(w, "%d regressed, %d unresolved\n", regressed, unresolved)
	if loose > 0 {
		fmt.Fprintf(w, "* %d rows spread over half their bound between the sets of one file: there a change smaller than twice the spread is not told from noise\n", loose)
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed beyond their bounds", regressed)
	}
	return nil
}
