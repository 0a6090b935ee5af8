package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the code's registry")

// benchmarkJSON renders the registry in BENCHMARK.json's shape.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	file := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		file.Workloads = append(file.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		file.EndToEnd = append(file.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		file.PerLayer = append(file.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// TestBenchmarkFile: the code's registry and BENCHMARK.json agree both
// ways, and every name and unit is of the shape the contract accepts.
func TestBenchmarkFile(t *testing.T) {
	want := benchmarkJSON()
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json differs from the registry in spec.go; run go test -run TestBenchmarkFile -update")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q): bad or repeated name or unit", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(got))
	}
}

// small shrinks a workload to a document of about 600 nodes.
func small(w workload) workload {
	w.scale = 0.02
	return w
}

// testConfig bounds every window by op count and skips the warm-up: a
// timed warm-up sends a varying number of frames, and a frame's sequence
// number is a varint, so byte counts would differ by a byte per frame
// around a power of 256.
func testConfig(ops int) runConfig {
	return runConfig{seed: 7, setups: 1, window: window{ops: ops}, traced: window{ops: ops}}
}

// TestSchemaSmoke: every workload, run briefly on a small document, emits
// every registered metric exactly once and finite, and answers every op
// correctly.
func TestSchemaSmoke(t *testing.T) {
	for _, w := range workloads {
		w := small(w)
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(w, testConfig(2*w.cycle()))
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%d of %d ops failed: %s", res.Failed, res.Attempted, res.Failure)
			}
			for _, kind := range []struct {
				defs []metricDef
				vals map[string]float64
			}{{endToEnd, res.EndToEnd}, {perLayer, res.PerLayer}} {
				if len(kind.vals) != len(kind.defs) {
					t.Errorf("%d metrics reported, %d registered", len(kind.vals), len(kind.defs))
				}
				for _, d := range kind.defs {
					v, ok := kind.vals[d.Name]
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s: missing or not finite (%v)", d.Name, v)
					}
				}
			}
			for _, d := range endToEnd {
				if res.EndToEnd[d.Name] == 0 {
					t.Errorf("%s is 0", d.Name)
				}
			}
		})
	}
}

// countMetrics are the per-layer metrics that are counts of a fixed op
// sequence on a single session: they must repeat exactly.
var countMetrics = []string{
	"engine.exchanges", "engine.evals", "engine.nodes_visited", "secshare.reconstructions",
	"rmi.frames", "rmi.bytes_out", "rmi.bytes_in", "cluster.shard_frames",
	"filter.evals", "filter.decodes", "filter.fold_chunks", "store.rows",
}

// TestDeterminism: the same seed twice gives identical wire bytes, round
// trips, stored bytes and per-layer counts over a fixed op count; another
// seed gives another table and another rotation of the op list.
func TestDeterminism(t *testing.T) {
	for _, name := range []string{"chain-tcp", "scan-large"} {
		w, _ := findWorkload(name)
		w = small(w)
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(2 * w.cycle())
			a, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []string{"wire_bytes_per_op", "round_trips_per_op", "stored_bytes_per_xml_byte"} {
				if a.EndToEnd[m] != b.EndToEnd[m] {
					t.Errorf("%s: %v then %v", m, a.EndToEnd[m], b.EndToEnd[m])
				}
			}
			for _, m := range countMetrics {
				if a.PerLayer[m] != b.PerLayer[m] {
					t.Errorf("%s: %v then %v", m, a.PerLayer[m], b.PerLayer[m])
				}
			}
		})
	}

	w, _ := findWorkload("chain-tcp")
	w = small(w)
	digests := map[string]bool{}
	for _, seed := range []int64{1, 2} {
		var times phaseTimes
		in, _, err := generate(w, seed, &times)
		if err != nil {
			t.Fatal(err)
		}
		stack, err := buildPublic(in, times)
		if err != nil {
			t.Fatal(err)
		}
		d, err := tableDigest(stack.dbs[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := stack.close(); err != nil {
			t.Fatal(err)
		}
		digests[d] = true
	}
	if len(digests) != 2 {
		t.Error("seeds 1 and 2 produced the same share table")
	}
	w.docSeed = 2
	var times phaseTimes
	a, _, err := generate(small(workloads[0]), 1, &times)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := generate(w, 1, &times)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.xml, b.xml) {
		t.Error("document seeds 1 and 2 produced the same document")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
	if got := spread([]float64{10, 10, 10}); got != 0 {
		t.Errorf("spread of a constant = %v", got)
	}
}

// TestQuietQuarter: the timings come from the quarter of the slices with
// the highest throughput, added up; the counts from all of them.
func TestQuietQuarter(t *testing.T) {
	slice := func(ops int, wall time.Duration) windowResult {
		return windowResult{lanes: []laneResult{{lat: make([]time.Duration, ops)}}, wall: wall, cpu: wall, counts: counters{bytes: int64(ops)}}
	}
	var slices []windowResult
	for _, ops := range []int{50, 90, 40, 100, 60, 70, 80, 30} {
		slices = append(slices, slice(ops, time.Second))
	}
	slices = append(slices, slice(200, 4*time.Second)) // many ops, but slowly
	q := merge(quietQuarter(slices))
	if n := len(q.lanes[0].lat); n != 190 || q.wall != 2*time.Second || q.cpu != 2*time.Second {
		t.Errorf("quiet quarter of nine slices: %d ops in %v, want the two fastest: 190 ops in 2s", n, q.wall)
	}
	if all := merge(slices); len(all.lanes[0].lat) != 720 || all.counts.bytes != 720 || all.wall != 12*time.Second {
		t.Errorf("whole window: %d ops, %d bytes in %v", len(all.lanes[0].lat), all.counts.bytes, all.wall)
	}
	if got := len(quietQuarter(slices[:3])); got != 1 {
		t.Errorf("quiet quarter of three slices has %d", got)
	}
	if got := quietMean([]float64{5, 1, 9, 3, 7, 2, 8, 6}); got != 1.5 {
		t.Errorf("quietMean = %v, want 1.5", got)
	}
}

func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		base, cur, spread, bound float64
		better, want             string
	}{
		{100, 105, 0.01, 0.10, "lower", "ok"},
		{100, 115, 0.01, 0.10, "lower", "regressed"},
		{100, 85, 0.01, 0.10, "higher", "regressed"},
		{100, 130, 0.01, 0.10, "higher", "ok"},
		{100, 115, 0.20, 0.10, "lower", "unresolved"},
	} {
		if _, got := verdict(tc.base, tc.cur, tc.spread, 0, tc.bound, tc.better); got != tc.want {
			t.Errorf("verdict(%v → %v, spread %v, bound %v, %s) = %s, want %s", tc.base, tc.cur, tc.spread, tc.bound, tc.better, got, tc.want)
		}
	}
}

// TestLedgerBlockingPath: of two exchanges that ran side by side under a
// cluster span only the one that finished last is on the path, so the
// levels' self times add up to the op.
func TestLedgerBlockingPath(t *testing.T) {
	mk := func(level, shard int, start, end int64) span {
		return span{Level: level, Shard: shard, Start: start, End: end, Parent: -1, Op: -1}
	}
	spans := []span{
		mk(lvOp, -1, 0, 100),
		mk(lvCluster, -1, 10, 90),
		mk(lvExchange, 0, 12, 50),
		mk(lvExchange, 1, 13, 80),
		mk(lvTurn, 0, 20, 40),
		mk(lvTurn, 1, 20, 85), // overhangs its exchange: cut back to 80
		mk(lvHandler, 1, 30, 60),
	}
	for i := range spans {
		spans[i].ID = i
	}
	lg := analyze(spans).ledger(0, len(spans))
	want := [numLevels]int64{lvOp: 20, lvCluster: 13, lvExchange: 7, lvTurn: 30, lvHandler: 30}
	if !reflect.DeepEqual(lg.self, want) {
		t.Errorf("self = %v, want %v", lg.self, want)
	}
	var sum int64
	for _, v := range lg.self {
		sum += v
	}
	if sum != lg.opNs || lg.skewNs != 67-38 || lg.frames != 2 || lg.shardFrames != 2 || lg.topCalls != 1 {
		t.Errorf("sum %d of op %d, skew %d, frames %d/%d, top calls %d", sum, lg.opNs, lg.skewNs, lg.frames, lg.shardFrames, lg.topCalls)
	}
}
