package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"encshare"
	"encshare/internal/xmldoc"
)

// runConfig is how long and how often one workload runs.
type runConfig struct {
	seed   int64
	window window        // the untraced, timed window
	traced window        // the traced window; zero: no traced run
	warmup time.Duration // untimed, before each window
	// setup_s is taken from several complete set-ups (quietMean), of which
	// the last is used: at least setups of them, and more (up to maxSetups)
	// until they took setupBudget together, so that a 30 ms set-up is timed
	// often enough to be steady and a 1 s one not longer than it must.
	setups      int
	setupBudget time.Duration
	traceOut    io.Writer // spans of the traced run, one JSON object per line
}

// result is one workload's numbers.
type result struct {
	Workload  string             `json:"workload"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Samples   int                `json:"samples"` // ops behind op_p50_ms and op_p95_ms
	Failure   string             `json:"first_failure,omitempty"`
	WALFS     string             `json:"wal_fs,omitempty"`
}

func (r *result) count(w windowResult) {
	r.Attempted += w.attempted()
	r.Failed += w.failed()
	if r.Failure == "" {
		r.Failure = w.firstFailure()
	}
}

// check records one pass/fail verdict of the harness's own checks as an
// attempted (and possibly failed) op.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		if r.Failure == "" {
			r.Failure = fmt.Sprintf(format, args...)
		}
	}
}

const maxSetups = 15

// setUp performs the set-ups cfg asks for, keeps the last, and returns
// with it the set-up time of the quiet quarter of them.
func setUp(w workload, cfg runConfig) (*inputs, *xmldoc.Doc, *publicStack, float64, error) {
	var (
		in    *inputs
		doc   *xmldoc.Doc
		stack *publicStack
		secs  []float64
	)
	var total float64
	for i := 0; i < cfg.setups || i < maxSetups && total < cfg.setupBudget.Seconds(); i++ {
		if stack != nil {
			if err := stack.close(); err != nil {
				return nil, nil, nil, 0, err
			}
		}
		var times phaseTimes
		var err error
		if in, doc, err = generate(w, cfg.seed, &times); err != nil {
			return nil, nil, nil, 0, err
		}
		if stack, err = buildPublic(in, times); err != nil {
			return nil, nil, nil, 0, err
		}
		in.times = stack.times
		secs = append(secs, stack.times.setupS())
		total += stack.times.setupS()
	}
	return in, doc, stack, quietMean(secs), nil
}

func clientsOf(sessions []*encshare.Session, test encshare.TestKind) []client {
	out := make([]client, len(sessions))
	for i, s := range sessions {
		out[i] = publicClient{s: s, test: test}
	}
	return out
}

// runWorkload measures one workload: set-up, warm-up, the untraced window
// through the public API, the workload's end checks and, when asked, the
// traced run.
func runWorkload(w workload, cfg runConfig) (res result, err error) {
	res = result{Workload: w.name, EndToEnd: map[string]float64{}}
	in, doc, stack, setupS, err := setUp(w, cfg)
	if err != nil {
		return res, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer func() {
		if stack != nil {
			err = errors.Join(err, stack.close())
		}
	}()
	if err := in.expect(doc); err != nil {
		return res, err
	}
	doc = nil // the tree and the oracle are large; only the answers stay
	in.xml = nil

	var digest0 string
	if w.wal {
		res.WALFS = fsType(stack.walDir)
		if digest0, err = tableDigest(stack.dbs[0]); err != nil {
			return res, err
		}
	}
	clients := clientsOf(stack.sessions, w.test)
	lanes := in.lanes(clients, stack.sessions)
	byteLane := -1
	if w.wal {
		byteLane = 0 // the reader's traffic is background, not the op's
	}
	count := func() counters {
		bin, bout := stack.tap.bytes(byteLane)
		return counters{bytes: bin + bout, roundTrips: stack.sessions[0].RoundTrips()}
	}

	// Warm-up is untimed: caches fill and lazy tables build. Its answers
	// are still checked.
	res.count(runWindow(lanes, window{dur: cfg.warmup}, w.cycle(), nil, count))
	runtime.GC()
	slices := runSliced(lanes, cfg.window, w.cycle(), count)
	heapMB := liveHeapMB()
	// Counts come from the whole window; the timings from its quiet
	// quarter (see quietQuarter).
	win, quiet := merge(slices), merge(quietQuarter(slices))
	res.count(win)
	n := float64(len(win.lanes[0].lat))
	lat := sortedCopy(quiet.lanes[0].lat)
	if len(lat) == 0 {
		return res, fmt.Errorf("%s: the window ran no op", w.name)
	}
	res.Samples = len(lat)
	e := res.EndToEnd
	e["setup_s"] = setupS
	e["op_p50_ms"] = msOf(percentile(lat, 0.50))
	e["op_p95_ms"] = msOf(percentile(lat, 0.95))
	e["ops_per_s"] = float64(len(lat)) / quiet.wall.Seconds()
	e["cpu_ms_per_op"] = msOf(quiet.cpu) / float64(len(lat))
	// What the traced run is held against: its windows are not sliced, so
	// neither is this.
	wholeP50 := msOf(percentile(sortedCopy(win.lanes[0].lat), 0.50))
	steadyPct := 100 * (n / win.wall.Seconds()) / e["ops_per_s"]
	e["wire_bytes_per_op"] = float64(win.counts.bytes) / n
	e["round_trips_per_op"] = float64(win.counts.roundTrips) / n
	e["alloc_kb_per_op"] = float64(win.mem1.TotalAlloc-win.mem0.TotalAlloc) / 1024 / n
	e["live_heap_mb"] = heapMB
	e["stored_bytes_per_xml_byte"] = float64(stack.storedBytes) / float64(in.xmlBytes)

	if w.wal {
		// Every edit cycle undid itself, so the table must hold the rows it
		// started from.
		digest1, err := tableDigest(stack.dbs[0])
		if err != nil {
			return res, err
		}
		res.check(digest1 == digest0, "mutate-wal: the table's rows changed over the run")
	}

	if cfg.traced != (window{}) {
		dumps, err := stack.dumps()
		if err != nil {
			return res, err
		}
		err = stack.close()
		stack = nil
		if err != nil {
			return res, err
		}
		if w.wal {
			crashDrill(in, dumps[0], &res)
			res.PerLayer, err = tracedWAL(in, dumps[0], cfg, wholeP50, &res)
		} else {
			res.PerLayer, err = tracedRead(in, dumps, cfg, wholeP50, &res)
		}
		if err != nil {
			return res, fmt.Errorf("%s: traced run: %w", w.name, err)
		}
		res.PerLayer["window.steady_pct"] = steadyPct
		res.PerLayer["encoder.encode_s"] = in.times.encode.Seconds()
		res.PerLayer["encoder.nodes_per_s"] = float64(in.nodes) / in.times.encode.Seconds()
		if w.shards > 1 {
			res.PerLayer["store.load_s"] = in.times.load.Seconds()
		}
	} else if w.wal {
		dump, err := stack.dumps()
		if err != nil {
			return res, err
		}
		crashDrill(in, dump[0], &res)
	}
	// A ratio of 1 means every op, and every end check, gave the right
	// answer; the contract forbids metrics that are normally 0, so this is
	// the complement of a failed-op ratio.
	e["correct_op_ratio"] = 1 - float64(res.Failed)/float64(res.Attempted)
	for name, v := range e {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("%s: %s is %v", w.name, name, v)
		}
	}
	return res, nil
}
