package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"encshare"
)

// answer is what one op returned, in the shape the checks need.
type answer struct {
	pres     []int64
	count    int64 // aggregates
	verified bool  // aggregates
	stats    encshare.Stats
}

// client is one session as the op loop sees it: the public one wraps an
// encshare.Session, the traced one a seamStack.
type client interface {
	query(q string) (answer, error)
	aggregate(q string, kind encshare.AggKind) (answer, error)
}

type publicClient struct {
	s    *encshare.Session
	test encshare.TestKind
}

func (c publicClient) query(q string) (answer, error) {
	res, err := c.s.QueryWith(q, encshare.QueryOptions{Test: c.test})
	return answer{pres: res.Pres, stats: res.Stats}, err
}

func (c publicClient) aggregate(q string, kind encshare.AggKind) (answer, error) {
	res, err := c.s.Aggregate(q, kind)
	if err == nil && res.Downgraded {
		err = fmt.Errorf("aggregate %s was not folded server-side", q)
	}
	return answer{pres: res.Pres, count: res.Count, verified: res.Verified, stats: res.Stats}, err
}

// outcome is one finished op. failed covers both an error and a wrong
// answer: either way the user did not get what they asked for.
type outcome struct {
	name   string
	failed bool
	why    string
	stats  encshare.Stats
}

func fail(name, format string, args ...any) outcome {
	return outcome{name: name, failed: true, why: fmt.Sprintf(format, args...)}
}

func equalPres(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// readOp runs the i-th op of a read workload and checks it against the
// oracle: the strict test must return exactly the XPath answer, the
// containment test exactly the oracle's containment answer (which is a
// superset of the XPath answer by construction), and an aggregate must
// fold exactly the matching rows and pass its verification.
func (in *inputs) readOp(c client, i int) outcome {
	w := in.w
	i += in.start
	qs := w.queries[i%len(w.queries)]
	if w.agg {
		kind := aggKinds[i%len(aggKinds)]
		name := fmt.Sprintf("%s(%s)", kind, qs)
		a, err := c.aggregate(qs, kind)
		switch want := in.exact[qs]; {
		case err != nil:
			return fail(name, "%v", err)
		case a.count != int64(len(want)) || !equalPres(a.pres, want):
			return fail(name, "folded %d rows, oracle has %d", a.count, len(want))
		case !a.verified:
			return fail(name, "fold was not verified")
		}
		return outcome{name: name, stats: a.stats}
	}
	return in.checkQuery(c, qs, w.test)
}

func (in *inputs) checkQuery(c client, qs string, test encshare.TestKind) outcome {
	a, err := c.query(qs)
	if err != nil {
		return fail(qs, "%v", err)
	}
	want := in.exact[qs]
	if test == encshare.TestContainment {
		want = in.contain[qs]
	}
	if !equalPres(a.pres, want) {
		return fail(qs, "%d nodes, oracle has %d", len(a.pres), len(want))
	}
	return outcome{name: qs, stats: a.stats}
}

// editOp is mutate-wal's op: one edit cycle, three calls. The table
// returns to its starting rows, so every cycle plans against the same
// table.
func (in *inputs) editOp(s *encshare.Session) outcome {
	const name = "insert+update+delete"
	pre, err := s.Insert(in.editParent, "date")
	if err != nil {
		return fail(name, "insert: %v", err)
	}
	if pre != in.editTail {
		return fail(name, "insert landed on pre %d, want %d", pre, in.editTail)
	}
	if err := s.Update(pre, "city"); err != nil {
		return fail(name, "update: %v", err)
	}
	if err := s.Delete(pre); err != nil {
		return fail(name, "delete: %v", err)
	}
	return outcome{name: name}
}

// laneFunc runs one lane's i-th op.
type laneFunc func(i int) outcome

// lanes returns the closed-loop sessions of the workload: lane 0 is the
// measured one; mutate-wal adds its reader as lane 1.
func (in *inputs) lanes(clients []client, sessions []*encshare.Session) []laneFunc {
	if in.w.wal {
		return []laneFunc{
			func(int) outcome { return in.editOp(sessions[0]) },
			func(int) outcome { return in.checkQuery(clients[1], readerQuery, in.w.test) },
		}
	}
	return []laneFunc{func(i int) outcome { return in.readOp(clients[0], i) }}
}

// window bounds one run of the op loop: by time, or by op count when ops
// is set (the tests). Either way it ends on a whole cycle of the op list,
// so per-op averages are not tilted towards the cheap or the dear queries
// and the caches are in the same phase of the cycle whenever a window
// starts.
type window struct {
	dur time.Duration
	ops int
}

// laneResult is what one lane did during a window.
type laneResult struct {
	lat    []time.Duration
	failed int
	why    string // first failure
	stats  encshare.Stats
}

// counters are cumulative counts read before and after a window.
type counters struct {
	bytes, roundTrips int64
}

func (c counters) sub(o counters) counters {
	return counters{bytes: c.bytes - o.bytes, roundTrips: c.roundTrips - o.roundTrips}
}

// windowResult is one measured window.
type windowResult struct {
	lanes      []laneResult
	wall, cpu  time.Duration
	mem0, mem1 runtime.MemStats
	counts     counters
}

// runWindow drives every lane closed-loop: a lane issues its next op when
// the previous one returned. Lane 0 decides when the window ends; other
// lanes are background load and stop with it. rec, when non-nil, gets one
// op span per op; count, when non-nil, is read before and after.
func runWindow(lanes []laneFunc, win window, cycle int, rec *recorder, count func() counters) windowResult {
	res := windowResult{lanes: make([]laneResult, len(lanes))}
	var stop atomic.Bool
	var wg sync.WaitGroup
	runtime.ReadMemStats(&res.mem0)
	cpu0 := cpuTime()
	var c0 counters
	if count != nil {
		c0 = count()
	}
	start := time.Now()
	deadline := start.Add(win.dur)
	for li := range lanes {
		wg.Add(1)
		go func(li int) {
			defer wg.Done()
			lr := &res.lanes[li]
			for i := 0; ; i++ {
				if li == 0 {
					if i%cycle == 0 && (win.ops > 0 && i >= win.ops || win.ops == 0 && !time.Now().Before(deadline)) {
						stop.Store(true)
						return
					}
				} else if stop.Load() {
					return
				}
				t0 := time.Now()
				id := rec.beginOp(li)
				out := lanes[li](i)
				rec.endOp(id, out.name)
				lr.lat = append(lr.lat, time.Since(t0))
				if out.failed {
					if lr.failed == 0 {
						lr.why = out.name + ": " + out.why
					}
					lr.failed++
				}
				lr.stats.Evaluations += out.stats.Evaluations
				lr.stats.Reconstructions += out.stats.Reconstructions
				lr.stats.NodesVisited += out.stats.NodesVisited
				lr.stats.Folds += out.stats.Folds
			}
		}(li)
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.cpu = cpuTime() - cpu0
	if count != nil {
		res.counts = count().sub(c0)
	}
	runtime.ReadMemStats(&res.mem1)
	return res
}

// sliceDur is the least length of the slices the timed window is measured in.
// On a shared host something outside the process takes the machine away
// for seconds at a time (CPU time per op rises with latency, so it is
// speed, not waiting): the slices are what lets a run tell those seconds
// from the others. One second holds at least two cycles of every
// workload's op list.
const sliceDur = time.Second

// runSliced runs win as back-to-back slices, each a window of its own
// that ends on the first whole cycle past its share of win, so together
// they overrun win by at most one cycle. A window bounded by an op count
// (the tests) is one slice.
func runSliced(lanes []laneFunc, win window, cycle int, count func() counters) []windowResult {
	if win.ops > 0 {
		return []windowResult{runWindow(lanes, win, cycle, nil, count)}
	}
	var out []windowResult
	n := max(1, int(win.dur/sliceDur)) // equal slices of at least sliceDur
	start := time.Now()
	for i := 1; i <= n; i++ {
		left := time.Until(start.Add(win.dur * time.Duration(i) / time.Duration(n)))
		if left <= 0 && len(out) > 0 {
			continue // the previous slice's last cycle ran past this one
		}
		out = append(out, runWindow(lanes, window{dur: left}, cycle, nil, count))
	}
	return out
}

// quietQuarter returns the quarter of the slices (at least one) in which
// the measured session got the most ops done per second. Which share is
// kept is fixed here, not chosen per run. Interference only ever slows a
// slice down, so the fastest ones are the machine left alone; a stall of
// the program's own that lasts whole seconds would be set aside with
// them, which is why window.steady_pct reports what the rest did.
func quietQuarter(slices []windowResult) []windowResult {
	s := append([]windowResult(nil), slices...)
	rate := func(r windowResult) float64 { return float64(len(r.lanes[0].lat)) / r.wall.Seconds() }
	sort.SliceStable(s, func(i, j int) bool { return rate(s[i]) > rate(s[j]) })
	return s[:max(1, len(s)/4)]
}

// merge adds slices up into one window: latencies, failures, time and
// counts summed, memory statistics from the first one's start to the last
// one's end.
func merge(slices []windowResult) windowResult {
	out := windowResult{lanes: make([]laneResult, len(slices[0].lanes)), mem0: slices[0].mem0, mem1: slices[len(slices)-1].mem1}
	for _, r := range slices {
		for li, l := range r.lanes {
			o := &out.lanes[li]
			o.lat = append(o.lat, l.lat...)
			if o.failed == 0 {
				o.why = l.why
			}
			o.failed += l.failed
		}
		out.wall += r.wall
		out.cpu += r.cpu
		out.counts.bytes += r.counts.bytes
		out.counts.roundTrips += r.counts.roundTrips
	}
	return out
}

func (r windowResult) attempted() (n int) {
	for _, l := range r.lanes {
		n += len(l.lat)
	}
	return n
}

func (r windowResult) failed() (n int) {
	for _, l := range r.lanes {
		n += l.failed
	}
	return n
}

func (r windowResult) firstFailure() string {
	for _, l := range r.lanes {
		if l.failed > 0 {
			return l.why
		}
	}
	return ""
}

func sortedCopy(lat []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// liveHeapMB forces a collection and reads the heap still in use; the
// caller keeps sessions and servers open across the call.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
