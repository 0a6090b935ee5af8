package main

import "sort"

// ledger is what the spans of a range of lane-0 ops add up to. Times are
// nanoseconds summed over those ops.
type ledger struct {
	ops  int
	opNs int64
	// self[level] is the time spans of that level spent outside their
	// children, along the blocking path: where calls ran side by side (a
	// cluster scatter) only the chain that finished last is on the path,
	// so the levels sum to opNs exactly.
	self [numLevels]int64
	// total[level] sums the on-path spans of the level whole.
	total [numLevels]int64

	foldNs                        int64 // on-path AggregateBatch handlers
	walWriteNs, walSyncNs         int64
	walWrites, walSyncs, walBytes int64
	skewNs                        int64     // Σ longest − shortest shard exchange per scatter
	frames, shardFrames           int64     // turnarounds: all, and below a cluster span
	topCalls                      int64     // calls the engine's filter.Client issued
	bytesIn, bytesOut             int64     // as the client sees them: out = requests
	reqSizes, replySizes          []float64 // per frame, for the echo probe's medians
}

// analysis is a recorder's spans with parents resolved.
type analysis struct {
	spans    []span
	children [][]int
	top      int // level of the calls filter.Client issues
}

// analyze gives every span its parent: the innermost span of a lower
// level, in its lane and (where both name one) on its shard, whose
// interval holds the span's start. Levels nest strictly in this system,
// so the start decides; an end that overhangs its parent's (the server
// stamps a reply's write a moment after the client has read it) is cut
// back to it.
func analyze(spans []span) *analysis {
	a := &analysis{spans: spans, children: make([][]int, len(spans)), top: lvExchange}
	byLane := map[int][]int{}
	for i := range spans {
		byLane[spans[i].Lane] = append(byLane[spans[i].Lane], i)
		if spans[i].Level == lvCluster {
			a.top = lvCluster
		}
	}
	for _, idx := range byLane {
		sort.Slice(idx, func(x, y int) bool {
			p, q := &spans[idx[x]], &spans[idx[y]]
			if p.Start != q.Start {
				return p.Start < q.Start
			}
			return p.Level < q.Level
		})
		var open []int
		for _, i := range idx {
			s := &spans[i]
			keep := open[:0]
			best := -1
			for _, j := range open {
				p := &spans[j]
				if p.End < s.Start {
					continue // over before s began, so before anything later too
				}
				keep = append(keep, j)
				if p.Level < s.Level && (p.Shard < 0 || s.Shard < 0 || p.Shard == s.Shard) &&
					(best < 0 || p.Level > spans[best].Level) {
					best = j
				}
			}
			open = append(keep, i)
			if best >= 0 {
				s.Parent, s.Op = best, spans[best].Op
				if s.End > spans[best].End {
					s.End = spans[best].End
				}
				a.children[best] = append(a.children[best], i)
			} else if s.Level == lvOp {
				s.Op = s.ID
			}
		}
	}
	return a
}

func (a *analysis) underCluster(i int) bool {
	for p := a.spans[i].Parent; p >= 0; p = a.spans[p].Parent {
		if a.spans[p].Level == lvCluster {
			return true
		}
	}
	return false
}

// ledger sums the lane-0 ops whose span index is in [lo, hi).
func (a *analysis) ledger(lo, hi int) ledger {
	spans := a.spans
	var lg ledger
	// walk adds span i, which is on the blocking path, and follows the
	// path into its children: backwards from its end, always the child
	// that finished last before the cursor.
	var walk func(i int)
	walk = func(i int) {
		s := &spans[i]
		lg.total[s.Level] += s.dur()
		switch {
		case s.Level == lvHandler && s.Name == "AggregateBatch":
			lg.foldNs += s.dur()
		case s.Level == lvWAL && s.Name == "write":
			lg.walWriteNs += s.dur()
			lg.walWrites++
			lg.walBytes += s.Out
		case s.Level == lvWAL:
			lg.walSyncNs += s.dur()
			lg.walSyncs++
		}
		kids := append([]int(nil), a.children[i]...)
		sort.Slice(kids, func(x, y int) bool { return spans[kids[x]].End > spans[kids[y]].End })
		covered, cursor := int64(0), s.End
		for _, k := range kids {
			if spans[k].End > cursor {
				continue // ran beside the path already chosen
			}
			covered += spans[k].dur()
			cursor = spans[k].Start
			walk(k)
		}
		lg.self[s.Level] += s.dur() - covered
		if s.Level == lvCluster && len(kids) > 1 {
			short, long := spans[kids[0]].dur(), spans[kids[0]].dur()
			for _, k := range kids[1:] {
				if d := spans[k].dur(); d < short {
					short = d
				} else if d > long {
					long = d
				}
			}
			lg.skewNs += long - short
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Lane != 0 || s.Op < lo || s.Op >= hi {
			continue
		}
		switch s.Level {
		case lvOp:
			lg.ops++
			lg.opNs += s.dur()
			walk(i)
		case lvTurn:
			lg.frames++
			lg.bytesOut += s.In
			lg.bytesIn += s.Out
			lg.reqSizes = append(lg.reqSizes, float64(s.In))
			lg.replySizes = append(lg.replySizes, float64(s.Out))
			if a.underCluster(i) {
				lg.shardFrames++
			}
		}
		if s.Level == a.top {
			lg.topCalls++
		}
	}
	return lg
}
