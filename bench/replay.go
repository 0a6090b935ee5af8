package main

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"encshare/internal/filter"
	"encshare/internal/gf"
	"encshare/internal/prg"
	"encshare/internal/ring"
	"encshare/internal/rmi"
	"encshare/internal/secshare"
	"encshare/internal/store"
)

// The replay probes time a layer's own exported functions on the
// arguments the traced window's first cycle of ops passed through the
// seams. The layers under them run their batch members on a worker pool
// of GOMAXPROCS goroutines, so the replays do too: the times are wall
// time on the blocking path, comparable with the spans they sit inside.

func parallelFor(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// serverReplay is what one pass over a shard's retained handler calls
// cost in the layers below the filter.
type serverReplay struct {
	store, decode, eval time.Duration
	rows                int64 // rows the store calls returned
	decoded, evaluated  int64 // polys through ring.DecodeInto / EvalManyInto
	points              int64 // point evaluations those EvalManyInto calls made
}

func (a *serverReplay) add(b serverReplay) {
	a.store += b.store
	a.decode += b.decode
	a.eval += b.eval
	a.rows += b.rows
	a.decoded += b.decoded
	a.evaluated += b.evaluated
	a.points += b.points
}

// distinctPres returns the pres of reqs in first-seen order with the
// points asked of each: the grouping ServerFilter.EvalBatch and
// Client.ContainsBatch both evaluate by.
func distinctPres(reqs []filter.EvalRequest) (pres []int64, points [][]gf.Elem) {
	at := make(map[int64]int, len(reqs))
	for _, q := range reqs {
		i, ok := at[q.Pre]
		if !ok {
			i = len(pres)
			at[q.Pre] = i
			pres = append(pres, q.Pre)
			points = append(points, nil)
		}
		points[i] = append(points[i], q.Point)
	}
	return pres, points
}

// replayServer replays one shard's handler calls against its store and
// ring. A handler reads a share row from the store, and decodes it, only
// on a poly-cache miss; the seam recorded each call's miss count, and the
// replay charges that many rows.
func replayServer(calls []seamCall, st *store.Store, r *ring.Ring) serverReplay {
	var out serverReplay
	var rows atomic.Int64
	metaRows := func(n int, get func(i int) int) {
		out.store += timed(func() { parallelFor(n, func(i int) { rows.Add(int64(get(i))) }) })
	}
	// fetchDecode charges the store read and decode of the first misses
	// rows of pres, and returns every row decoded (the rest untimed), for
	// the evaluation that follows.
	fetchDecode := func(pres []int64, misses int, all bool) []ring.Poly {
		if misses > len(pres) {
			misses = len(pres)
		}
		n := misses
		if all {
			n = len(pres)
		}
		blobs := make([][]byte, n)
		fetch := func(lo, hi int) {
			parallelFor(hi-lo, func(i int) {
				if row, err := st.Node(pres[lo+i]); err == nil {
					blobs[lo+i] = row.Poly
				}
			})
		}
		polys := make([]ring.Poly, n)
		decode := func(lo, hi int) {
			parallelFor(hi-lo, func(i int) {
				polys[lo+i] = r.NewPoly()
				_ = r.DecodeInto(polys[lo+i], blobs[lo+i]) // a missing row decodes as zero
			})
		}
		out.store += timed(func() { fetch(0, misses) })
		fetch(misses, n)
		out.decode += timed(func() { decode(0, misses) })
		decode(misses, n)
		rows.Add(int64(misses))
		out.decoded += int64(misses)
		return polys
	}
	for _, c := range calls {
		switch c.method {
		case "EvalBatch":
			pres, points := distinctPres(c.evals)
			polys := fetchDecode(pres, int(c.misses), true)
			vals := make([][]gf.Elem, len(pres))
			for i := range vals {
				vals[i] = make([]gf.Elem, len(points[i]))
			}
			out.eval += timed(func() {
				parallelFor(len(pres), func(i int) { r.EvalManyInto(vals[i], polys[i], points[i]) })
			})
			out.evaluated += int64(len(pres))
			out.points += int64(len(c.evals))
		case "NodeBatch":
			metaRows(len(c.pres), func(i int) int {
				if _, err := st.NodeMeta(c.pres[i]); err != nil {
					return 0
				}
				return 1
			})
		case "ChildrenBatch":
			metaRows(len(c.pres), func(i int) int {
				kids, _ := st.ChildrenMeta(c.pres[i])
				return len(kids)
			})
		case "DescendantsBatch":
			metaRows(len(c.spans), func(i int) int {
				desc, _ := st.DescendantsMeta(c.spans[i].Pre, c.spans[i].Post)
				return len(desc)
			})
		case "NodePolysBatch", "NodePolysPartial":
			metaRows(len(c.pres), func(i int) int {
				n := 0
				if _, err := st.Node(c.pres[i]); err == nil {
					n = 1
				}
				kids, _ := st.Children(c.pres[i])
				return n + len(kids)
			})
		case "Poly":
			metaRows(1, func(int) int {
				if _, err := st.Node(c.pres[0]); err != nil {
					return 0
				}
				return 1
			})
		case "ChildrenPolys":
			metaRows(1, func(int) int {
				kids, _ := st.Children(c.pres[0])
				return len(kids)
			})
		case "AggregateBatch":
			pres, err := filter.UnpackPres(c.agg.Pres)
			if err != nil {
				continue
			}
			if c.aggSum {
				fetchDecode(pres, int(c.misses), false)
			} else {
				metaRows(len(pres), func(i int) int {
					if _, err := st.NodeMeta(pres[i]); err != nil {
						return 0
					}
					return 1
				})
			}
		}
	}
	out.rows = rows.Load()
	return out
}

// clientReplay is what one pass over the client's retained calls cost in
// secshare.
type clientReplay struct {
	eval, reconstruct, fold time.Duration
	// points, rows and folded count the point evaluations, reconstructed
	// share rows and folded shares the replay performed.
	points, rows, folded int64
}

// replayClient replays the share work filter.Client did around the
// retained calls: one PRG pass per checked node (EvalClientMany), one
// reconstruction per fetched share row (ReconstructInto), and for a SUM
// fold the client halves of the sum and of its verification share.
func replayClient(calls []seamCall, scheme *secshare.Scheme) clientReplay {
	var out clientReplay
	r := scheme.Ring()
	chunk := int(r.Field().Q()) - 1 // filter's wraparound-safe fold window
	for _, c := range calls {
		switch c.method {
		case "EvalBatch":
			pres, points := distinctPres(c.evals)
			vals := make([][]gf.Elem, len(pres))
			for i := range vals {
				vals[i] = make([]gf.Elem, len(points[i]))
			}
			out.eval += timed(func() {
				parallelFor(len(pres), func(i int) { scheme.EvalClientMany(uint64(pres[i]), points[i], vals[i]) })
			})
			out.points += int64(len(c.evals))
		case "NodePolysBatch", "Poly", "ChildrenPolys":
			// One strict test reconstructs a node's share row and each
			// child's: a batch fetches them a bundle per test, the per-call
			// form in two calls.
			fetched := [][]filter.PolyRow{c.rows}
			if c.method == "NodePolysBatch" {
				fetched = make([][]filter.PolyRow, len(c.bundles))
				for i, b := range c.bundles {
					fetched[i] = append([]filter.PolyRow{b.Node}, b.Children...)
				}
			}
			type row struct {
				pre  int64
				poly ring.Poly
			}
			rows := make([][]row, len(fetched))
			for i, prs := range fetched {
				for _, pr := range prs {
					p := r.NewPoly()
					if r.DecodeInto(p, pr.Poly) == nil {
						rows[i] = append(rows[i], row{pr.Pre, p})
						out.rows++
					}
				}
			}
			out.reconstruct += timed(func() {
				parallelFor(len(rows), func(i int) {
					for _, rw := range rows[i] {
						scheme.ReconstructInto(rw.poly, rw.poly, uint64(rw.pre))
					}
				})
			})
		case "AggregateBatch":
			if !c.aggSum {
				continue
			}
			pres, err := filter.UnpackPres(c.agg.Pres)
			if err != nil {
				continue
			}
			out.folded += int64(len(pres))
			mask := c.agg.Mask
			nChunks := (len(pres) + chunk - 1) / chunk
			out.fold += timed(func() {
				parallelFor(nChunks, func(ci int) {
					lo, hi := ci*chunk, (ci+1)*chunk
					if hi > len(pres) {
						hi = len(pres)
					}
					scheme.AddShares(r.NewPoly(), pres[lo:hi])
					if len(mask) == len(pres) {
						scheme.AddSharesScaled(r.NewPoly(), pres[lo:hi], mask[lo:hi])
					}
				})
			})
		}
	}
	return out
}

// echoProbe times an rmi round trip that carries reqBytes out and
// replyBytes back — a frame of the workload's median size with a handler
// that does nothing — over loopback TCP and over an in-process pipe.
type echoProbe struct {
	tcpUs, pipeUs, allocsPerFrame float64
}

const echoMethod = "bench.Echo"

func runEchoProbe(reqBytes, replyBytes int64, budget time.Duration) (echoProbe, error) {
	srv := rmi.NewServer()
	var reply atomic.Pointer[[]byte]
	reply.Store(&[]byte{})
	rmi.HandleFunc(srv, echoMethod, func([]byte) ([]byte, error) { return *reply.Load(), nil })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return echoProbe{}, err
	}
	done := make(chan struct{})
	go func() { srv.Serve(l); close(done) }()
	defer func() { l.Close(); srv.Shutdown(); <-done }()

	tcp, err := rmi.Dial(l.Addr().String())
	if err != nil {
		return echoProbe{}, err
	}
	defer tcp.Close()
	// One empty call measures the frame overhead, so that the payloads
	// below bring the frames to the sizes asked for.
	var got []byte
	if err := tcp.Call(echoMethod, []byte{}, &got); err != nil {
		return echoProbe{}, err
	}
	over := tcp.Stats()
	req := make([]byte, max(0, reqBytes-over.BytesOut))
	sized := make([]byte, max(0, replyBytes-over.BytesIn))
	reply.Store(&sized)

	loop := func(c *rmi.Client) (perCall time.Duration, allocs float64, err error) {
		for i := 0; i < 50; i++ { // warm the connection and the allocator
			if err := c.Call(echoMethod, req, &got); err != nil {
				return 0, 0, err
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		n, t0 := 0, time.Now()
		for ; n < 200 || time.Since(t0) < budget; n++ {
			if err := c.Call(echoMethod, req, &got); err != nil {
				return 0, 0, err
			}
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&m1)
		return el / time.Duration(n), float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
	}
	var p echoProbe
	d, allocs, err := loop(tcp)
	if err != nil {
		return p, err
	}
	p.tcpUs, p.allocsPerFrame = float64(d)/1e3, allocs
	pipe := rmi.Pipe(srv)
	defer pipe.Close()
	if d, _, err = loop(pipe); err != nil {
		return p, err
	}
	p.pipeUs = float64(d) / 1e3
	return p, nil
}

// prgProbe is the throughput of one PRG stream, the source of every
// client share.
func prgProbe(seed []byte, budget time.Duration) float64 {
	s := prg.New(seed).Stream("bench", 0)
	buf := make([]byte, 64<<10)
	var n int64
	t0 := time.Now()
	for time.Since(t0) < budget {
		s.Read(buf)
		n += int64(len(buf))
	}
	return float64(n) / 1e6 / time.Since(t0).Seconds()
}
