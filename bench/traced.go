package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"runtime"
	"time"

	"encshare"
	"encshare/internal/engine"
	"encshare/internal/filter"
	"encshare/internal/iofault"
	"encshare/internal/minisql"
	"encshare/internal/server"
	"encshare/internal/store"
	"encshare/internal/wal"
)

// probeBudget is how long each standalone probe measures.
const probeBudget = 150 * time.Millisecond

// layerMetrics starts a per-layer result with every metric present: a
// layer the workload never enters reports 0.
func layerMetrics() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	return m
}

// tracedRun is what the traced part of a workload measured.
type tracedRun struct {
	win    windowResult // the traced window
	cyc    windowResult // the cycle of ops before it, whose arguments were retained
	times  ledger       // over both
	counts ledger       // over the cycle alone: a fixed op sequence, so its counts repeat exactly
}

// tracedWindow runs warm-up, then one cycle of ops, then the traced
// window, with an op span per op of the last two. fence must return only
// after every connection has recorded the spans of the replies sent so
// far; betweenCycle brackets the single cycle.
func tracedWindow(in *inputs, lanes []laneFunc, cfg runConfig, rec *recorder,
	fence func(), betweenCycle func(before bool), res *result) tracedRun {
	cycle := in.w.cycle()
	res.count(runWindow(lanes, window{dur: cfg.warmup}, cycle, nil, nil))
	runtime.GC()
	fence()
	rec.reset()
	var tr tracedRun
	betweenCycle(true)
	tr.cyc = runWindow(lanes, window{ops: cycle}, cycle, rec, nil)
	fence()
	betweenCycle(false)
	mark := rec.mark()
	tr.win = runWindow(lanes, cfg.traced, cycle, rec, nil)
	fence()
	res.count(tr.cyc)
	res.count(tr.win)
	rec.mu.Lock() // late spans of untraced traffic may still arrive
	defer rec.mu.Unlock()
	a := analyze(rec.spans)
	tr.times, tr.counts = a.ledger(0, len(rec.spans)), a.ledger(0, mark)
	return tr
}

// commonLayers fills in what every traced workload reports the same way.
func commonLayers(m map[string]float64, tr tracedRun, untracedP50 float64, in *inputs) error {
	lg, cn := tr.times, tr.counts
	if lg.ops == 0 || cn.ops == 0 {
		return fmt.Errorf("the traced window recorded no op")
	}
	ops := float64(lg.ops)
	perOp := func(ns int64) float64 { return float64(ns) / 1e6 / ops }
	m["trace.op_ms"] = perOp(lg.opNs)
	m["encshare.client_wire_ms"] = perOp(lg.opNs - lg.total[lvTurn])
	m["server.turnaround_ms"] = perOp(lg.total[lvTurn])
	m["rmi.frames"] = float64(cn.frames) / float64(cn.ops)
	m["rmi.bytes_out"] = float64(cn.bytesOut) / float64(cn.ops)
	m["rmi.bytes_in"] = float64(cn.bytesIn) / float64(cn.ops)

	win := tr.win
	lat := sortedCopy(win.lanes[0].lat)
	if untracedP50 > 0 && len(lat) > 0 {
		m["trace.overhead_pct"] = 100 * (msOf(percentile(lat, 0.50)) - untracedP50) / untracedP50
	}
	if nOps := float64(len(lat)); nOps > 0 {
		m["runtime.mallocs_per_op"] = float64(win.mem1.Mallocs-win.mem0.Mallocs) / nOps
		m["runtime.gc_pause_ms_per_s"] = float64(win.mem1.PauseTotalNs-win.mem0.PauseTotalNs) / 1e6 / win.wall.Seconds()
		m["runtime.gc_cycles"] = float64(win.mem1.NumGC - win.mem0.NumGC)
	}

	echo, err := runEchoProbe(int64(median(lg.reqSizes)), int64(median(lg.replySizes)), probeBudget)
	if err != nil {
		return fmt.Errorf("echo probe: %w", err)
	}
	m["rmi.echo_tcp_us"], m["rmi.echo_pipe_us"], m["rmi.allocs_per_frame"] = echo.tcpUs, echo.pipeUs, echo.allocsPerFrame
	m["prg.mb_per_s"] = prgProbe(in.keys.Seed(), probeBudget)
	return nil
}

// replayFits is the ledger's self-check on times. A replay re-runs, with
// warm caches and nothing else going on, work that happened inside the
// named span; the two are measured independently, so a replay that takes
// much longer than the span it is a part of measured something the op did
// not do. The allowance is half the span, because the replay runs seconds
// after the window and this host has been seen to slow a phase down by
// 45 %, plus 1 % of the op: a 25 µs replay inside a 20 µs span says
// nothing about either.
func replayFits(m map[string]float64, span string, replays ...string) error {
	var sum float64
	for _, name := range replays {
		sum += m[name]
	}
	if sum <= 1.5*m[span]+0.01*m["trace.op_ms"] {
		return nil
	}
	return fmt.Errorf("ledger self-check: %v replay to %.3f ms per op, more than the %.3f ms of %s they are part of", replays, sum, m[span], span)
}

// replayedCount is one count a replay made, next to the same count as the
// layer under test reports it for the same cycle of ops.
type replayedCount struct {
	what              string
	replayed, counted int64
}

// replayCounts is the self-check on work: the replays re-derive from the
// retained arguments which rows filter decodes, evaluates, reconstructs
// and folds, and filter and the engine count the same work themselves.
// Where the two differ the replay no longer does what the system does,
// and its times are of something else.
func replayCounts(counts []replayedCount) error {
	for _, c := range counts {
		if c.replayed != c.counted {
			return fmt.Errorf("ledger self-check: the replay made %d %s, the layers counted %d", c.replayed, c.what, c.counted)
		}
	}
	return nil
}

// tracedRead is the traced run of a read workload, on the hand-assembled
// stack with a seam on both sides of every wire.
func tracedRead(in *inputs, dumps [][]byte, cfg runConfig, untracedP50 float64, res *result) (map[string]float64, error) {
	w := in.w
	rec := newRecorder()
	s, err := buildSeams(in, dumps, rec)
	if err != nil {
		return nil, err
	}
	defer s.close()
	test := engine.Containment
	if w.test == encshare.TestExact {
		test = engine.Equality
	}
	c := &seamClient{s: s, test: test}
	// A reply to one more request on a connection proves its server
	// goroutine is past recording the previous reply's span.
	fence := func() {
		for _, x := range s.exchanges {
			x.inner.Count()
		}
	}
	serverStats := func() (st filter.ServerStats, pool store.PoolStats) {
		for i, sf := range s.filters {
			fs, _ := sf.ServerStats()
			st = st.Add(fs)
			ps, _ := s.stores[i].PoolStats()
			pool.Hits += ps.Hits
			pool.Misses += ps.Misses
			pool.Evictions += ps.Evictions
		}
		return st, pool
	}
	// The cycle whose arguments are retained is also the one the servers'
	// counters are read around: a fixed op sequence, so the counts repeat.
	var st0, st1 filter.ServerStats
	var pool0, pool1 store.PoolStats
	betweenCycle := func(before bool) {
		s.top.retain.Store(before)
		for _, h := range s.handlers {
			h.retain.Store(before)
		}
		if before {
			st0, pool0 = serverStats()
		} else {
			st1, pool1 = serverStats()
		}
	}
	tr := tracedWindow(in, in.lanes([]client{c}, nil), cfg, rec, fence, betweenCycle, res)
	if cfg.traceOut != nil {
		if err := rec.writeTo(cfg.traceOut, w.name); err != nil {
			return nil, err
		}
	}

	m := layerMetrics()
	if err := commonLayers(m, tr, untracedP50, in); err != nil {
		return nil, err
	}
	lg, cn := tr.times, tr.counts
	ops, cycle := float64(lg.ops), float64(cn.ops)
	perOp := func(ns int64) float64 { return float64(ns) / 1e6 / ops }
	m["encshare.client_self_ms"] = perOp(lg.self[lvOp])
	m["cluster.self_ms"] = perOp(lg.self[lvCluster])
	m["cluster.shard_skew_ms"] = perOp(lg.skewNs)
	m["cluster.shard_frames"] = float64(cn.shardFrames) / cycle
	m["rmi.self_ms"] = perOp(lg.self[lvExchange] + lg.self[lvTurn])
	m["rmi.self_us_per_frame"] = 1e3 * perOp(lg.self[lvExchange]+lg.self[lvTurn]) * ops / float64(lg.frames)
	m["server.dispatch_ms"] = perOp(lg.self[lvTurn])
	m["filter.handler_ms"] = perOp(lg.total[lvHandler])
	m["filter.fold_ms"] = perOp(lg.foldNs)

	stats := tr.cyc.lanes[0].stats
	m["engine.exchanges"] = float64(cn.topCalls) / cycle
	m["engine.evals"] = float64(stats.Evaluations) / cycle
	m["engine.nodes_visited"] = float64(stats.NodesVisited) / cycle
	m["secshare.reconstructions"] = float64(stats.Reconstructions) / cycle
	d := st1.Sub(st0)
	m["filter.evals"] = float64(d.Evals) / cycle
	m["filter.decodes"] = float64(d.Decodes) / cycle
	if lookups := d.CacheHits + d.CacheMisses; lookups > 0 {
		m["filter.cache_hit_ratio"] = float64(d.CacheHits) / float64(lookups)
	}
	m["filter.fold_chunks"] = float64(d.Aggregates) / cycle
	hits, misses := pool1.Hits-pool0.Hits, pool1.Misses-pool0.Misses
	if hits+misses > 0 {
		m["store.pool_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	m["store.pool_misses"] = float64(misses) / cycle
	m["store.pool_evictions"] = float64(pool1.Evictions-pool0.Evictions) / cycle

	// Replay the cycle's calls through the layers below the seams. Three
	// passes, median: a single pass is a few milliseconds of work.
	clientCalls := s.top.takeCalls()
	handlerCalls := make([][]seamCall, len(s.handlers))
	for i, h := range s.handlers {
		handlerCalls[i] = h.takeCalls()
	}
	var storeMs, decodeMs, evalMs, sEvalMs, sReconMs, sFoldMs []float64
	var sr serverReplay
	var cr clientReplay
	for pass := 0; pass < 3; pass++ {
		sr = serverReplay{}
		for i := range s.handlers {
			sr.add(replayServer(handlerCalls[i], s.stores[i], s.r))
		}
		cr = replayClient(clientCalls, s.scheme)
		storeMs, decodeMs, evalMs = append(storeMs, msOf(sr.store)/cycle), append(decodeMs, msOf(sr.decode)/cycle), append(evalMs, msOf(sr.eval)/cycle)
		sEvalMs, sReconMs, sFoldMs = append(sEvalMs, msOf(cr.eval)/cycle), append(sReconMs, msOf(cr.reconstruct)/cycle), append(sFoldMs, msOf(cr.fold)/cycle)
	}
	// On a cluster the shards' handlers run side by side and the op waits
	// for the slower one; the replay ran them one after the other.
	side := float64(len(s.handlers))
	m["store.replay_ms"] = median(storeMs) / side
	m["store.rows"] = float64(sr.rows) / cycle
	m["ring.replay_ms"] = (median(decodeMs) + median(evalMs)) / side
	if sr.decoded > 0 {
		m["ring.decode_ns_per_poly"] = median(decodeMs) * cycle * 1e6 / float64(sr.decoded)
	}
	if sr.evaluated > 0 {
		m["ring.eval_ns_per_poly"] = median(evalMs) * cycle * 1e6 / float64(sr.evaluated)
	}
	m["secshare.eval_ms"] = median(sEvalMs)
	m["secshare.reconstruct_ms"] = median(sReconMs)
	m["secshare.fold_ms"] = median(sFoldMs)
	m["store.load_s"] = s.loadS

	// Spans give the client's self time and the handlers' time; replays
	// give the part of each that secshare, store and ring account for.
	// What is left over is engine's and filter's: residuals, not
	// measurements, so they are only as good as the checks below.
	share := m["secshare.eval_ms"] + m["secshare.reconstruct_ms"] + m["secshare.fold_ms"]
	m["engine.self_ms"] = max(0, m["encshare.client_self_ms"]-share)
	m["filter.self_ms"] = max(0, m["filter.handler_ms"]-m["store.replay_ms"]-m["ring.replay_ms"])
	m["trace.residual_pct"] = 100 * (m["engine.self_ms"] + m["filter.self_ms"]) / m["trace.op_ms"]
	if err := replayFits(m, "encshare.client_self_ms", "secshare.eval_ms", "secshare.reconstruct_ms", "secshare.fold_ms"); err != nil {
		return m, err
	}
	if err := replayFits(m, "filter.handler_ms", "store.replay_ms", "ring.replay_ms"); err != nil {
		return m, err
	}
	return m, replayCounts([]replayedCount{
		{"ring decodes", sr.decoded, d.Decodes},
		{"ring point evaluations", sr.points, d.Evals},
		{"secshare point evaluations", cr.points, stats.Evaluations},
		{"secshare reconstructions", cr.rows, stats.Reconstructions},
		{"secshare folds", cr.folded, stats.Folds},
	})
}

// walStack hosts one tenant on server.Runtime directly — what
// Database.ServeWith does — so that its journal can go through a
// filesystem of the benchmark's choosing.
type walStack struct {
	st     *store.Store
	dsn    string
	rt     *server.Runtime
	l      net.Listener
	served chan error
}

func startWAL(dump []byte, dir string, fsys wal.FS, tp *tap) (*walStack, error) {
	s := &walStack{dsn: minisql.FreshDSN(), served: make(chan error, 1)}
	var err error
	if s.st, err = store.OpenWith(s.dsn, store.Options{}); err != nil {
		minisql.Drop(s.dsn)
		return nil, err
	}
	if err = s.st.Load(bytes.NewReader(dump)); err == nil {
		s.rt = server.New(server.Config{})
		err = s.rt.AttachStore(server.Tenant{P: params.P, E: 1, WALDir: dir, FS: fsys}, s.st)
	}
	if err == nil {
		s.l, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		if s.rt != nil {
			s.rt.Shutdown() // closes the journal the attach opened
		}
		s.drop()
		return nil, err
	}
	var l net.Listener = s.l
	if tp != nil {
		l = &tapListener{Listener: s.l, tap: tp, laneByAccept: true}
	}
	go func() { s.served <- s.rt.Serve(l) }()
	return s, nil
}

func (s *walStack) drop() {
	s.st.Close()
	minisql.Drop(s.dsn)
}

// stop shuts the runtime down and waits for its accept loop.
func (s *walStack) stop() {
	s.rt.Shutdown()
	<-s.served
	s.drop()
}

// tracedWAL is the traced run of mutate-wal: the real stack, watched from
// outside by the connection tap and a timing wal.FS.
func tracedWAL(in *inputs, dump []byte, cfg runConfig, untracedP50 float64, res *result) (map[string]float64, error) {
	rec := newRecorder()
	dir, err := makeScratchDir("wal")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tfs := &timedFS{inner: wal.OS, rec: rec}
	tp := &tap{rec: rec}
	s, err := startWAL(dump, dir, tfs, tp)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	var sessions []*encshare.Session
	defer func() {
		for _, sess := range sessions {
			sess.Close()
		}
	}()
	for i := 0; i < 2; i++ { // the writer first: it is lane 0
		sess, err := encshare.Dial(in.keys, s.l.Addr().String())
		if err != nil {
			return nil, err
		}
		sessions = append(sessions, sess)
	}
	clients := clientsOf(sessions, in.w.test)
	fence := func() {
		for _, sess := range sessions {
			sess.ServerStats() // one exchange on the session's connection
		}
	}
	tr := tracedWindow(in, in.lanes(clients, sessions), cfg, rec, fence, func(bool) {}, res)
	if cfg.traceOut != nil {
		if err := rec.writeTo(cfg.traceOut, in.w.name); err != nil {
			return nil, err
		}
	}

	m := layerMetrics()
	if err := commonLayers(m, tr, untracedP50, in); err != nil {
		return nil, err
	}
	lg := tr.times
	ops := float64(lg.ops)
	perOp := func(ns int64) float64 { return float64(ns) / 1e6 / ops }
	// No seam on this stack: what a turnaround spends outside the journal
	// is dispatch, gate, plan apply and reply encoding together.
	m["server.dispatch_ms"] = perOp(lg.self[lvTurn])
	m["wal.write_ms"] = perOp(lg.walWriteNs)
	m["wal.fsync_ms"] = perOp(lg.walSyncNs)
	m["wal.appends"] = float64(lg.walWrites) / ops
	m["wal.fsyncs"] = float64(lg.walSyncs) / ops
	m["wal.bytes"] = float64(lg.walBytes) / ops
	if reader := sortedCopy(tr.win.lanes[1].lat); len(reader) > 0 {
		m["encshare.reader_p50_ms"] = msOf(percentile(reader, 0.50))
		m["encshare.reader_ops_per_s"] = float64(len(reader)) / tr.win.wall.Seconds()
	}
	// Wire, dispatch, write and fsync are nested spans, so they add up to
	// the op by construction. What can be wrong is which journal calls were
	// put under which op: every op is three journaled batches, whatever the
	// wal.FS wrapper saw.
	if lg.walWrites != 3*int64(lg.ops) {
		return m, fmt.Errorf("ledger self-check: %d journal writes under %d ops of three batches each", lg.walWrites, lg.ops)
	}
	return m, nil
}

// crashDrill checks durability the only way a test can: writes go through
// a filesystem that keeps unsynced bytes in memory, the "machine" crashes
// with edits acknowledged, and a fresh server recovers the tenant from
// the directory alone. It must come back with the table the acknowledged
// edits produced, and give the same answers.
func crashDrill(in *inputs, dump []byte, res *result) {
	err := func() error {
		dir, err := makeScratchDir("crash")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		faulty := iofault.New()
		s, err := startWAL(dump, dir, faulty, nil)
		if err != nil {
			return err
		}
		sess, err := encshare.Dial(in.keys, s.l.Addr().String())
		if err != nil {
			s.stop()
			return err
		}
		// Two acknowledged edits that stay: an inserted and renamed leaf.
		pre, err := sess.Insert(in.editParent, "date")
		if err == nil {
			err = sess.Update(pre, "city")
		}
		var want string
		var wantAns answer
		if err == nil {
			want, err = rowsDigest(s.st)
		}
		if err == nil {
			wantAns, err = publicClient{s: sess, test: encshare.TestExact}.query("/site/people/person/city")
		}
		faulty.Crash() // from here only synced bytes exist
		sess.Close()
		s.stop()
		if err != nil {
			return err
		}

		back, err := startWAL(dump, dir, iofault.New(), nil)
		if err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
		defer back.stop()
		got, err := rowsDigest(back.st)
		if err != nil {
			return err
		}
		res.check(got == want, "crash drill: recovered table differs from the acknowledged one")
		sess2, err := encshare.Dial(in.keys, back.l.Addr().String())
		if err != nil {
			return err
		}
		defer sess2.Close()
		gotAns, err := publicClient{s: sess2, test: encshare.TestExact}.query("/site/people/person/city")
		if err != nil {
			return err
		}
		res.check(equalPres(gotAns.pres, wantAns.pres) && len(gotAns.pres) > 0, "crash drill: recovered server answers differently")
		return nil
	}()
	if err != nil {
		res.check(false, "crash drill: %v", err)
	}
}
