package cluster_test

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"encshare/internal/cluster"
	"encshare/internal/engine"
	"encshare/internal/filter"
	"encshare/internal/gf"
	"encshare/internal/rmi"
	"encshare/internal/xmldoc"
	"encshare/internal/xpath"
)

// fragileConn severs the client side of a replica connection after a
// fixed number of request frames — the deterministic stand-in for a
// replica process dying mid-query. Frame n+1 (0-based: after `frames`
// successful sends) closes the connection and fails, so the failure
// lands in whatever phase of whatever query happens to issue it,
// including between the pages of a paged reply loop.
type fragileConn struct {
	net.Conn
	mu     sync.Mutex
	frames int // request frames to allow before dying
}

func (c *fragileConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	kill := c.frames == 0
	if c.frames > 0 {
		c.frames--
	}
	c.mu.Unlock()
	if kill {
		c.Conn.Close()
		return 0, errors.New("chaos: replica killed")
	}
	return c.Conn.Write(b)
}

// replicatedClusterOf serves the fixture's table as a shards × replicas
// cluster over in-process rmi pipes. killAfter[{shard, replica}] = n
// makes that replica die after n request frames.
func (fx *fixture) replicatedClusterOf(t testing.TB, shards, replicas int, killAfter map[[2]int]int, opts cluster.Options) *cluster.Filter {
	t.Helper()
	lo, hi, err := fx.st.MinMaxPre()
	if err != nil {
		t.Fatal(err)
	}
	ranges, err := cluster.PartitionEven(lo, hi, shards)
	if err != nil {
		t.Fatal(err)
	}
	stores, cleanup, err := cluster.SplitStore(fx.st, ranges)
	if err != nil {
		cleanup()
		t.Fatal(err)
	}
	t.Cleanup(cleanup)
	specs := make([]cluster.Shard, shards)
	for i, sst := range stores {
		specs[i].Range = ranges[i]
		for j := 0; j < replicas; j++ {
			srv := rmi.NewServer()
			filter.RegisterServer(srv, filter.NewServerFilter(sst, fx.r, 1024))
			cConn, sConn := net.Pipe()
			go srv.ServeConn(sConn)
			conn := net.Conn(cConn)
			if n, ok := killAfter[[2]int{i, j}]; ok {
				conn = &fragileConn{Conn: cConn, frames: n}
			}
			cli := rmi.NewClient(conn)
			t.Cleanup(func() { cli.Close() })
			specs[i].Replicas = append(specs[i].Replicas, cluster.Replica{
				Addr: fmt.Sprintf("shard%d-r%d", i, j),
				Conn: filter.NewRemote(cli),
			})
		}
	}
	cf, err := cluster.NewWith(specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return cf
}

// TestChaosReplicaLossMidQuery is the chaos acceptance test: on a
// 3-shard × 2-replica cluster, one replica of EVERY shard dies
// mid-query (at a different frame count per shard, so the deaths land
// in different phases of the traversal), and every engine × test ×
// batch-mode combination must still return results AND client-side work
// counters identical to the single-server baseline, with zero
// client-visible errors and a positive failover count.
func TestChaosReplicaLossMidQuery(t *testing.T) {
	fx := xmarkFixture(t, 0.05, 11)
	singleCli := filter.NewClient(filter.NewServerFilter(fx.st, fx.r, 1024), fx.scheme)

	queries := append(append([]string{}, parityQueries...), "//item[//keyword]")
	engines := []struct {
		name string
		mk   func(cli *filter.Client) engine.Engine
	}{
		{"simple", func(c *filter.Client) engine.Engine { return engine.NewSimple(c, fx.m) }},
		{"advanced", func(c *filter.Client) engine.Engine { return engine.NewAdvanced(c, fx.m) }},
		{"simple-seq", func(c *filter.Client) engine.Engine { return engine.NewSimplePerCall(c, fx.m) }},
		{"advanced-seq", func(c *filter.Client) engine.Engine { return engine.NewAdvancedPerCall(c, fx.m) }},
	}
	// One replica per shard dies, each at a different frame count, so
	// the first queries of each combination lose connections in
	// different traversal phases.
	killAfter := map[[2]int]int{{0, 0}: 2, {1, 0}: 5, {2, 0}: 9}

	for _, e := range engines {
		for _, test := range []engine.Test{engine.Containment, engine.Equality} {
			cf := fx.replicatedClusterOf(t, 3, 2, killAfter, cluster.Options{})
			clusterEng := e.mk(filter.NewClient(cf, fx.scheme))
			singleEng := e.mk(singleCli)
			for _, qs := range queries {
				q := xpath.MustParse(qs)
				want, err := singleEng.Run(q, test)
				if err != nil {
					t.Fatalf("%s/%s single %s: %v", e.name, test, qs, err)
				}
				got, err := clusterEng.Run(q, test)
				if err != nil {
					t.Fatalf("%s/%s chaos cluster %s: client-visible error: %v", e.name, test, qs, err)
				}
				if !equalPres(got.Pres, want.Pres) {
					t.Errorf("%s/%s on %s: chaos cluster %v != single %v", e.name, test, qs, got.Pres, want.Pres)
				}
				if got.Stats.Evaluations != want.Stats.Evaluations ||
					got.Stats.Reconstructions != want.Stats.Reconstructions ||
					got.Stats.NodesFetched != want.Stats.NodesFetched ||
					got.Stats.NodesVisited != want.Stats.NodesVisited {
					t.Errorf("%s/%s on %s: chaos cluster work %+v != single %+v",
						e.name, test, qs, got.Stats, want.Stats)
				}
			}
			if cf.Failovers() == 0 {
				t.Errorf("%s/%s: killed replicas but Failovers() = 0", e.name, test)
			}
		}
	}
}

// wideDoc builds a document with one deliberately wide node (a root with
// n children), so a DescendantsBatch reply pages under a small budget.
func wideDoc(t testing.TB, n int) *xmldoc.Doc {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<site>")
	for i := 0; i < n; i++ {
		sb.WriteString("<item/>")
	}
	sb.WriteString("</site>")
	doc, err := xmldoc.ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestChaosKillMidPagedDescendantsResume kills a replica BETWEEN the
// pages of a paged DescendantsBatch reply: the transport error from the
// page loop must classify as retryable, the whole logical batch must
// restart on the sibling replica, and the reassembled reply must be
// byte-identical to the direct single-server answer.
func TestChaosKillMidPagedDescendantsResume(t *testing.T) {
	fx := buildFixture(t, wideDoc(t, 3000))
	oldBudget := filter.ReplyByteBudget
	filter.ReplyByteBudget = 2048 // ~64 rows per page: a shard slice takes many pages
	t.Cleanup(func() { filter.ReplyByteBudget = oldBudget })

	// Shard 1's first replica survives exactly 2 frames — enough to
	// answer the first pages of the loop, then dies mid-resume.
	cf := fx.replicatedClusterOf(t, 3, 2, map[[2]int]int{{1, 0}: 2}, cluster.Options{})
	direct := filter.NewServerFilter(fx.st, fx.r, 1024)

	root, err := direct.Root()
	if err != nil {
		t.Fatal(err)
	}
	spans := []filter.Span{{Pre: root.Pre, Post: root.Post}}
	got, err := cf.DescendantsBatch(spans)
	if err != nil {
		t.Fatalf("paged descendants across a mid-page replica death: %v", err)
	}
	want, err := direct.DescendantsBatch(spans)
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0]) != len(want[0]) {
		t.Fatalf("reassembled %d rows, want %d", len(got[0]), len(want[0]))
	}
	for i := range want[0] {
		if got[0][i] != want[0][i] {
			t.Fatalf("row %d = %+v, want %+v (restart on the sibling must reproduce the reply)", i, got[0][i], want[0][i])
		}
	}
	if cf.Failovers() == 0 {
		t.Fatal("mid-page replica death recorded no failover")
	}
}

// blockingConn stalls EvalBatch until released — a replica that hangs
// rather than dies, the case hedging exists for.
type blockingConn struct {
	cluster.Conn
	gate chan struct{}
}

func (c *blockingConn) EvalBatch(reqs []filter.EvalRequest) ([]filter.EvalResult, error) {
	<-c.gate
	return c.Conn.EvalBatch(reqs)
}

// TestHedgedReadBeatsHungReplica: with hedging enabled, a frame stuck on
// a hung replica is duplicated on the sibling and the query completes;
// without hedging it would block until the replica answered.
func TestHedgedReadBeatsHungReplica(t *testing.T) {
	fx := xmarkFixture(t, 0.02, 7)
	sf := filter.NewServerFilter(fx.st, fx.r, 1024)
	gate := make(chan struct{})
	t.Cleanup(func() { close(gate) }) // release the stuck goroutine

	lo, hi, err := fx.st.MinMaxPre()
	if err != nil {
		t.Fatal(err)
	}
	cf, err := cluster.NewWith([]cluster.Shard{{
		Range: cluster.Range{Lo: lo, Hi: hi},
		Replicas: []cluster.Replica{
			{Addr: "hung", Conn: &blockingConn{Conn: sf, gate: gate}},
			{Addr: "healthy", Conn: sf},
		},
	}}, cluster.Options{Hedge: true, HedgeAfter: 1e6 /* 1ms */})
	if err != nil {
		t.Fatal(err)
	}

	reqs := []filter.EvalRequest{{Pre: lo, Point: gf.Elem(3)}}
	want, err := sf.EvalBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	// The round-robin cursor alternates primaries; run two calls so one
	// of them is guaranteed to start on the hung replica and hedge.
	for i := 0; i < 2; i++ {
		got, err := cf.EvalBatch(reqs)
		if err != nil {
			t.Fatalf("hedged eval: %v", err)
		}
		if got[0] != want[0] {
			t.Fatalf("hedged eval = %+v, want %+v", got[0], want[0])
		}
	}
	if cf.Hedges() == 0 {
		t.Fatal("hung replica never triggered a hedge")
	}
	if cf.Failovers() != 0 {
		t.Fatalf("hedge recorded %d failovers (no call failed)", cf.Failovers())
	}
}

// failFastConn always fails EvalBatch with a retryable transport error.
type failFastConn struct{ cluster.Conn }

func (c *failFastConn) EvalBatch([]filter.EvalRequest) ([]filter.EvalResult, error) {
	return nil, &rmi.TransportError{Method: "test", Err: errors.New("replica down")}
}

// slowishConn delays EvalBatch past the hedge trigger.
type slowishConn struct {
	cluster.Conn
	d time.Duration
}

func (c *slowishConn) EvalBatch(reqs []filter.EvalRequest) ([]filter.EvalResult, error) {
	time.Sleep(c.d)
	return c.Conn.EvalBatch(reqs)
}

// TestHedgeTimerAfterFailoverExhaustsReplicas: a fast-failing primary
// consumes the failover slot before the hedge timer fires; the timer
// must then notice there is no replica left to hedge onto instead of
// indexing past the dispatch order (regression test).
func TestHedgeTimerAfterFailoverExhaustsReplicas(t *testing.T) {
	fx := xmarkFixture(t, 0.02, 7)
	sf := filter.NewServerFilter(fx.st, fx.r, 256)
	lo, hi, err := fx.st.MinMaxPre()
	if err != nil {
		t.Fatal(err)
	}
	cf, err := cluster.NewWith([]cluster.Shard{{
		Range: cluster.Range{Lo: lo, Hi: hi},
		Replicas: []cluster.Replica{
			{Addr: "dead", Conn: &failFastConn{Conn: sf}},
			{Addr: "slow", Conn: &slowishConn{Conn: sf, d: 20 * time.Millisecond}},
		},
	}}, cluster.Options{Hedge: true, HedgeAfter: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []filter.EvalRequest{{Pre: lo, Point: gf.Elem(3)}}
	want, err := sf.EvalBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	// Several rounds so the round-robin starts on the dead replica at
	// least once: fail-fast -> failover to the slow sibling -> hedge
	// timer fires with every replica already launched.
	for i := 0; i < 4; i++ {
		got, err := cf.EvalBatch(reqs)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if got[0] != want[0] {
			t.Fatalf("round %d: got %+v, want %+v", i, got[0], want[0])
		}
	}
}

// TestDialGroupsReplicas: dialing a flat address list groups servers
// reporting the same pre range into one replica failover set.
func TestDialGroupsReplicas(t *testing.T) {
	fx := xmarkFixture(t, 0.02, 7)
	lo, hi, err := fx.st.MinMaxPre()
	if err != nil {
		t.Fatal(err)
	}
	ranges, err := cluster.PartitionEven(lo, hi, 2)
	if err != nil {
		t.Fatal(err)
	}
	stores, cleanup, err := cluster.SplitStore(fx.st, ranges)
	if err != nil {
		cleanup()
		t.Fatal(err)
	}
	t.Cleanup(cleanup)

	serve := func(si int) string {
		srv := rmi.NewServer()
		filter.RegisterServer(srv, filter.NewServerFilter(stores[si], fx.r, 256))
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go srv.Serve(l)
		return l.Addr().String()
	}
	// Flat, interleaved: shard 0 replica, shard 1 replica, then their
	// siblings.
	addrs := []string{serve(0), serve(1), serve(0), serve(1)}

	f, err := cluster.Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	if f.Shards() != 2 {
		t.Fatalf("Shards() = %d, want 2 (4 addrs grouped by range)", f.Shards())
	}
	for si, n := range f.Replicas() {
		if n != 2 {
			t.Fatalf("shard %d has %d replicas, want 2", si, n)
		}
	}
	count, err := f.Count()
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := fx.st.Count(); count != want {
		t.Fatalf("cluster count %d, want %d", count, want)
	}
}

// TestDialToleratesDownReplica: with TolerateUnreachable a session
// starts during a replica outage, as long as the reachable servers
// still cover the table; without it the dial stays strict.
func TestDialToleratesDownReplica(t *testing.T) {
	fx := xmarkFixture(t, 0.02, 7)
	lo, hi, err := fx.st.MinMaxPre()
	if err != nil {
		t.Fatal(err)
	}
	ranges, err := cluster.PartitionEven(lo, hi, 2)
	if err != nil {
		t.Fatal(err)
	}
	stores, cleanup, err := cluster.SplitStore(fx.st, ranges)
	if err != nil {
		cleanup()
		t.Fatal(err)
	}
	t.Cleanup(cleanup)
	var addrs []string
	for _, sst := range stores {
		srv := rmi.NewServer()
		filter.RegisterServer(srv, filter.NewServerFilter(sst, fx.r, 256))
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go srv.Serve(l)
		addrs = append(addrs, l.Addr().String())
	}
	withDead := append([]string{"127.0.0.1:1"}, addrs...)

	if _, err := cluster.Dial(withDead); err == nil {
		t.Fatal("strict dial succeeded with a dead address")
	}
	f, err := cluster.DialWith(withDead, cluster.Options{TolerateUnreachable: true})
	if err != nil {
		t.Fatalf("tolerant dial failed: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	if f.Shards() != 2 {
		t.Fatalf("tolerant dial built %d shards, want 2", f.Shards())
	}
	count, err := f.Count()
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := fx.st.Count(); count != want {
		t.Fatalf("count %d, want %d", count, want)
	}
	// All servers down: even the tolerant dial must fail loudly.
	if _, err := cluster.DialWith([]string{"127.0.0.1:1"}, cluster.Options{TolerateUnreachable: true}); err == nil {
		t.Fatal("tolerant dial succeeded with no reachable server")
	}
}

// TestDialRejectsPartialOverlap: replicas must cover the SAME range;
// ranges that overlap without being identical fail the dial.
func TestDialRejectsPartialOverlap(t *testing.T) {
	fx := xmarkFixture(t, 0.02, 7)
	lo, hi, err := fx.st.MinMaxPre()
	if err != nil {
		t.Fatal(err)
	}
	mid := (lo + hi) / 2
	stores, cleanup, err := cluster.SplitStore(fx.st, []cluster.Range{{Lo: lo, Hi: mid + 10}, {Lo: mid, Hi: hi}})
	if err != nil {
		cleanup()
		t.Fatal(err)
	}
	t.Cleanup(cleanup)
	var addrs []string
	for _, sst := range stores {
		srv := rmi.NewServer()
		filter.RegisterServer(srv, filter.NewServerFilter(sst, fx.r, 256))
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go srv.Serve(l)
		addrs = append(addrs, l.Addr().String())
	}
	if _, err := cluster.Dial(addrs); err == nil || !strings.Contains(err.Error(), "tile") {
		t.Fatalf("partially overlapping ranges dialed successfully (err=%v)", err)
	}
}
