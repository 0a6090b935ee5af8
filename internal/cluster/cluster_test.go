package cluster_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"encshare/internal/cluster"
	"encshare/internal/encoder"
	"encshare/internal/engine"
	"encshare/internal/filter"
	"encshare/internal/gf"
	"encshare/internal/mapping"
	"encshare/internal/prg"
	"encshare/internal/ring"
	"encshare/internal/rmi"
	"encshare/internal/secshare"
	"encshare/internal/store"
	"encshare/internal/xmark"
	"encshare/internal/xmldoc"
	"encshare/internal/xpath"
)

// fixture is one encrypted document with a single-server path and the
// machinery to cut it into clusters of any width.
type fixture struct {
	doc    *xmldoc.Doc
	m      *mapping.Map
	r      *ring.Ring
	scheme *secshare.Scheme
	st     *store.Store
}

func buildFixture(t testing.TB, doc *xmldoc.Doc) *fixture {
	t.Helper()
	f := gf.MustNew(251, 1)
	m, err := mapping.Generate(f, doc.Names())
	if err != nil {
		t.Fatal(err)
	}
	r := ring.MustNew(f)
	scheme := secshare.New(r, prg.New([]byte("cluster-test")))
	dsn := store.FreshDSN()
	st, err := store.Open(dsn)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Init(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		st.Close()
		store.Drop(dsn)
	})
	if _, err := encoder.EncodeDoc(doc, encoder.Options{Map: m, Scheme: scheme}, st); err != nil {
		t.Fatal(err)
	}
	return &fixture{doc: doc, m: m, r: r, scheme: scheme, st: st}
}

func xmarkFixture(t testing.TB, scale float64, seed int64) *fixture {
	t.Helper()
	return buildFixture(t, xmark.Generate(xmark.Config{Scale: scale, Seed: seed}))
}

// clusterOf cuts the fixture's table into n shards, serves each over an
// in-process rmi pipe (real frames, real pagination), and assembles the
// cluster filter over counting Remote proxies.
func (fx *fixture) clusterOf(t testing.TB, n int) *cluster.Filter {
	t.Helper()
	lo, hi, err := fx.st.MinMaxPre()
	if err != nil {
		t.Fatal(err)
	}
	ranges, err := cluster.PartitionEven(lo, hi, n)
	if err != nil {
		t.Fatal(err)
	}
	stores, cleanup, err := cluster.SplitStore(fx.st, ranges)
	if err != nil {
		cleanup()
		t.Fatal(err)
	}
	t.Cleanup(cleanup)
	shards := make([]cluster.Shard, n)
	for i, sst := range stores {
		srv := rmi.NewServer()
		filter.RegisterServer(srv, filter.NewServerFilter(sst, fx.r, 1024))
		cli := rmi.Pipe(srv)
		t.Cleanup(func() { cli.Close() })
		shards[i] = cluster.Shard{
			Addr:  fmt.Sprintf("shard%d", i),
			Range: ranges[i],
			Conn:  filter.NewRemote(cli),
		}
	}
	cf, err := cluster.New(shards)
	if err != nil {
		t.Fatal(err)
	}
	return cf
}

// singleRemote serves the whole table over one rmi pipe — the reference
// path for exchange-count comparisons.
func (fx *fixture) singleRemote(t testing.TB) *filter.Remote {
	t.Helper()
	srv := rmi.NewServer()
	filter.RegisterServer(srv, filter.NewServerFilter(fx.st, fx.r, 1024))
	cli := rmi.Pipe(srv)
	t.Cleanup(func() { cli.Close() })
	return filter.NewRemote(cli)
}

// parityQueries is the XMark parity suite: the chain, strictness, and
// engine-suite queries the repo's other parity tests use.
var parityQueries = []string{
	"/site",
	"/site/regions/europe/item",
	"/site/regions/europe/item/description",
	"/site//europe/item",
	"/site//europe//item",
	"/site/*/person//city",
	"/*/*/open_auction/bidder/date",
	"//bidder/date",
	"/site/regions/../people/person",
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

// TestClusterParityXMark is the tentpole's acceptance test: on XMark
// 0.1, a 3-shard cluster must return result sets AND client-side work
// counters identical to the single-server path, for both engines, both
// tests, batched and per-call.
func TestClusterParityXMark(t *testing.T) {
	fx := xmarkFixture(t, 0.1, 42)
	cf := fx.clusterOf(t, 3)

	singleCli := filter.NewClient(filter.NewServerFilter(fx.st, fx.r, 1024), fx.scheme)
	clusterCli := filter.NewClient(cf, fx.scheme)

	engines := []struct {
		name            string
		single, cluster engine.Engine
	}{
		{"simple", engine.NewSimple(singleCli, fx.m), engine.NewSimple(clusterCli, fx.m)},
		{"advanced", engine.NewAdvanced(singleCli, fx.m), engine.NewAdvanced(clusterCli, fx.m)},
		{"simple-seq", engine.NewSimplePerCall(singleCli, fx.m), engine.NewSimplePerCall(clusterCli, fx.m)},
		{"advanced-seq", engine.NewAdvancedPerCall(singleCli, fx.m), engine.NewAdvancedPerCall(clusterCli, fx.m)},
	}
	for _, qs := range parityQueries {
		q := xpath.MustParse(qs)
		for _, test := range []engine.Test{engine.Containment, engine.Equality} {
			for _, e := range engines {
				sr, err := e.single.Run(q, test)
				if err != nil {
					t.Fatalf("%s/%s single %s: %v", e.name, test, qs, err)
				}
				cr, err := e.cluster.Run(q, test)
				if err != nil {
					t.Fatalf("%s/%s cluster %s: %v", e.name, test, qs, err)
				}
				if !equalPres(sr.Pres, cr.Pres) {
					t.Errorf("%s/%s on %s: cluster %d results != single %d",
						e.name, test, qs, len(cr.Pres), len(sr.Pres))
				}
				if sr.Stats.Evaluations != cr.Stats.Evaluations ||
					sr.Stats.Reconstructions != cr.Stats.Reconstructions ||
					sr.Stats.NodesFetched != cr.Stats.NodesFetched ||
					sr.Stats.NodesVisited != cr.Stats.NodesVisited {
					t.Errorf("%s/%s on %s: cluster work %+v != single %+v",
						e.name, test, qs, cr.Stats, sr.Stats)
				}
			}
		}
	}
}

// TestClusterParityOracle: on a small document the cluster must also
// match the plaintext oracle directly, shard counts 1..4.
func TestClusterParityOracle(t *testing.T) {
	doc, err := xmldoc.ParseString(`<site>
	  <regions><europe><item><name/></item><item/></europe><asia><item/></asia></regions>
	  <people><person><name/><address><city/></address></person><person/></people>
	  <open_auctions><open_auction><bidder><date/></bidder><bidder><date/></bidder></open_auction></open_auctions>
	</site>`)
	if err != nil {
		t.Fatal(err)
	}
	fx := buildFixture(t, doc)
	oracle := xpath.NewOracle(doc)
	for _, n := range []int{1, 2, 3, 4} {
		cf := fx.clusterOf(t, n)
		cli := filter.NewClient(cf, fx.scheme)
		engines := []engine.Engine{engine.NewSimple(cli, fx.m), engine.NewAdvanced(cli, fx.m)}
		for _, qs := range []string{"/site", "//item", "//person//city", "/site/*/person", "//bidder/date", "//*", "/site/regions/../people"} {
			q := xpath.MustParse(qs)
			for _, test := range []engine.Test{engine.Containment, engine.Equality} {
				mode := xpath.MatchContain
				if test == engine.Equality {
					mode = xpath.MatchEqual
				}
				want := xpath.Pres(oracle.Eval(q, mode))
				for _, e := range engines {
					got, err := e.Run(q, test)
					if err != nil {
						t.Fatalf("shards=%d %s/%s %s: %v", n, e.Name(), test, qs, err)
					}
					if !equalPres(got.Pres, want) {
						t.Errorf("shards=%d %s/%s on %s: got %v, want %v", n, e.Name(), test, qs, got.Pres, want)
					}
				}
			}
		}
	}
}

// TestClusterMemberOrder: scatter/gather must hand back batch replies in
// request order even when members arrive shard-interleaved and shuffled.
func TestClusterMemberOrder(t *testing.T) {
	fx := xmarkFixture(t, 0.02, 7)
	cf := fx.clusterOf(t, 3)
	direct := filter.NewServerFilter(fx.st, fx.r, 1024)

	count, err := fx.st.Count()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	pres := rng.Perm(int(count))
	var reqs []filter.EvalRequest
	var nodePres []int64
	for _, p := range pres {
		pre := int64(p + 1)
		nodePres = append(nodePres, pre)
		reqs = append(reqs, filter.EvalRequest{Pre: pre, Point: gf.Elem(uint64(pre)%250 + 1)})
	}

	got, err := cf.EvalBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.EvalBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("EvalBatch member %d (pre=%d): cluster %+v != single %+v", i, reqs[i].Pre, got[i], want[i])
		}
	}

	gotKids, err := cf.ChildrenBatch(nodePres)
	if err != nil {
		t.Fatal(err)
	}
	wantKids, err := direct.ChildrenBatch(nodePres)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantKids {
		if len(gotKids[i]) != len(wantKids[i]) {
			t.Fatalf("ChildrenBatch member %d (pre=%d): %d kids != %d", i, nodePres[i], len(gotKids[i]), len(wantKids[i]))
		}
		for j := range wantKids[i] {
			if gotKids[i][j] != wantKids[i][j] {
				t.Fatalf("ChildrenBatch member %d child %d: %+v != %+v", i, j, gotKids[i][j], wantKids[i][j])
			}
		}
	}

	gotBundles, err := cf.NodePolysBatch(nodePres)
	if err != nil {
		t.Fatal(err)
	}
	wantBundles, err := direct.NodePolysBatch(nodePres)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantBundles {
		g, w := gotBundles[i], wantBundles[i]
		if g.Err != "" || w.Err != "" {
			t.Fatalf("bundle %d errored: cluster %q, single %q", i, g.Err, w.Err)
		}
		if g.Node.Pre != w.Node.Pre || string(g.Node.Poly) != string(w.Node.Poly) {
			t.Fatalf("bundle %d node mismatch", i)
		}
		if len(g.Children) != len(w.Children) {
			t.Fatalf("bundle %d (pre=%d): %d children != %d", i, nodePres[i], len(g.Children), len(w.Children))
		}
		for j := range w.Children {
			if g.Children[j].Pre != w.Children[j].Pre || string(g.Children[j].Poly) != string(w.Children[j].Poly) {
				t.Fatalf("bundle %d child %d mismatch (boundary-crossing children must merge in pre order)", i, j)
			}
		}
	}

	// Descendant spans, shuffled.
	var spans []filter.Span
	for _, pre := range nodePres[:200] {
		m, err := direct.Node(pre)
		if err != nil {
			t.Fatal(err)
		}
		spans = append(spans, filter.Span{Pre: m.Pre, Post: m.Post})
	}
	gotDesc, err := cf.DescendantsBatch(spans)
	if err != nil {
		t.Fatal(err)
	}
	wantDesc, err := direct.DescendantsBatch(spans)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantDesc {
		if len(gotDesc[i]) != len(wantDesc[i]) {
			t.Fatalf("DescendantsBatch member %d: %d nodes != %d", i, len(gotDesc[i]), len(wantDesc[i]))
		}
		for j := range wantDesc[i] {
			if gotDesc[i][j] != wantDesc[i][j] {
				t.Fatalf("DescendantsBatch member %d row %d out of order", i, j)
			}
		}
	}
}

// TestOneShardDegenerates: a 1-shard cluster must cost exactly the
// single-server exchange counts for batched queries.
func TestOneShardDegenerates(t *testing.T) {
	fx := xmarkFixture(t, 0.02, 7)
	cf := fx.clusterOf(t, 1)
	rem := fx.singleRemote(t)

	clusterCli := filter.NewClient(cf, fx.scheme)
	singleCli := filter.NewClient(rem, fx.scheme)

	for _, qs := range []string{"/site//europe/item", "//bidder/date", "/site/*/person//city"} {
		q := xpath.MustParse(qs)
		for _, test := range []engine.Test{engine.Containment, engine.Equality} {
			beforeC := cf.RoundTrips()
			beforeS := rem.RoundTrips()
			cr, err := engine.NewSimple(clusterCli, fx.m).Run(q, test)
			if err != nil {
				t.Fatal(err)
			}
			sr, err := engine.NewSimple(singleCli, fx.m).Run(q, test)
			if err != nil {
				t.Fatal(err)
			}
			if !equalPres(cr.Pres, sr.Pres) {
				t.Fatalf("%s/%s: results diverge", qs, test)
			}
			cRtts := cf.RoundTrips() - beforeC
			sRtts := rem.RoundTrips() - beforeS
			if cRtts != sRtts {
				t.Errorf("%s/%s: 1-shard cluster cost %d exchanges, single server %d", qs, test, cRtts, sRtts)
			}
		}
	}
}

// TestPerShardExchangeBound pins the acceptance property: a batched
// engine step costs at most one evaluation exchange per shard.
func TestPerShardExchangeBound(t *testing.T) {
	fx := xmarkFixture(t, 0.02, 7)
	cf := fx.clusterOf(t, 3)
	cli := filter.NewClient(cf, fx.scheme)
	eng := engine.NewSimple(cli, fx.m)
	for _, qs := range parityQueries {
		q := xpath.MustParse(qs)
		var steps int64
		for _, s := range q.Steps {
			if s.IsNameTest() {
				steps++
			}
		}
		before := cf.ShardEvalRoundTrips()
		if _, err := eng.Run(q, engine.Containment); err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		after := cf.ShardEvalRoundTrips()
		for si := range after {
			if d := after[si] - before[si]; d > steps {
				t.Errorf("%s: shard %d saw %d evaluation exchanges for %d name steps", qs, si, d, steps)
			}
		}
	}
}

// TestRangeError: a pre outside every shard range must surface as a
// typed RangeError, not a raw store error.
func TestRangeError(t *testing.T) {
	fx := xmarkFixture(t, 0.02, 7)
	cf := fx.clusterOf(t, 2)
	_, err := cf.Node(999999)
	var re *cluster.RangeError
	if !errors.As(err, &re) {
		t.Fatalf("out-of-range pre gave %v, want RangeError", err)
	}
	if re.Pre != 999999 {
		t.Fatalf("RangeError.Pre = %d", re.Pre)
	}
	if _, err := cf.EvalBatch([]filter.EvalRequest{{Pre: -5, Point: 1}}); !errors.As(err, &re) {
		t.Fatalf("batch out-of-range gave %v, want RangeError", err)
	}
}

// TestShardErrorIdentifiesShard: a failing shard is named by index and
// address.
func TestShardErrorIdentifiesShard(t *testing.T) {
	_, err := cluster.Dial([]string{"127.0.0.1:1"})
	var se *cluster.ShardError
	if !errors.As(err, &se) {
		t.Fatalf("dead addr gave %v, want ShardError", err)
	}
	if se.Shard != 0 || se.Addr != "127.0.0.1:1" {
		t.Fatalf("ShardError identifies %d/%s", se.Shard, se.Addr)
	}
	if !strings.Contains(err.Error(), "shard 0 (127.0.0.1:1)") {
		t.Fatalf("error text %q does not name the shard", err)
	}
}

// TestNewValidatesTiling: gaps and overlaps in shard ranges are rejected
// up front.
func TestNewValidatesTiling(t *testing.T) {
	fx := xmarkFixture(t, 0.02, 7)
	sf := filter.NewServerFilter(fx.st, fx.r, 0)
	mk := func(rs ...cluster.Range) []cluster.Shard {
		out := make([]cluster.Shard, len(rs))
		for i, r := range rs {
			out[i] = cluster.Shard{Addr: fmt.Sprintf("s%d", i), Range: r, Conn: sf}
		}
		return out
	}
	if _, err := cluster.New(nil); err == nil {
		t.Fatal("empty cluster accepted")
	}
	if _, err := cluster.New(mk(cluster.Range{Lo: 1, Hi: 10}, cluster.Range{Lo: 12, Hi: 20})); err == nil {
		t.Fatal("gapped ranges accepted")
	}
	if _, err := cluster.New(mk(cluster.Range{Lo: 1, Hi: 10}, cluster.Range{Lo: 10, Hi: 20})); err == nil {
		t.Fatal("overlapping ranges accepted")
	}
	if _, err := cluster.New(mk(cluster.Range{Lo: 11, Hi: 20}, cluster.Range{Lo: 1, Hi: 10})); err != nil {
		t.Fatalf("unsorted but tiling ranges rejected: %v", err)
	}
}

// TestPartitionEven: ranges tile exactly with near-equal sizes.
func TestPartitionEven(t *testing.T) {
	for _, tc := range []struct {
		lo, hi int64
		n      int
	}{
		{1, 10, 1}, {1, 10, 3}, {1, 10, 10}, {5, 104, 7}, {1, 2, 2},
	} {
		rs, err := cluster.PartitionEven(tc.lo, tc.hi, tc.n)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if len(rs) != tc.n {
			t.Fatalf("%+v: %d ranges", tc, len(rs))
		}
		next := tc.lo
		minSize, maxSize := int64(1<<62), int64(0)
		for _, r := range rs {
			if r.Lo != next {
				t.Fatalf("%+v: range starts at %d, want %d", tc, r.Lo, next)
			}
			size := r.Hi - r.Lo + 1
			if size < minSize {
				minSize = size
			}
			if size > maxSize {
				maxSize = size
			}
			next = r.Hi + 1
		}
		if next != tc.hi+1 {
			t.Fatalf("%+v: ranges end at %d, want %d", tc, next-1, tc.hi)
		}
		if maxSize-minSize > 1 {
			t.Fatalf("%+v: shard sizes differ by %d", tc, maxSize-minSize)
		}
	}
	if _, err := cluster.PartitionEven(1, 3, 5); err == nil {
		t.Fatal("more shards than nodes accepted")
	}
	if _, err := cluster.PartitionEven(1, 3, 0); err == nil {
		t.Fatal("zero shards accepted")
	}
}

// TestManifestRoundTrip: write, load, validate.
func TestManifestRoundTrip(t *testing.T) {
	m := &cluster.Manifest{Shards: []cluster.ShardInfo{
		{Addr: "127.0.0.1:7083", DB: "a.shard0.db", Lo: 1, Hi: 100},
		{Addr: "127.0.0.1:7084", DB: "a.shard1.db", Lo: 101, Hi: 200},
	}}
	path := t.TempDir() + "/cluster.json"
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := cluster.LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Shards) != 2 || got.Shards[1].DB != "a.shard1.db" || got.Shards[1].Lo != 101 {
		t.Fatalf("round-trip lost data: %+v", got)
	}
	bad := &cluster.Manifest{Shards: []cluster.ShardInfo{{Lo: 1, Hi: 10}, {Lo: 20, Hi: 30}}}
	badPath := t.TempDir() + "/bad.json"
	if err := bad.WriteFile(badPath); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.LoadManifest(badPath); err == nil {
		t.Fatal("gapped manifest accepted")
	}
}

// TestManifestReplicas: replica lists round-trip, the legacy singular
// fields still describe a one-replica shard, and mixed or mismatched
// forms are rejected.
func TestManifestReplicas(t *testing.T) {
	m := &cluster.Manifest{Shards: []cluster.ShardInfo{
		{DBs: []string{"a.shard0.r0.db", "a.shard0.r1.db"}, Addrs: []string{":7083", ":7183"}, Lo: 1, Hi: 100},
		{DB: "a.shard1.db", Addr: ":7084", Lo: 101, Hi: 200},
	}}
	path := t.TempDir() + "/replicated.json"
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := cluster.LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shards[0].Replicas() != 2 || got.Shards[1].Replicas() != 1 {
		t.Fatalf("replica counts = %d/%d, want 2/1", got.Shards[0].Replicas(), got.Shards[1].Replicas())
	}
	if dbs := got.Shards[0].ReplicaDBs(); len(dbs) != 2 || dbs[1] != "a.shard0.r1.db" {
		t.Fatalf("shard 0 replica dbs = %v", dbs)
	}
	if dbs := got.Shards[1].ReplicaDBs(); len(dbs) != 1 || dbs[0] != "a.shard1.db" {
		t.Fatalf("legacy shard dbs = %v", dbs)
	}
	if addrs := got.Shards[1].ReplicaAddrs(); len(addrs) != 1 || addrs[0] != ":7084" {
		t.Fatalf("legacy shard addrs = %v", addrs)
	}

	mixed := &cluster.Manifest{Shards: []cluster.ShardInfo{
		{DB: "x.db", DBs: []string{"y.db"}, Lo: 1, Hi: 10},
	}}
	if err := mixed.Validate(); err == nil {
		t.Fatal("manifest with both db and dbs accepted")
	}
	mismatched := &cluster.Manifest{Shards: []cluster.ShardInfo{
		{DBs: []string{"a.db", "b.db"}, Addrs: []string{":1"}, Lo: 1, Hi: 10},
	}}
	if err := mismatched.Validate(); err == nil {
		t.Fatal("manifest with 2 dbs but 1 addr accepted")
	}
}

// TestClusterServerStats checks the stats counter plumbing through
// scatter/gather: the aggregated cluster stats equal the sum of real
// server-side work, and a query actually moves them.
func TestClusterServerStats(t *testing.T) {
	fx := xmarkFixture(t, 0.01, 7)
	cf := fx.clusterOf(t, 3)
	cli := filter.NewClient(cf, fx.scheme)
	eng := engine.NewAdvanced(cli, fx.m)

	before, err := cf.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(xpath.MustParse("/site//europe/item"), engine.Containment); err != nil {
		t.Fatal(err)
	}
	after, err := cf.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if after.Evals <= before.Evals {
		t.Fatalf("cluster Evals did not advance: %+v -> %+v", before, after)
	}
	if after.Decodes == 0 || after.CacheMisses == 0 {
		t.Fatalf("cluster decode/cache counters empty: %+v", after)
	}
	// Hits+misses must cover every cache probe that preceded a decode:
	// decodes happen only on misses.
	if after.Decodes > after.CacheMisses {
		t.Fatalf("more decodes than cache misses: %+v", after)
	}
}
