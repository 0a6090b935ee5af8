package encshare

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"

	"encshare/internal/store"
	"encshare/internal/xmldoc"
)

const testXML = `<site><regions><europe><item><name>lamp</name></item></europe></regions><people><person><name>Joan Johnson</name><address><city>Enschede</city></address></person></people></site>`

func testNames(t *testing.T) []string {
	t.Helper()
	d, err := xmldoc.ParseString(testXML)
	if err != nil {
		t.Fatal(err)
	}
	return d.Names()
}

func TestEndToEndLocal(t *testing.T) {
	keys, err := GenerateKeys(Params{P: 83}, testNames(t))
	if err != nil {
		t.Fatal(err)
	}
	dsn := store.FreshDSN()
	db, err := CreateDatabase(dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	stats, err := db.EncodeXML(keys, strings.NewReader(testXML))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Nodes != 10 {
		t.Fatalf("encoded %d nodes", stats.Nodes)
	}
	n, err := db.NodeCount()
	if err != nil || n != 10 {
		t.Fatalf("NodeCount = %d, %v", n, err)
	}

	session := OpenLocal(keys, db)
	defer session.Close()
	for q, want := range map[string]int{
		"/site":                1,
		"//item":               1,
		"/site//city":          1,
		"/site/*/person":       1,
		"//zzz-not-there":      0,
		"/site/regions/europe": 1,
	} {
		res, err := session.Query(q)
		if err != nil {
			t.Fatalf("Query(%s): %v", q, err)
		}
		if len(res.Pres) != want {
			t.Errorf("Query(%s) = %v, want %d nodes", q, res.Pres, want)
		}
	}
	// Options: both engines, both tests. Exact returns just the city
	// node; containment over-approximates with its ancestors (site,
	// people, person, address) — the Fig. 7 accuracy trade-off.
	for _, opt := range []QueryOptions{
		{Engine: Simple}, {Engine: Advanced},
		{Engine: Simple, Test: TestContainment}, {Engine: Advanced, Test: TestContainment},
	} {
		res, err := session.QueryWith("//city", opt)
		if err != nil {
			t.Fatal(err)
		}
		want := 1
		if opt.Test == TestContainment {
			want = 5
		}
		if len(res.Pres) != want {
			t.Errorf("%+v: //city = %v, want %d nodes", opt, res.Pres, want)
		}
		if res.Stats.Evaluations+res.Stats.Reconstructions == 0 {
			t.Errorf("%+v: no work counted", opt)
		}
	}
}

func TestEndToEndRemote(t *testing.T) {
	keys, err := GenerateKeys(Params{P: 83}, testNames(t))
	if err != nil {
		t.Fatal(err)
	}
	dsn := store.FreshDSN()
	db, err := CreateDatabase(dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.EncodeXML(keys, strings.NewReader(testXML)); err != nil {
		t.Fatal(err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go db.Serve(l, keys.Params())
	defer l.Close()

	session, err := Dial(keys, l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()
	res, err := session.Query("/site//city")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pres) != 1 {
		t.Fatalf("remote //city = %v", res.Pres)
	}

	// The same query under both wire protocols: identical answers, and
	// the batched default costs strictly fewer server exchanges.
	for _, opt := range []QueryOptions{{Engine: Simple}, {Engine: Advanced}} {
		batchedOpt, percallOpt := opt, opt
		percallOpt.Batch = PerCall
		before := session.RoundTrips()
		br, err := session.QueryWith("/site//city", batchedOpt)
		if err != nil {
			t.Fatal(err)
		}
		batched := session.RoundTrips() - before
		before = session.RoundTrips()
		pr, err := session.QueryWith("/site//city", percallOpt)
		if err != nil {
			t.Fatal(err)
		}
		percall := session.RoundTrips() - before
		if len(br.Pres) != 1 || len(pr.Pres) != 1 {
			t.Fatalf("%+v: batched %v, per-call %v", opt, br.Pres, pr.Pres)
		}
		if batched >= percall {
			t.Errorf("%+v: batched cost %d round-trips, per-call %d", opt, batched, percall)
		}
	}
}

// TestEndToEndCluster exercises the whole sharded deployment through
// the public API: ShardPlan/DumpShard cut the table into three loadable
// shard files, three servers serve them over TCP, and DialCluster runs
// the same queries with identical results, counters, and per-shard
// round-trip accounting.
func TestEndToEndCluster(t *testing.T) {
	xml := randomDocXML(rand.New(rand.NewSource(21)), 400)
	doc, _ := xmldoc.ParseString(xml)
	keys, err := GenerateKeys(Params{P: 83}, doc.Names())
	if err != nil {
		t.Fatal(err)
	}
	db, err := CreateDatabase(store.FreshDSN())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.EncodeXML(keys, strings.NewReader(xml)); err != nil {
		t.Fatal(err)
	}

	plan, err := db.ShardPlan(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 3 {
		t.Fatalf("ShardPlan(3) = %d ranges", len(plan))
	}
	var addrs []string
	for _, r := range plan {
		var dump bytes.Buffer
		if err := db.DumpShard(&dump, r); err != nil {
			t.Fatal(err)
		}
		shardDB, err := CreateDatabase(store.FreshDSN())
		if err != nil {
			t.Fatal(err)
		}
		defer shardDB.Close()
		if err := shardDB.LoadFrom(&dump); err != nil {
			t.Fatal(err)
		}
		want := r.Hi - r.Lo + 1
		if n, err := shardDB.NodeCount(); err != nil || n != want {
			t.Fatalf("shard [%d, %d] holds %d nodes (%v), want %d", r.Lo, r.Hi, n, err, want)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go shardDB.Serve(l, keys.Params())
		addrs = append(addrs, l.Addr().String())
	}

	session, err := DialCluster(keys, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()
	if session.Shards() != 3 {
		t.Fatalf("Shards() = %d", session.Shards())
	}
	local := OpenLocal(keys, db)
	for _, qs := range []string{"/site", "//item", "//person//city", "//bidder/date", "/site/*/person"} {
		for _, opt := range []QueryOptions{
			{}, {Engine: Simple}, {Test: TestContainment}, {Batch: PerCall},
		} {
			want, err := local.QueryWith(qs, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := session.QueryWith(qs, opt)
			if err != nil {
				t.Fatalf("%s %+v over cluster: %v", qs, opt, err)
			}
			if len(got.Pres) != len(want.Pres) {
				t.Fatalf("%s %+v: cluster %v != local %v", qs, opt, got.Pres, want.Pres)
			}
			for i := range want.Pres {
				if got.Pres[i] != want.Pres[i] {
					t.Fatalf("%s %+v: cluster %v != local %v", qs, opt, got.Pres, want.Pres)
				}
			}
			if got.Stats.Evaluations != want.Stats.Evaluations ||
				got.Stats.Reconstructions != want.Stats.Reconstructions {
				t.Fatalf("%s %+v: cluster work %+v != local %+v", qs, opt, got.Stats, want.Stats)
			}
			if err := strictIdentity(local, keys, qs, opt, got.Stats); err != nil {
				t.Fatalf("cluster: %v", err)
			}
		}
	}
	per := session.ShardRoundTrips()
	if len(per) != 3 {
		t.Fatalf("ShardRoundTrips = %v", per)
	}
	var sum int64
	for _, n := range per {
		sum += n
	}
	if sum == 0 || sum != session.RoundTrips() {
		t.Fatalf("per-shard counters %v do not aggregate to %d", per, session.RoundTrips())
	}

	// A dead shard address fails the dial with an error naming it.
	if _, err := DialCluster(keys, []string{addrs[0], "127.0.0.1:1"}); err == nil ||
		!strings.Contains(err.Error(), "shard 1 (127.0.0.1:1)") {
		t.Fatalf("dead shard dial gave %v, want a shard-identifying error", err)
	}
}

// strictIdentity checks a Batched strict run's work against the PerCall
// run of the same query on ref: the batched run evaluates, at each of
// the map's free points, every row the per-call run reconstructs, and
// reconstructs nothing; its other evaluations are the per-call run's.
// Other runs pass.
func strictIdentity(ref *Session, keys *Keys, qs string, opt QueryOptions, batched Stats) error {
	if opt.Test != TestExact || opt.Batch != Batched {
		return nil
	}
	per, err := ref.QueryWith(qs, QueryOptions{Engine: opt.Engine, Batch: PerCall})
	if err != nil {
		return err
	}
	points := int64(len(keys.m.FreePoints()))
	if batched.Reconstructions != 0 || batched.Evaluations != per.Stats.Evaluations+points*per.Stats.Reconstructions {
		return fmt.Errorf("%s %+v: batched work %+v, per-call %+v at %d free points", qs, opt, batched, per.Stats, points)
	}
	return nil
}

func TestKeyRoundTrip(t *testing.T) {
	names := testNames(t)
	keys, err := GenerateKeys(Params{P: 83}, names)
	if err != nil {
		t.Fatal(err)
	}
	var mapFile bytes.Buffer
	if err := keys.SaveMap(&mapFile); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadKeys(Params{P: 83}, keys.Seed(), &mapFile)
	if err != nil {
		t.Fatal(err)
	}

	// A database encoded with the original keys must answer queries under
	// the restored keys.
	dsn := store.FreshDSN()
	db, err := CreateDatabase(dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.EncodeXML(keys, strings.NewReader(testXML)); err != nil {
		t.Fatal(err)
	}
	session := OpenLocal(restored, db)
	res, err := session.Query("//person")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pres) != 1 {
		t.Fatalf("restored keys: //person = %v", res.Pres)
	}
}

func TestWrongKeysGarbleQueries(t *testing.T) {
	names := testNames(t)
	right, err := GenerateKeys(Params{P: 83}, names)
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := GenerateKeys(Params{P: 83}, names)
	if err != nil {
		t.Fatal(err)
	}
	dsn := store.FreshDSN()
	db, err := CreateDatabase(dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.EncodeXML(right, strings.NewReader(testXML)); err != nil {
		t.Fatal(err)
	}
	session := OpenLocal(wrong, db)
	res, err := session.Query("/site")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pres) != 0 {
		t.Fatalf("wrong seed still matched: %v", res.Pres)
	}
}

func TestTrieContentSearchPublicAPI(t *testing.T) {
	d, err := xmldoc.ParseString(testXML)
	if err != nil {
		t.Fatal(err)
	}
	var corpus strings.Builder
	d.Walk(func(n *xmldoc.Node) bool {
		corpus.WriteString(n.Text + " ")
		return true
	})
	names := ContentNames(d.Names(), corpus.String())
	keys, err := GenerateKeys(Params{P: 83, TrieMode: TrieCompressed}, names)
	if err != nil {
		t.Fatal(err)
	}
	dsn := store.FreshDSN()
	db, err := CreateDatabase(dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.EncodeXML(keys, strings.NewReader(testXML)); err != nil {
		t.Fatal(err)
	}
	session := OpenLocal(keys, db)
	res, err := session.QueryWith(`/site//person[contains(text(),"Joan")]`, QueryOptions{Test: TestExact})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pres) != 1 {
		t.Fatalf("content search = %v", res.Pres)
	}
	res, err = session.QueryWith(`/site//person[contains(text(),"Zelda")]`, QueryOptions{Test: TestExact})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pres) != 0 {
		t.Fatalf("absent word matched: %v", res.Pres)
	}
}

func TestDumpLoadAcrossDatabases(t *testing.T) {
	keys, err := GenerateKeys(Params{P: 83}, testNames(t))
	if err != nil {
		t.Fatal(err)
	}
	db1, err := CreateDatabase(store.FreshDSN())
	if err != nil {
		t.Fatal(err)
	}
	defer db1.Close()
	if _, err := db1.EncodeXML(keys, strings.NewReader(testXML)); err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	if err := db1.DumpTo(&dump); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenDatabase(store.FreshDSN())
	if err == nil {
		// Attach on an empty database fails to prepare; expect error path
		// to be exercised via LoadFrom instead.
		defer db2.Close()
	}
	db3, err := CreateDatabase(store.FreshDSN())
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if err := db3.LoadFrom(&dump); err != nil {
		t.Fatal(err)
	}
	session := OpenLocal(keys, db3)
	res, err := session.Query("//item")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pres) != 1 {
		t.Fatalf("after dump/load: //item = %v", res.Pres)
	}
}

func TestBadParams(t *testing.T) {
	if _, err := GenerateKeys(Params{P: 6}, []string{"a"}); err == nil {
		t.Fatal("composite P accepted")
	}
	if _, err := LoadKeys(Params{P: 83}, nil, strings.NewReader("a = 1")); err == nil {
		t.Fatal("empty seed accepted")
	}
	if _, err := GenerateKeys(Params{P: 3}, []string{"a", "b", "c"}); err == nil {
		t.Fatal("map overflow accepted")
	}
}

func TestBadQuerySyntax(t *testing.T) {
	keys, err := GenerateKeys(Params{P: 83}, testNames(t))
	if err != nil {
		t.Fatal(err)
	}
	db, err := CreateDatabase(store.FreshDSN())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.EncodeXML(keys, strings.NewReader(testXML)); err != nil {
		t.Fatal(err)
	}
	session := OpenLocal(keys, db)
	if _, err := session.Query("not-a-query"); err == nil {
		t.Fatal("bad query accepted")
	}
}
