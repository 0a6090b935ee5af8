package encshare

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"

	"encshare/internal/filter"
	"encshare/internal/gf"
	"encshare/internal/ring"
	"encshare/internal/server"
	"encshare/internal/store"
	"encshare/internal/xmldoc"
)

// aggSession builds a local session over testXML for the given field.
func aggSession(t *testing.T, params Params) *Session {
	t.Helper()
	keys, err := GenerateKeys(params, testNames(t))
	if err != nil {
		t.Fatal(err)
	}
	db, err := CreateDatabase(store.FreshDSN())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.EncodeXML(keys, strings.NewReader(testXML)); err != nil {
		t.Fatal(err)
	}
	s := OpenLocal(keys, db)
	t.Cleanup(func() { s.Close() })
	return s
}

// aggOracleSum reconstructs every matching row through the session's
// own client filter and sums client-side — the pre-aggregate ground
// truth every fold must match.
func aggOracleSum(t *testing.T, s *Session, pres []int64) ring.Poly {
	t.Helper()
	r := s.keys.ring
	total := r.NewPoly()
	for _, pre := range pres {
		p, err := s.cli.Reconstruct(pre)
		if err != nil {
			t.Fatal(err)
		}
		r.AddInPlace(total, p)
	}
	return total
}

// TestAggregateParityGrid is the acceptance parity grid: across prime
// and extension fields, both engines, both wire protocols, and all
// three kinds, the aggregate over a query's rows must equal the
// client-side reconstruction oracle — verified, with no downgrade.
func TestAggregateParityGrid(t *testing.T) {
	fields := []Params{{P: 83}, {P: 29}, {P: 5, E: 3}}
	queries := []string{"//item", "//name", "/site//person", "/site", "//zzz-not-there"}
	grid := []QueryOptions{
		{},
		{Engine: Simple},
		{Batch: PerCall},
		{Engine: Simple, Batch: PerCall},
	}
	for _, params := range fields {
		s := aggSession(t, params)
		f, r := s.keys.field, s.keys.ring
		for _, qs := range queries {
			for _, qopt := range grid {
				tag := fmt.Sprintf("q=%d %s %+v", f.Q(), qs, qopt)
				want, err := s.QueryWith(qs, qopt)
				if err != nil {
					t.Fatal(err)
				}
				oracle := aggOracleSum(t, s, want.Pres)

				res, err := s.AggregateWith(qs, AggSum, AggregateOptions{Query: qopt})
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if fmt.Sprint(res.Pres) != fmt.Sprint(want.Pres) {
					t.Fatalf("%s: aggregate rows %v != query rows %v", tag, res.Pres, want.Pres)
				}
				if res.Count != int64(len(want.Pres)) {
					t.Fatalf("%s: Count = %d, want %d", tag, res.Count, len(want.Pres))
				}
				if !r.Equal(res.Sum, oracle) {
					t.Fatalf("%s: SUM != reconstruction oracle", tag)
				}
				if !res.Verified || res.Downgraded {
					t.Fatalf("%s: verified=%v downgraded=%v", tag, res.Verified, res.Downgraded)
				}

				cnt, err := s.AggregateWith(qs, AggCount, AggregateOptions{Query: qopt})
				if err != nil {
					t.Fatalf("%s count: %v", tag, err)
				}
				if cnt.Count != res.Count || cnt.Sum != nil {
					t.Fatalf("%s: COUNT = %d (sum %v), want %d (nil)", tag, cnt.Count, cnt.Sum, res.Count)
				}

				avg, err := s.AggregateWith(qs, AggAvg, AggregateOptions{Query: qopt})
				if res.Count%int64(f.Q()) == 0 {
					if !errors.As(err, new(*filter.AvgUndefinedError)) {
						t.Fatalf("%s: AVG over %d rows: err = %v, want AvgUndefinedError", tag, res.Count, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s avg: %v", tag, err)
				}
				wantAvg := r.AddScaledInPlace(r.NewPoly(), oracle, f.Inv(gf.Elem(res.Count%int64(f.Q()))))
				if !r.Equal(avg.Avg, wantAvg) {
					t.Fatalf("%s: AVG != SUM · count⁻¹", tag)
				}
			}
		}
	}
}

// TestAggregateRemoteEndToEnd runs the fold against a real TCP server:
// parity with the local oracle, and the aggregation phase costs exactly
// ONE extra exchange over the bare query — O(shards), not O(rows).
func TestAggregateRemoteEndToEnd(t *testing.T) {
	xml := randomDocXML(rand.New(rand.NewSource(55)), 300)
	doc, err := xmldoc.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
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
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go db.Serve(l, keys.Params())

	session, err := Dial(keys, l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()
	local := OpenLocal(keys, db)
	defer local.Close()

	const q = "//item"
	want, err := local.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Pres) < 5 {
		t.Fatalf("fixture too small: %d items", len(want.Pres))
	}
	oracle := aggOracleSum(t, local, want.Pres)

	before := session.RoundTrips()
	qr, err := session.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	queryCost := session.RoundTrips() - before

	before = session.RoundTrips()
	res, err := session.Aggregate(q, AggSum)
	if err != nil {
		t.Fatal(err)
	}
	aggCost := session.RoundTrips() - before

	if !keys.ring.Equal(res.Sum, oracle) || res.Count != int64(len(want.Pres)) {
		t.Fatalf("remote aggregate: count=%d parity=%v", res.Count, keys.ring.Equal(res.Sum, oracle))
	}
	if !res.Verified || res.Downgraded {
		t.Fatalf("remote aggregate: verified=%v downgraded=%v", res.Verified, res.Downgraded)
	}
	if got := aggCost - queryCost; got != 1 {
		t.Fatalf("aggregation phase cost %d exchanges over %d rows, want 1 (O(shards) not O(rows))", got, len(qr.Pres))
	}
	if res.Stats.Folds != int64(len(want.Pres)) {
		t.Fatalf("Stats.Folds = %d, want %d (one client-share fold per row)", res.Stats.Folds, len(want.Pres))
	}
}

// TestAggregateClusterEndToEnd: the public cluster path — shard dumps,
// TCP servers, DialCluster — answers verified aggregates identical to
// the local session.
func TestAggregateClusterEndToEnd(t *testing.T) {
	xml := randomDocXML(rand.New(rand.NewSource(77)), 400)
	doc, err := xmldoc.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
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
	local := OpenLocal(keys, db)
	defer local.Close()

	for _, qs := range []string{"//item", "//person//city", "/site"} {
		want, err := local.Query(qs)
		if err != nil {
			t.Fatal(err)
		}
		oracle := aggOracleSum(t, local, want.Pres)
		for _, kind := range []AggKind{AggCount, AggSum} {
			res, err := session.Aggregate(qs, kind)
			if err != nil {
				t.Fatalf("%s %v: %v", qs, kind, err)
			}
			if res.Count != int64(len(want.Pres)) {
				t.Fatalf("%s %v: count %d, want %d", qs, kind, res.Count, len(want.Pres))
			}
			if kind == AggSum && !keys.ring.Equal(res.Sum, oracle) {
				t.Fatalf("%s: cluster SUM != local oracle", qs)
			}
			if res.Downgraded || !res.Verified {
				t.Fatalf("%s %v: downgraded=%v verified=%v", qs, kind, res.Downgraded, res.Verified)
			}
		}
	}
}

// TestMultiTenantAggregateStats: aggregate frames are counted per
// tenant — one tenant's folds never move another tenant's counter.
func TestMultiTenantAggregateStats(t *testing.T) {
	t.Run("segmented", func(t *testing.T) {
		aKeys, aDB := buildTenant(t, 303, 300)
		bKeys, bDB := buildTenant(t, 404, 300)
		rt := server.New(server.Config{Default: "auction"})
		if err := rt.AttachStore(server.Tenant{Name: "auction", P: 83}, aDB.st); err != nil {
			t.Fatal(err)
		}
		if err := rt.AttachStore(server.Tenant{Name: "books", P: 83}, bDB.st); err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go rt.Serve(l)

		aSess, err := DialWith(aKeys, l.Addr().String(), DialOptions{Tenant: "auction"})
		if err != nil {
			t.Fatal(err)
		}
		defer aSess.Close()
		bSess, err := DialWith(bKeys, l.Addr().String(), DialOptions{Tenant: "books"})
		if err != nil {
			t.Fatal(err)
		}
		defer bSess.Close()

		// Tenant A folds twice, tenant B three times: the counters
		// must land exactly, on the right tenants.
		for i := 0; i < 2; i++ {
			if _, err := aSess.Aggregate("//item", AggSum); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			if _, err := bSess.Aggregate("//item", AggCount); err != nil {
				t.Fatal(err)
			}
		}
		aStats, err := aSess.ServerStats()
		if err != nil {
			t.Fatal(err)
		}
		bStats, err := bSess.ServerStats()
		if err != nil {
			t.Fatal(err)
		}
		if aStats.Aggregates != 2 || bStats.Aggregates != 3 {
			t.Fatalf("per-tenant Aggregates = %d/%d, want 2/3", aStats.Aggregates, bStats.Aggregates)
		}
	})
}
