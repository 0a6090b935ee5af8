package encshare

// Integration tests: whole-pipeline properties on randomized documents,
// failure injection, and concurrency — the cross-module layer above the
// per-package suites.

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"

	"encshare/internal/store"
	"encshare/internal/xmldoc"
	"encshare/internal/xpath"
)

// randomDocXML builds a random XMark-tag-flavoured document so queries
// over it are meaningful.
func randomDocXML(rng *rand.Rand, nodes int) string {
	names := []string{"site", "regions", "europe", "item", "name", "people",
		"person", "city", "open_auction", "bidder", "date"}
	root := &xmldoc.Node{Name: "site"}
	all := []*xmldoc.Node{root}
	for i := 0; i < nodes; i++ {
		parent := all[rng.Intn(len(all))]
		child := &xmldoc.Node{Name: names[rng.Intn(len(names))]}
		parent.Children = append(parent.Children, child)
		all = append(all, child)
	}
	d := &xmldoc.Doc{Root: root}
	d.Rebuild()
	var buf bytes.Buffer
	if err := d.WriteXML(&buf); err != nil {
		panic(err)
	}
	return buf.String()
}

// TestIntegrationRandomizedOracleParity: on random trees, every engine ×
// test combination agrees with the plaintext oracle for a battery of
// randomized queries. This is the strongest end-to-end correctness check
// in the repo.
func TestIntegrationRandomizedOracleParity(t *testing.T) {
	queries := []string{
		"/site", "//item", "//person//city", "/site/*/person",
		"/site//europe/item", "//bidder/date", "//open_auction/bidder",
		"/site/regions//name", "//*", "/*/*",
		"/site/regions/../people",
	}
	for trial := 0; trial < 5; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial) * 7919))
			xml := randomDocXML(rng, 120+rng.Intn(200))
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
			session := OpenLocal(keys, db)
			oracle := xpath.NewOracle(doc)

			for _, qs := range queries {
				q := xpath.MustParse(qs)
				for _, opt := range []QueryOptions{
					{Engine: Simple, Test: TestExact},
					{Engine: Advanced, Test: TestExact},
					{Engine: Simple, Test: TestContainment},
					{Engine: Advanced, Test: TestContainment},
				} {
					mode := xpath.MatchEqual
					if opt.Test == TestContainment {
						mode = xpath.MatchContain
					}
					want := xpath.Pres(oracle.Eval(q, mode))
					got, err := session.QueryWith(qs, opt)
					if err != nil {
						t.Fatalf("%s %+v: %v", qs, opt, err)
					}
					if len(got.Pres) != len(want) {
						t.Fatalf("%s %+v: %d nodes, oracle %d", qs, opt, len(got.Pres), len(want))
					}
					for i := range want {
						if got.Pres[i] != want[i] {
							t.Fatalf("%s %+v: result %v != oracle %v", qs, opt, got.Pres, want)
						}
					}
				}
			}
		})
	}
}

// TestEngineParityFullPipeline runs the query grid over a random
// document encoded once and served over TCP: every query engine × test
// combination must agree with the plaintext oracle through the wire
// path, not just the in-process one above.
func TestEngineParityFullPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(427))
	xml := randomDocXML(rng, 160)
	doc, err := xmldoc.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := GenerateKeys(Params{P: 83}, doc.Names())
	if err != nil {
		t.Fatal(err)
	}
	oracle := xpath.NewOracle(doc)
	db := encodeFresh(t, keys, xml)
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

	for _, qs := range []string{
		"/site", "//item", "//person//city", "/site/*/person",
		"/site//europe/item", "//*", "/site/regions/../people",
	} {
		q := xpath.MustParse(qs)
		for _, opt := range []QueryOptions{
			{Engine: Simple, Test: TestExact},
			{Engine: Advanced, Test: TestContainment},
		} {
			mode := xpath.MatchEqual
			if opt.Test == TestContainment {
				mode = xpath.MatchContain
			}
			want := xpath.Pres(oracle.Eval(q, mode))
			got, err := session.QueryWith(qs, opt)
			if err != nil {
				t.Fatalf("%s %+v: %v", qs, opt, err)
			}
			if fmt.Sprint(got.Pres) != fmt.Sprint(want) {
				t.Fatalf("%s %+v: result %v != oracle %v", qs, opt, got.Pres, want)
			}
		}
	}
}

// TestIntegrationCorruptedShareDetected: flipping bytes in a stored share
// must not crash the pipeline; out-of-range blobs surface as errors, and
// in-range corruption garbles results (it cannot silently pass the exact
// oracle on all queries — overwhelmingly likely to change some answer).
func TestIntegrationCorruptedShare(t *testing.T) {
	xml := `<site><people><person><city/></person></people></site>`
	doc, _ := xmldoc.ParseString(xml)
	keys, err := GenerateKeys(Params{P: 83}, doc.Names())
	if err != nil {
		t.Fatal(err)
	}
	dsn := store.FreshDSN()
	db, err := CreateDatabase(dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.EncodeXML(keys, strings.NewReader(xml)); err != nil {
		t.Fatal(err)
	}

	// Corrupt the root's share to an out-of-range value (all 0xFF exceeds
	// q^n - 1 for F_83), going through the store API so the test covers
	// whichever engine backs the table.
	st, err := store.Open(dsn)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Attach(); err != nil {
		t.Fatal(err)
	}
	root, err := st.Node(1)
	if err != nil {
		t.Fatal(err)
	}
	root.Poly = bytes.Repeat([]byte{0xFF}, keys.PolyBytes())
	if err := st.UpdateNode(1, root); err != nil {
		t.Fatal(err)
	}
	session := OpenLocal(keys, db)
	if _, err := session.Query("/site"); err == nil {
		t.Fatal("query over out-of-range share succeeded")
	}
}

// TestIntegrationStoreErrNotFound: ErrNotFound propagates with errors.Is
// semantics through the store layer.
func TestIntegrationStoreErrNotFound(t *testing.T) {
	dsn := store.FreshDSN()
	st, err := store.Open(dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		st.Close()
		store.Drop(dsn)
	}()
	if err := st.Init(); err != nil {
		t.Fatal(err)
	}
	_, err = st.Node(42)
	if err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("err = %v", err)
	}
}

// TestIntegrationConcurrentSessions: multiple client sessions with
// distinct counters may query one server concurrently.
func TestIntegrationConcurrentSessions(t *testing.T) {
	xml := randomDocXML(rand.New(rand.NewSource(3)), 300)
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
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go db.Serve(l, keys.Params())

	ref, err := OpenLocal(keys, db).Query("//item")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			session, err := Dial(keys, l.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer session.Close()
			for i := 0; i < 5; i++ {
				res, err := session.Query("//item")
				if err != nil {
					errs <- err
					return
				}
				if len(res.Pres) != len(ref.Pres) {
					errs <- fmt.Errorf("concurrent session got %d nodes, want %d", len(res.Pres), len(ref.Pres))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestIntegrationExtensionField: the whole pipeline works over a proper
// extension field F_{3^4} (q = 81), not just prime fields.
func TestIntegrationExtensionField(t *testing.T) {
	xml := `<site><regions><europe><item/></europe></regions><people><person><city/></person></people></site>`
	doc, _ := xmldoc.ParseString(xml)
	keys, err := GenerateKeys(Params{P: 3, E: 4}, doc.Names())
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
	session := OpenLocal(keys, db)
	for qs, want := range map[string]int{
		"/site//city": 1, "//item": 1, "/site/*/person": 1,
	} {
		res, err := session.Query(qs)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		if len(res.Pres) != want {
			t.Fatalf("%s over F_81 = %v, want %d", qs, res.Pres, want)
		}
	}
}

// TestIntegrationEngineWorkOrdering: across a randomized document, the
// advanced engine must never lose to the simple engine by more than the
// paper's constant factor in evaluations, and must win in nodes visited
// for descendant-heavy queries.
func TestIntegrationEngineWorkOrdering(t *testing.T) {
	xml := randomDocXML(rand.New(rand.NewSource(17)), 800)
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
	session := OpenLocal(keys, db)
	var sumSimple, sumAdvanced int64
	for _, qs := range []string{"//person//city", "//open_auction/bidder", "/site//item"} {
		s, err := session.QueryWith(qs, QueryOptions{Engine: Simple, Test: TestContainment})
		if err != nil {
			t.Fatal(err)
		}
		a, err := session.QueryWith(qs, QueryOptions{Engine: Advanced, Test: TestContainment})
		if err != nil {
			t.Fatal(err)
		}
		sumSimple += s.Stats.NodesVisited
		sumAdvanced += a.Stats.NodesVisited
	}
	if sumAdvanced > sumSimple {
		t.Fatalf("advanced visited %d nodes vs simple %d on descendant-heavy queries",
			sumAdvanced, sumSimple)
	}
}
