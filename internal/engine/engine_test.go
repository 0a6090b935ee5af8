package engine

import (
	"testing"

	"encshare/internal/encoder"
	"encshare/internal/filter"
	"encshare/internal/gf"
	"encshare/internal/mapping"
	"encshare/internal/prg"
	"encshare/internal/ring"
	"encshare/internal/secshare"
	"encshare/internal/store"
	"encshare/internal/trie"
	"encshare/internal/xmark"
	"encshare/internal/xmldoc"
	"encshare/internal/xpath"
)

// fixture is an encrypted database plus engines and a plaintext oracle.
type fixture struct {
	doc      *xmldoc.Doc
	m        *mapping.Map
	oracle   *xpath.Oracle
	simple   *Simple
	advanced *Advanced
	cli      *filter.Client
	server   *filter.ServerFilter
	scheme   *secshare.Scheme
}

// build encodes doc (already trie-transformed if desired) into a fresh
// store and wires up the engines.
func build(t testing.TB, doc *xmldoc.Doc, extraNames []string) *fixture {
	t.Helper()
	f := gf.MustNew(251, 1) // roomy field: tags + alphabet fit
	names := append(doc.Names(), extraNames...)
	m, err := mapping.Generate(f, names)
	if err != nil {
		t.Fatal(err)
	}
	r := ring.MustNew(f)
	scheme := secshare.New(r, prg.New([]byte("engine-test")))

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
	server := filter.NewServerFilter(st, r, 1024)
	cli := filter.NewClient(server, scheme)
	return &fixture{
		doc:      doc,
		m:        m,
		oracle:   xpath.NewOracle(doc),
		simple:   NewSimple(cli, m),
		advanced: NewAdvanced(cli, m),
		cli:      cli,
		server:   server,
		scheme:   scheme,
	}
}

func buildXML(t testing.TB, xml string) *fixture {
	t.Helper()
	doc, err := xmldoc.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	return build(t, doc, nil)
}

func equalPres(a []int64, b []int64) bool {
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

// matchMode is the plaintext oracle's match mode for a test.
func matchMode(test Test) xpath.MatchMode {
	if test == Equality {
		return xpath.MatchEqual
	}
	return xpath.MatchContain
}

const smallXML = `<site>
  <regions>
    <europe><item><name/><description><text><keyword/></text></description></item><item><name/></item></europe>
    <asia><item><name/></item></asia>
    <africa/>
  </regions>
  <people>
    <person><name/><address><city/></address></person>
    <person><name/></person>
  </people>
  <open_auctions>
    <open_auction><bidder><date/></bidder><bidder><date/></bidder><itemref/></open_auction>
    <open_auction><itemref/></open_auction>
  </open_auctions>
</site>`

var testQueries = []string{
	"/site",
	"/site/regions",
	"/site/regions/europe",
	"/site/regions/europe/item",
	"/site/regions/europe/item/name",
	"/site//item",
	"/site//europe/item",
	"/site//europe//item",
	"/site/*/person",
	"/site/*/person//city",
	"/*/*/open_auction/bidder/date",
	"//bidder/date",
	"//city",
	"//item/name",
	"/site/regions/../people/person",
	"/nothing/here",
	"//*",
	"/*",
}

// TestEnginesMatchOracle is the central correctness test: for every query
// and every (engine, test) combination, the encrypted result must equal
// the plaintext oracle's prediction for the corresponding match mode.
func TestEnginesMatchOracle(t *testing.T) {
	fx := buildXML(t, smallXML)
	for _, qs := range testQueries {
		q := xpath.MustParse(qs)
		for _, test := range []Test{Containment, Equality} {
			want := xpath.Pres(fx.oracle.Eval(q, matchMode(test)))
			for _, eng := range []Engine{fx.simple, fx.advanced} {
				got, err := eng.Run(q, test)
				if err != nil {
					t.Fatalf("%s %s %s: %v", eng.Name(), test, qs, err)
				}
				if !equalPres(got.Pres, want) {
					t.Errorf("%s/%s on %s: got %v, want %v", eng.Name(), test, qs, got.Pres, want)
				}
			}
		}
	}
}

// TestEnginesAgreeOnXMark runs both engines over a real XMark document.
func TestEnginesAgreeOnXMark(t *testing.T) {
	doc := xmark.Generate(xmark.Config{Scale: 0.02, Seed: 11})
	fx := build(t, doc, nil)
	queries := []string{
		"/site//europe/item",
		"/site/*/person//city",
		"//bidder/date",
		"/site/regions/europe/item/description",
	}
	for _, qs := range queries {
		q := xpath.MustParse(qs)
		for _, test := range []Test{Containment, Equality} {
			want := xpath.Pres(fx.oracle.Eval(q, matchMode(test)))
			s, err := fx.simple.Run(q, test)
			if err != nil {
				t.Fatal(err)
			}
			a, err := fx.advanced.Run(q, test)
			if err != nil {
				t.Fatal(err)
			}
			if !equalPres(s.Pres, want) || !equalPres(a.Pres, want) {
				t.Errorf("%s/%s: simple=%d advanced=%d oracle=%d nodes",
					qs, test, len(s.Pres), len(a.Pres), len(want))
			}
		}
	}
}

// TestEqualitySubsetOfContainment: E ⊆ C for every query (Fig. 7's
// premise).
func TestEqualitySubsetOfContainment(t *testing.T) {
	fx := buildXML(t, smallXML)
	for _, qs := range testQueries {
		q := xpath.MustParse(qs)
		eq, err := fx.simple.Run(q, Equality)
		if err != nil {
			t.Fatal(err)
		}
		co, err := fx.simple.Run(q, Containment)
		if err != nil {
			t.Fatal(err)
		}
		inC := map[int64]bool{}
		for _, p := range co.Pres {
			inC[p] = true
		}
		for _, p := range eq.Pres {
			if !inC[p] {
				t.Errorf("%s: equality hit %d not in containment result", qs, p)
			}
		}
	}
}

// TestWorstCaseChainCosts reproduces the shape of Fig. 5: on straight
// child-only chains the advanced engine evaluates at least as much as the
// simple engine (look-ahead buys nothing), within a constant factor.
func TestWorstCaseChainCosts(t *testing.T) {
	doc := xmark.Generate(xmark.Config{Scale: 0.02, Seed: 4})
	fx := build(t, doc, nil)
	q := xpath.MustParse("/site/regions/europe/item/description")
	s, err := fx.simple.Run(q, Containment)
	if err != nil {
		t.Fatal(err)
	}
	a, err := fx.advanced.Run(q, Containment)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.Evaluations < s.Stats.Evaluations {
		t.Errorf("advanced evaluated less (%d) than simple (%d) on a chain query",
			a.Stats.Evaluations, s.Stats.Evaluations)
	}
	if a.Stats.Evaluations > 6*s.Stats.Evaluations {
		t.Errorf("advanced/simple evaluation ratio %d/%d exceeds a small constant",
			a.Stats.Evaluations, s.Stats.Evaluations)
	}
}

// TestAdvancedPrunes reproduces the shape of Fig. 6: on // queries the
// advanced engine visits fewer nodes than the simple engine.
func TestAdvancedPrunes(t *testing.T) {
	doc := xmark.Generate(xmark.Config{Scale: 0.02, Seed: 4})
	fx := build(t, doc, nil)
	for _, qs := range []string{"/site/*/person//city", "/site//europe/item"} {
		q := xpath.MustParse(qs)
		s, err := fx.simple.Run(q, Containment)
		if err != nil {
			t.Fatal(err)
		}
		a, err := fx.advanced.Run(q, Containment)
		if err != nil {
			t.Fatal(err)
		}
		if a.Stats.NodesVisited >= s.Stats.NodesVisited {
			t.Errorf("%s: advanced visited %d nodes, simple %d — no pruning benefit",
				qs, a.Stats.NodesVisited, s.Stats.NodesVisited)
		}
	}
}

// TestTrieContentSearch: end-to-end §4 — search inside text content.
func TestTrieContentSearch(t *testing.T) {
	doc, err := xmldoc.ParseString(
		`<people><person><name>Joan Johnson</name></person><person><name>Bob Miller</name></person><person><name>Joanna Keller</name></person></people>`)
	if err != nil {
		t.Fatal(err)
	}
	words := trie.Words("Joan Johnson Bob Miller Joanna Keller")
	alphabet := trie.Alphabet(words)
	trie.TransformDoc(doc, trie.Compressed)
	fx := build(t, doc, alphabet)

	cases := []struct {
		q    string
		want int
	}{
		{`/people/person[contains(text(),"Joan")]`, 2}, // Joan + Joanna (prefix)
		{`/people/person[text()="joan"]`, 1},           // exact word
		{`/people/person[contains(text(),"miller")]`, 1},
		{`/people/person[contains(text(),"xavier")]`, 0},
		{`/people/person[contains(text(),"Joan Johnson")]`, 1}, // both words
	}
	for _, c := range cases {
		q := xpath.MustParse(c.q)
		for _, eng := range []Engine{fx.simple, fx.advanced} {
			got, err := eng.Run(q, Equality)
			if err != nil {
				t.Fatalf("%s %s: %v", eng.Name(), c.q, err)
			}
			if len(got.Pres) != c.want {
				t.Errorf("%s on %s: %d matches, want %d", eng.Name(), c.q, len(got.Pres), c.want)
			}
			// Oracle agreement.
			want := xpath.Pres(fx.oracle.Eval(q, xpath.MatchEqual))
			if !equalPres(got.Pres, want) {
				t.Errorf("%s on %s: %v != oracle %v", eng.Name(), c.q, got.Pres, want)
			}
		}
	}
}

func TestUnknownQueryName(t *testing.T) {
	// Names outside the map universe cannot occur in the document:
	// the result is empty, matching XPath semantics for missing tags.
	fx := buildXML(t, `<a><b/></a>`)
	for _, eng := range []Engine{fx.simple, fx.advanced} {
		res, err := eng.Run(xpath.MustParse("/a/zzz"), Containment)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if len(res.Pres) != 0 {
			t.Fatalf("%s: unknown name matched %v", eng.Name(), res.Pres)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	fx := buildXML(t, smallXML)
	res, err := fx.simple.Run(xpath.MustParse("/site//item"), Containment)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Evaluations == 0 || st.NodesVisited == 0 || st.NodesFetched == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
	if st.Elapsed <= 0 {
		t.Fatal("Elapsed not measured")
	}
	// The strict test reconstructs the root's family per call, and
	// evaluates the same rows at the map's free points batched.
	ref, err := NewSimplePerCall(fx.cli, fx.m).Run(xpath.MustParse("/site"), Equality)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stats.Reconstructions == 0 {
		t.Fatal("per-call equality run did not count reconstructions")
	}
	res, err = fx.simple.Run(xpath.MustParse("/site"), Equality)
	if err != nil {
		t.Fatal(err)
	}
	if !sameWork(res.Stats, ref.Stats, len(fx.m.FreePoints())) {
		t.Fatalf("batched equality run counted %+v, per-call %+v", res.Stats, ref.Stats)
	}
}

func TestResultsSortedAndDeduped(t *testing.T) {
	fx := buildXML(t, smallXML)
	// //item//name style queries can reach the same node via multiple
	// intermediate matches.
	res, err := fx.advanced.Run(xpath.MustParse("//regions//name"), Containment)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Pres); i++ {
		if res.Pres[i-1] >= res.Pres[i] {
			t.Fatalf("result not sorted/deduped: %v", res.Pres)
		}
	}
}

func BenchmarkSimpleContainment(b *testing.B) {
	doc := xmark.Generate(xmark.Config{Scale: 0.05, Seed: 1})
	fx := build(b, doc, nil)
	q := xpath.MustParse("/site/*/person//city")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fx.simple.Run(q, Containment); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdvancedContainment(b *testing.B) {
	doc := xmark.Generate(xmark.Config{Scale: 0.05, Seed: 1})
	fx := build(b, doc, nil)
	q := xpath.MustParse("/site/*/person//city")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fx.advanced.Run(q, Containment); err != nil {
			b.Fatal(err)
		}
	}
}
