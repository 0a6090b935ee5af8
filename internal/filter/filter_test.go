package filter

import (
	"strings"
	"testing"

	"encshare/internal/encoder"
	"encshare/internal/gf"
	"encshare/internal/mapping"
	"encshare/internal/prg"
	"encshare/internal/ring"
	"encshare/internal/rmi"
	"encshare/internal/secshare"
	"encshare/internal/store"
	"encshare/internal/xmldoc"
)

// fixture wires a full pipeline: parse + encode into a store, and build
// both a local and a remote client filter over it.
type fixture struct {
	doc    *xmldoc.Doc
	m      *mapping.Map
	r      *ring.Ring
	scheme *secshare.Scheme
	server *ServerFilter
	local  *Client
	remote *Client
	rmiCli *rmi.Client
}

func newFixture(t testing.TB, xml string) *fixture {
	t.Helper()
	doc, err := xmldoc.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	f := gf.MustNew(83, 1)
	m, err := mapping.Generate(f, doc.Names())
	if err != nil {
		t.Fatal(err)
	}
	r := ring.MustNew(f)
	scheme := secshare.New(r, prg.New([]byte("filter-test")))

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

	server := NewServerFilter(st, r, 256)
	srv := rmi.NewServer()
	RegisterServer(srv, server)
	rmiCli := rmi.Pipe(srv)
	t.Cleanup(func() { rmiCli.Close() })

	return &fixture{
		doc: doc, m: m, r: r, scheme: scheme, server: server,
		local:  NewClient(server, scheme),
		remote: NewClient(NewRemote(rmiCli), scheme),
		rmiCli: rmiCli,
	}
}

const testXML = `<site><regions><europe><item><name/></item><item/></europe><asia/></regions><people><person><name/><city/></person></people></site>`

func (fx *fixture) val(t testing.TB, name string) gf.Elem {
	t.Helper()
	v, err := fx.m.Value(name)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestContainsMatchesTree(t *testing.T) {
	fx := newFixture(t, testXML)
	for _, cli := range []*Client{fx.local, fx.remote} {
		fx.doc.Walk(func(n *xmldoc.Node) bool {
			inSubtree := map[string]bool{}
			var rec func(m *xmldoc.Node)
			rec = func(m *xmldoc.Node) {
				inSubtree[m.Name] = true
				for _, c := range m.Children {
					rec(c)
				}
			}
			rec(n)
			for _, name := range fx.m.Names() {
				got, err := cli.Contains(n.Pre, fx.val(t, name))
				if err != nil {
					t.Fatal(err)
				}
				if got != inSubtree[name] {
					t.Fatalf("Contains(%s, %s) = %v, want %v", n.Path(), name, got, inSubtree[name])
				}
			}
			return true
		})
	}
}

func TestEqualsMatchesTree(t *testing.T) {
	fx := newFixture(t, testXML)
	for _, cli := range []*Client{fx.local, fx.remote} {
		fx.doc.Walk(func(n *xmldoc.Node) bool {
			for _, name := range fx.m.Names() {
				got, err := cli.Equals(n.Pre, fx.val(t, name))
				if err != nil {
					t.Fatal(err)
				}
				if got != (n.Name == name) {
					t.Fatalf("Equals(%s, %s) = %v, want %v", n.Path(), name, got, n.Name == name)
				}
			}
			return true
		})
	}
}

// TestEqualsStricterThanContains: Equals(n, v) implies Contains(n, v).
func TestEqualsImpliesContains(t *testing.T) {
	fx := newFixture(t, testXML)
	fx.doc.Walk(func(n *xmldoc.Node) bool {
		for _, name := range fx.m.Names() {
			eq, err := fx.local.Equals(n.Pre, fx.val(t, name))
			if err != nil {
				t.Fatal(err)
			}
			co, err := fx.local.Contains(n.Pre, fx.val(t, name))
			if err != nil {
				t.Fatal(err)
			}
			if eq && !co {
				t.Fatalf("Equals true but Contains false at %s/%s", n.Path(), name)
			}
		}
		return true
	})
}

func TestNavigationMatchesTree(t *testing.T) {
	fx := newFixture(t, testXML)
	for _, cli := range []*Client{fx.local, fx.remote} {
		root, err := cli.Root()
		if err != nil {
			t.Fatal(err)
		}
		if root.Pre != 1 || root.Parent != 0 {
			t.Fatalf("root = %+v", root)
		}
		kids, err := cli.Children(root.Pre)
		if err != nil {
			t.Fatal(err)
		}
		if len(kids) != len(fx.doc.Root.Children) {
			t.Fatalf("children = %d", len(kids))
		}
		desc, err := cli.Descendants(root.Pre, root.Post)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(desc)) != fx.doc.Count-1 {
			t.Fatalf("descendants = %d, want %d", len(desc), fx.doc.Count-1)
		}
		n, err := cli.Count()
		if err != nil {
			t.Fatal(err)
		}
		if n != fx.doc.Count {
			t.Fatalf("count = %d", n)
		}
	}
}

func TestCountersTrackWork(t *testing.T) {
	fx := newFixture(t, testXML)
	cli := fx.local
	before := cli.Counters.Snapshot()
	if _, err := cli.Contains(1, fx.val(t, "site")); err != nil {
		t.Fatal(err)
	}
	d := cli.Counters.Snapshot().Sub(before)
	if d.Evaluations != 1 {
		t.Fatalf("Contains counted %d evaluations, want 1", d.Evaluations)
	}
	before = cli.Counters.Snapshot()
	if _, err := cli.Equals(1, fx.val(t, "site")); err != nil {
		t.Fatal(err)
	}
	d = cli.Counters.Snapshot().Sub(before)
	want := int64(1 + len(fx.doc.Root.Children))
	if d.Reconstructions != want {
		t.Fatalf("Equals counted %d reconstructions, want %d", d.Reconstructions, want)
	}
	// Server-side evals tracked separately.
	if fx.server.Evals() == 0 {
		t.Fatal("server evals not counted")
	}
}

func TestWrongSeedBreaksTests(t *testing.T) {
	fx := newFixture(t, testXML)
	wrong := NewClient(fx.server, secshare.New(fx.r, prg.New([]byte("wrong-seed"))))
	// With the wrong seed, Contains(root, map(site)) is overwhelmingly
	// likely false (1/83 chance of an accidental zero).
	got, err := wrong.Contains(1, fx.val(t, "site"))
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Skip("1/83 accidental zero — rerun") // deterministic seed: will not flake
	}
}

func TestRemoteAgainstLocalParity(t *testing.T) {
	fx := newFixture(t, testXML)
	// Every API result must agree between the in-process and RMI paths.
	lr, err1 := fx.local.Root()
	rr, err2 := fx.remote.Root()
	if err1 != nil || err2 != nil || lr != rr {
		t.Fatalf("Root: %+v/%v vs %+v/%v", lr, err1, rr, err2)
	}
	for pre := int64(1); pre <= fx.doc.Count; pre++ {
		lk, err1 := fx.local.Children(pre)
		rk, err2 := fx.remote.Children(pre)
		if err1 != nil || err2 != nil || len(lk) != len(rk) {
			t.Fatalf("Children(%d) disagree", pre)
		}
		for _, name := range []string{"site", "person", "city"} {
			v := fx.val(t, name)
			lc, err1 := fx.local.Contains(pre, v)
			rc, err2 := fx.remote.Contains(pre, v)
			if err1 != nil || err2 != nil || lc != rc {
				t.Fatalf("Contains(%d, %s) disagree: %v/%v", pre, name, lc, rc)
			}
		}
	}
	if fx.rmiCli.Stats().Calls == 0 {
		t.Fatal("remote path did not use RMI")
	}
}

func TestErrorsPropagateOverRMI(t *testing.T) {
	fx := newFixture(t, testXML)
	if _, err := fx.remote.Children(99999); err != nil {
		t.Fatalf("children of missing node should be empty, got %v", err)
	}
	_, err := fx.remote.Contains(99999, 5)
	if err == nil {
		t.Fatal("EvalAt on missing node succeeded")
	}
	if !strings.Contains(err.Error(), "not found") {
		t.Fatalf("error lost its cause: %v", err)
	}
}

func TestPolyCache(t *testing.T) {
	c := newPolyCache(2)
	if old := c.put(1, ring.Poly{1}); old != nil {
		t.Fatalf("put into a free slot displaced %v", old)
	}
	c.put(2, ring.Poly{2})
	old := c.put(3, ring.Poly{3}) // evicts something
	if c.len() != 2 {
		t.Fatalf("cache len = %d, want 2", c.len())
	}
	if len(old) != 1 || (old[0] != 1 && old[0] != 2) {
		t.Fatalf("eviction displaced %v, want the polynomial of 1 or 2", old)
	}
	if !hit(c, 3) {
		t.Fatal("most recent insert evicted")
	}
	if old := c.put(3, ring.Poly{4}); len(old) != 1 || old[0] != 3 {
		t.Fatalf("overwriting a resident pre displaced %v, want [3]", old)
	}
	// Disabled cache: put hands the polynomial straight back.
	d := newPolyCache(0)
	if old := d.put(1, ring.Poly{1}); len(old) != 1 || old[0] != 1 {
		t.Fatalf("disabled cache kept the polynomial (put returned %v)", old)
	}
	if hit(d, 1) {
		t.Fatal("disabled cache stored an entry")
	}
}

func BenchmarkContainsLocal(b *testing.B) {
	fx := newFixture(b, testXML)
	v, _ := fx.m.Value("city")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fx.local.Contains(1, v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContainsRemote(b *testing.B) {
	fx := newFixture(b, testXML)
	v, _ := fx.m.Value("city")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fx.remote.Contains(1, v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEqualsLocal(b *testing.B) {
	fx := newFixture(b, testXML)
	v, _ := fx.m.Value("site")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fx.local.Equals(1, v); err != nil {
			b.Fatal(err)
		}
	}
}
