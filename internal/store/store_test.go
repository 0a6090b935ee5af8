package store

import (
	"bytes"
	"testing"

	"encshare/internal/xmldoc"
)

// fill inserts rows matching a parsed document with dummy polynomials.
func fill(t testing.TB, s *Store, d *xmldoc.Doc) {
	t.Helper()
	d.Walk(func(n *xmldoc.Node) bool {
		parent := int64(0)
		if n.Parent != nil {
			parent = n.Parent.Pre
		}
		err := s.InsertNode(NodeRow{Pre: n.Pre, Post: n.Post, Parent: parent, Poly: []byte{byte(n.Pre)}})
		if err != nil {
			t.Fatal(err)
		}
		return true
	})
}

// openBare opens a handle on a fresh DSN without creating the table —
// the state Load starts from. The DSN is dropped when the test ends.
func openBare(t testing.TB, opts Options) *Store {
	t.Helper()
	dsn := FreshDSN()
	s, err := OpenWith(dsn, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		Drop(dsn)
	})
	return s
}

// newStore is openBare plus Init: an empty, writable table.
func newStore(t testing.TB) *Store {
	t.Helper()
	s := openBare(t, Options{})
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	return s
}

// The row-level tests below run as the subtest "v2", after the paged
// engine's dump format (encshare-pagesv2, version 2); the round trip's
// subtest is "v2_to_v2".

const testDoc = `<site><regions><europe><item><name/></item><item/></europe><asia/></regions><people><person><name/></person></people></site>`

func TestRootAndNode(t *testing.T) {
	t.Run("v2", func(t *testing.T) {
		s := newStore(t)
		d, err := xmldoc.ParseString(testDoc)
		if err != nil {
			t.Fatal(err)
		}
		fill(t, s, d)

		root, err := s.Root()
		if err != nil {
			t.Fatal(err)
		}
		if root.Pre != 1 || root.Parent != 0 {
			t.Fatalf("root = %+v", root)
		}
		n, err := s.Node(3)
		if err != nil {
			t.Fatal(err)
		}
		if n.Pre != 3 || !bytes.Equal(n.Poly, []byte{3}) {
			t.Fatalf("node 3 = %+v", n)
		}
		if _, err := s.Node(999); err == nil {
			t.Fatal("missing node found")
		}
	})
}

func TestRootMissing(t *testing.T) {
	t.Run("v2", func(t *testing.T) {
		s := newStore(t)
		if _, err := s.Root(); err == nil {
			t.Fatal("root on empty store succeeded")
		}
	})
}

func TestChildrenMatchTree(t *testing.T) {
	t.Run("v2", func(t *testing.T) {
		s := newStore(t)
		d, _ := xmldoc.ParseString(testDoc)
		fill(t, s, d)
		d.Walk(func(n *xmldoc.Node) bool {
			rows, err := s.Children(n.Pre)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != len(n.Children) {
				t.Fatalf("children(%s) = %d rows, want %d", n.Path(), len(rows), len(n.Children))
			}
			for i, c := range n.Children {
				if rows[i].Pre != c.Pre {
					t.Fatalf("children(%s)[%d].Pre = %d, want %d (document order)",
						n.Path(), i, rows[i].Pre, c.Pre)
				}
			}
			return true
		})
		// ChildCount agrees.
		cnt, err := s.ChildCount(1)
		if err != nil {
			t.Fatal(err)
		}
		if cnt != int64(len(d.Root.Children)) {
			t.Fatalf("ChildCount(root) = %d", cnt)
		}
	})
}

func TestDescendantsMatchTree(t *testing.T) {
	t.Run("v2", func(t *testing.T) {
		s := newStore(t)
		d, _ := xmldoc.ParseString(testDoc)
		fill(t, s, d)
		d.Walk(func(n *xmldoc.Node) bool {
			want := map[int64]bool{}
			var collect func(*xmldoc.Node)
			collect = func(m *xmldoc.Node) {
				for _, c := range m.Children {
					want[c.Pre] = true
					collect(c)
				}
			}
			collect(n)

			for _, variant := range []struct {
				name string
				fn   func(pre, post int64) ([]NodeRow, error)
			}{
				{"optimized", s.Descendants},
				{"naive", s.DescendantsNaive},
			} {
				rows, err := variant.fn(n.Pre, n.Post)
				if err != nil {
					t.Fatal(err)
				}
				if len(rows) != len(want) {
					t.Fatalf("%s descendants(%s) = %d rows, want %d",
						variant.name, n.Path(), len(rows), len(want))
				}
				prev := int64(-1)
				for _, r := range rows {
					if !want[r.Pre] {
						t.Fatalf("%s descendants(%s) includes pre %d", variant.name, n.Path(), r.Pre)
					}
					if r.Pre <= prev {
						t.Fatalf("%s descendants not in document order", variant.name)
					}
					prev = r.Pre
				}
			}

			// The streaming visitor agrees with the materialized scan.
			var visited []int64
			if err := s.VisitDescendantsMeta(n.Pre, n.Post, func(pre, _, _ int64) {
				visited = append(visited, pre)
			}); err != nil {
				t.Fatal(err)
			}
			if len(visited) != len(want) {
				t.Fatalf("visit descendants(%s) = %d rows, want %d", n.Path(), len(visited), len(want))
			}
			for _, pre := range visited {
				if !want[pre] {
					t.Fatalf("visit descendants(%s) includes pre %d", n.Path(), pre)
				}
			}
			return true
		})
	})
}

func TestCount(t *testing.T) {
	t.Run("v2", func(t *testing.T) {
		s := newStore(t)
		d, _ := xmldoc.ParseString(testDoc)
		fill(t, s, d)
		n, err := s.Count()
		if err != nil {
			t.Fatal(err)
		}
		if n != d.Count {
			t.Fatalf("Count = %d, want %d", n, d.Count)
		}
	})
}

func TestDuplicatePreRejected(t *testing.T) {
	t.Run("v2", func(t *testing.T) {
		s := newStore(t)
		if err := s.InsertNode(NodeRow{Pre: 1, Post: 1, Parent: 0, Poly: []byte{1}}); err != nil {
			t.Fatal(err)
		}
		if err := s.InsertNode(NodeRow{Pre: 1, Post: 2, Parent: 0, Poly: []byte{2}}); err == nil {
			t.Fatal("duplicate pre accepted")
		}
	})
}

func TestDumpLoadRoundTrip(t *testing.T) {
	t.Run("v2_to_v2", func(t *testing.T) {
		s := newStore(t)
		d, _ := xmldoc.ParseString(testDoc)
		fill(t, s, d)
		var buf bytes.Buffer
		if err := s.Dump(&buf); err != nil {
			t.Fatal(err)
		}
		s2 := openBare(t, Options{})
		if err := s2.Load(&buf); err != nil {
			t.Fatal(err)
		}
		if err := s2.Attach(); err != nil {
			t.Fatal(err)
		}
		n, err := s2.Count()
		if err != nil {
			t.Fatal(err)
		}
		if n != d.Count {
			t.Fatalf("Count after load = %d, want %d", n, d.Count)
		}
		kids, err := s2.Children(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(kids) != len(d.Root.Children) {
			t.Fatalf("children after load = %d", len(kids))
		}
		// Row-level identity with the source.
		for pre := int64(1); pre <= d.Count; pre++ {
			a, err := s.Node(pre)
			if err != nil {
				t.Fatal(err)
			}
			b, err := s2.Node(pre)
			if err != nil {
				t.Fatal(err)
			}
			if a.Pre != b.Pre || a.Post != b.Post || a.Parent != b.Parent || !bytes.Equal(a.Poly, b.Poly) {
				t.Fatalf("node %d: %+v != %+v", pre, a, b)
			}
		}
	})
}

func TestInitTwiceFails(t *testing.T) {
	t.Run("v2", func(t *testing.T) {
		s := newStore(t)
		if err := s.Init(); err == nil {
			t.Fatal("double Init succeeded")
		}
	})
}
