package minisql

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"encshare/internal/store"
)

// These tests pin the contract bench/ relies on: a DSN from FreshDSN
// names one paged table shared by every store handle opened on it, and
// Drop forgets that table.

func open(t testing.TB, dsn string) *store.Store {
	t.Helper()
	s, err := store.OpenWith(dsn, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fresh is a store on a new DSN with the table created; the DSN is
// dropped when the test ends.
func fresh(t testing.TB) (*store.Store, string) {
	t.Helper()
	dsn := FreshDSN()
	t.Cleanup(func() { Drop(dsn) })
	s := open(t, dsn)
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	return s, dsn
}

func row(pre int64) store.NodeRow {
	return store.NodeRow{Pre: pre, Post: 100 - pre, Parent: pre / 2, Poly: []byte{byte(pre)}}
}

func TestRegistry(t *testing.T) {
	if FreshDSN() == FreshDSN() {
		t.Fatal("FreshDSN repeated")
	}
	a, dsn := fresh(t)
	b := open(t, dsn)
	if err := b.Init(); err == nil {
		t.Fatal("second handle on one DSN created a second table")
	}
	if err := b.Attach(); err != nil {
		t.Fatalf("second handle does not see the table: %v", err)
	}
	Drop(dsn)
	c := open(t, dsn)
	if err := c.Attach(); err == nil {
		t.Fatal("Drop did not clear the registry entry")
	}
	if err := a.Attach(); err != nil {
		t.Fatalf("a handle opened before Drop lost its table: %v", err)
	}
}

func TestDriverSharedDSN(t *testing.T) {
	a, dsn := fresh(t)
	b := open(t, dsn)
	if err := a.InsertNode(row(42)); err != nil {
		t.Fatal(err)
	}
	got, err := b.Node(42)
	if err != nil {
		t.Fatal(err)
	}
	if got.Post != 58 || !bytes.Equal(got.Poly, []byte{42}) {
		t.Fatalf("row through the second handle = %+v", got)
	}
}

func TestDropTable(t *testing.T) {
	a, dsn := fresh(t)
	for pre := int64(1); pre <= 10; pre++ {
		if err := a.InsertNode(row(pre)); err != nil {
			t.Fatal(err)
		}
	}
	Drop(dsn)
	Drop(dsn) // dropping an unknown DSN is a no-op
	b := open(t, dsn)
	if err := b.Init(); err != nil {
		t.Fatalf("Init after Drop: %v", err)
	}
	if n, err := b.Count(); err != nil || n != 0 {
		t.Fatalf("Count after Drop = %d, %v; want 0", n, err)
	}
}

func TestDumpLoadRoundTrip(t *testing.T) {
	src, _ := fresh(t)
	for pre := int64(1); pre <= 50; pre++ {
		if err := src.InsertNode(row(pre)); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.DeleteNode(25); err != nil { // a deleted row must not dump
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	dsn := FreshDSN()
	defer Drop(dsn)
	dst := open(t, dsn)
	if err := dst.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if err := open(t, dsn).Attach(); err != nil {
		t.Fatalf("loaded table not visible on its DSN: %v", err)
	}
	if n, err := dst.Count(); err != nil || n != 49 {
		t.Fatalf("Count after load = %d, %v; want 49", n, err)
	}
	kids, err := dst.Children(10)
	if err != nil || len(kids) != 2 || kids[0].Pre != 20 || kids[1].Pre != 21 {
		t.Fatalf("Children(10) after load = %v, %v", kids, err)
	}
	if got, err := dst.Node(7); err != nil || !bytes.Equal(got.Poly, []byte{7}) {
		t.Fatalf("Node(7) after load = %+v, %v", got, err)
	}
	if _, err := dst.Node(25); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("Node(25) after load: err = %v, want ErrNotFound", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dsn := FreshDSN()
	defer Drop(dsn)
	err := open(t, dsn).Load(strings.NewReader("not a dump"))
	if err == nil || !strings.Contains(err.Error(), "re-encode") {
		t.Fatalf("garbage: err = %v, want a re-encode refusal", err)
	}
}

func TestDriverConcurrentReaders(t *testing.T) {
	s, dsn := fresh(t)
	for pre := int64(1); pre <= 1000; pre++ {
		if err := s.InsertNode(row(pre)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 16; g++ {
		h := open(t, dsn)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rows, err := h.Range(int64(g*10+1), 1000)
				if err != nil || len(rows) != 1000-g*10 {
					errs <- "Range: wrong answer under concurrent reads"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestModelRandomizedWorkload writes through one handle and reads
// through another, checking each answer against a map of the rows.
func TestModelRandomizedWorkload(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w, dsn := fresh(t)
			r := open(t, dsn)
			rng := rand.New(rand.NewSource(seed))
			want := map[int64]store.NodeRow{}
			for op := 0; op < 400; op++ {
				pre := 1 + rng.Int63n(60)
				_, have := want[pre]
				switch rng.Intn(3) {
				case 0:
					err := w.InsertNode(row(pre))
					if have != (err != nil) {
						t.Fatalf("op %d: insert %d: err = %v, row present = %v", op, pre, err, have)
					}
					if !have {
						want[pre] = row(pre)
					}
				case 1:
					upd := row(pre)
					upd.Poly = []byte{byte(op)}
					err := w.UpdateNode(pre, upd)
					if have != (err == nil) {
						t.Fatalf("op %d: update %d: err = %v, row present = %v", op, pre, err, have)
					}
					if have {
						want[pre] = upd
					}
				case 2:
					err := w.DeleteNode(pre)
					if have != (err == nil) {
						t.Fatalf("op %d: delete %d: err = %v, row present = %v", op, pre, err, have)
					}
					delete(want, pre)
				}
				got, err := r.Node(pre)
				exp, ok := want[pre]
				if ok != (err == nil) || (ok && !bytes.Equal(got.Poly, exp.Poly)) {
					t.Fatalf("op %d: Node(%d) = %+v, %v; want %+v (present %v)", op, pre, got, err, exp, ok)
				}
				if n, err := r.Count(); err != nil || n != int64(len(want)) {
					t.Fatalf("op %d: Count = %d, %v; want %d", op, n, err, len(want))
				}
			}
		})
	}
}

// FuzzLoadDump guards Load against malformed input: it must not panic,
// and a stream it accepts must dump and load again to the same count.
func FuzzLoadDump(f *testing.F) {
	f.Add([]byte("not a dump"))
	f.Add([]byte{})
	f.Add([]byte{0x0d, 0x7f, 0x04, 0x01, 0x02, 0xff, 0x81})
	f.Fuzz(func(t *testing.T, data []byte) {
		dsn := FreshDSN()
		defer Drop(dsn)
		s := open(t, dsn)
		if err := s.Load(bytes.NewReader(data)); err != nil {
			return
		}
		n, err := s.Count()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.Dump(&buf); err != nil {
			t.Fatal(err)
		}
		again := FreshDSN()
		defer Drop(again)
		s2 := open(t, again)
		if err := s2.Load(&buf); err != nil {
			t.Fatalf("re-load of an accepted stream: %v", err)
		}
		if m, err := s2.Count(); err != nil || m != n {
			t.Fatalf("Count after re-load = %d, %v; want %d", m, err, n)
		}
	})
}
