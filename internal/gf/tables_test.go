package gf

import (
	"math/rand"
	"testing"
)

// exhaustiveFields lists every field the table≡generic property test
// covers with a FULL operand grid. All have q ≤ 2^12; the grid is q²
// Mul pairs plus q-sized Inv/Pow sweeps, so the generic oracle must stay
// affordable (e ≤ 4 keeps the schoolbook multiply cheap).
func exhaustiveFields(t testing.TB) []*Field {
	params := []struct{ p, e uint32 }{
		{2, 1}, {3, 1}, {5, 1}, {29, 1}, {83, 1}, {251, 1}, {4093, 1},
		{2, 4}, {3, 2}, {5, 3}, {7, 2}, {11, 2}, {3, 5}, {7, 4},
	}
	out := make([]*Field, 0, len(params))
	for _, pr := range params {
		f, err := New(pr.p, pr.e)
		if err != nil {
			t.Fatalf("New(%d,%d): %v", pr.p, pr.e, err)
		}
		if f.Q() > 1<<12 {
			t.Fatalf("exhaustive field %v exceeds the q <= 2^12 bound", f)
		}
		out = append(out, f)
	}
	return out
}

// TestTableMatchesGenericExhaustive proves the table-driven arithmetic
// agrees with the retained generic implementations on the FULL Mul grid
// and full Inv/Div/Pow sweeps of every field with q ≤ 2^12. This is the
// soundness proof of the hot-path rewrite: the generic path is the
// pre-table implementation, verified independently by the field-axiom
// tests.
func TestTableMatchesGenericExhaustive(t *testing.T) {
	for _, f := range exhaustiveFields(t) {
		q := f.Q()
		for a := Elem(0); a < q; a++ {
			for b := Elem(0); b < q; b++ {
				if got, want := f.Mul(a, b), f.MulGeneric(a, b); got != want {
					t.Fatalf("%v: Mul(%d,%d) = %d, generic %d", f, a, b, got, want)
				}
			}
			if a != 0 {
				if got, want := f.Inv(a), f.InvGeneric(a); got != want {
					t.Fatalf("%v: Inv(%d) = %d, generic %d", f, a, got, want)
				}
				if got, want := f.Div(7%q, a), f.DivGeneric(7%q, a); got != want {
					t.Fatalf("%v: Div(%d,%d) = %d, generic %d", f, 7%q, a, got, want)
				}
			}
			for _, k := range []uint64{0, 1, 2, 3, uint64(q) - 1, uint64(q), 1 << 40} {
				if got, want := f.Pow(a, k), f.PowGeneric(a, k); got != want {
					t.Fatalf("%v: Pow(%d,%d) = %d, generic %d", f, a, k, got, want)
				}
			}
		}
	}
}

// TestTableMatchesGenericLargeFields spot-checks the agreement with
// randomized operands on fields near the MaxQ bound, where the
// exhaustive grid is unaffordable but the tables are at their largest.
func TestTableMatchesGenericLargeFields(t *testing.T) {
	params := []struct{ p, e uint32 }{
		{1048573, 1}, // largest prime below 2^20
		{2, 20},      // q = MaxQ exactly
		{1021, 2},    // q = 1042441
		{101, 3},     // q = 1030301
	}
	rng := rand.New(rand.NewSource(7))
	for _, pr := range params {
		f, err := New(pr.p, pr.e)
		if err != nil {
			t.Fatalf("New(%d,%d): %v", pr.p, pr.e, err)
		}
		q := f.Q()
		checks := 2000
		if testing.Short() {
			checks = 200
		}
		for i := 0; i < checks; i++ {
			a, b := Elem(rng.Uint32())%q, Elem(rng.Uint32())%q
			k := rng.Uint64()
			if got, want := f.Mul(a, b), f.MulGeneric(a, b); got != want {
				t.Fatalf("%v: Mul(%d,%d) = %d, generic %d", f, a, b, got, want)
			}
			if got, want := f.Pow(a, k), f.PowGeneric(a, k); got != want {
				t.Fatalf("%v: Pow(%d,%d) = %d, generic %d", f, a, k, got, want)
			}
			if b != 0 {
				if got, want := f.Inv(b), f.InvGeneric(b); got != want {
					t.Fatalf("%v: Inv(%d) = %d, generic %d", f, b, got, want)
				}
				if got, want := f.Div(a, b), f.DivGeneric(a, b); got != want {
					t.Fatalf("%v: Div(%d,%d) = %d, generic %d", f, a, b, got, want)
				}
			}
		}
		// Boundary operands the random sweep can miss.
		for _, a := range []Elem{0, 1, 2 % q, q - 1, f.Generator()} {
			for _, b := range []Elem{0, 1, 2 % q, q - 1, f.Generator()} {
				if got, want := f.Mul(a, b), f.MulGeneric(a, b); got != want {
					t.Fatalf("%v: Mul(%d,%d) = %d, generic %d", f, a, b, got, want)
				}
			}
		}
	}
}

// TestTablesStructure validates the table invariants directly: Exp
// enumerates F_q^* with period N, the doubled upper half mirrors the
// lower, and Log inverts Exp.
func TestTablesStructure(t *testing.T) {
	for _, f := range exhaustiveFields(t) {
		tab := f.Tables()
		if tab.N != f.Q()-1 {
			t.Fatalf("%v: N = %d, want %d", f, tab.N, f.Q()-1)
		}
		if len(tab.Log) != int(f.Q()) || len(tab.Exp) != 2*int(tab.N) {
			t.Fatalf("%v: table sizes %d/%d", f, len(tab.Log), len(tab.Exp))
		}
		seen := make(map[Elem]bool, tab.N)
		for i := uint32(0); i < tab.N; i++ {
			x := tab.Exp[i]
			if x == 0 || seen[x] {
				t.Fatalf("%v: Exp[%d] = %d repeats or is zero", f, i, x)
			}
			seen[x] = true
			if tab.Exp[tab.N+i] != x {
				t.Fatalf("%v: doubled Exp mismatch at %d", f, i)
			}
			if tab.Log[x] != i {
				t.Fatalf("%v: Log[Exp[%d]] = %d", f, i, tab.Log[x])
			}
		}
	}
}

// TestTablesMethodsMatchField checks the Tables convenience methods
// agree with the Field methods (same tables, two entry points).
func TestTablesMethodsMatchField(t *testing.T) {
	f := MustNew(83, 1)
	tab := f.Tables()
	for a := Elem(0); a < f.Q(); a++ {
		for b := Elem(0); b < f.Q(); b++ {
			if tab.Mul(a, b) != f.Mul(a, b) {
				t.Fatalf("Tables.Mul(%d,%d) disagrees with Field.Mul", a, b)
			}
			if b != 0 && tab.Div(a, b) != f.Div(a, b) {
				t.Fatalf("Tables.Div(%d,%d) disagrees with Field.Div", a, b)
			}
		}
		if a != 0 && tab.Inv(a) != f.Inv(a) {
			t.Fatalf("Tables.Inv(%d) disagrees with Field.Inv", a)
		}
		if tab.Pow(a, 12345) != f.Pow(a, 12345) {
			t.Fatalf("Tables.Pow(%d) disagrees with Field.Pow", a)
		}
	}
}

// TestTablesConcurrentBuild hammers the lazy build from many goroutines;
// run under -race this proves the sync.Once publication is sound.
func TestTablesConcurrentBuild(t *testing.T) {
	f := MustNew(83, 1)
	done := make(chan *Tables, 16)
	for i := 0; i < 16; i++ {
		go func() { done <- f.Tables() }()
	}
	first := <-done
	for i := 1; i < 16; i++ {
		if got := <-done; got != first {
			t.Fatal("concurrent Tables() returned different table sets")
		}
	}
}

// InvGeneric is the table-free Fermat inverse a^(q-2), retained as the
// property-test oracle for the table path.
func (f *Field) InvGeneric(a Elem) Elem {
	if a == 0 {
		panic("gf: inverse of zero")
	}
	return f.PowGeneric(a, uint64(f.q)-2)
}

// DivGeneric is the table-free division, retained as the property-test
// oracle for the table path.
func (f *Field) DivGeneric(a, b Elem) Elem {
	return f.MulGeneric(a, f.InvGeneric(b))
}
