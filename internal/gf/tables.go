package gf

import (
	"sync"
	"sync/atomic"
)

// Tables are the discrete logarithm/exponential tables of a field over
// its stored generator g: Exp[i] = g^i and Log[Exp[i]] = i. They turn
// multiplicative arithmetic into O(1) array lookups for every field,
// prime and extension alike:
//
//	a·b   = Exp[Log[a] + Log[b]]           (a, b ≠ 0)
//	a⁻¹   = Exp[N − Log[a]]
//	a/b   = Exp[Log[a] + N − Log[b]]
//	a^k   = Exp[(Log[a] · (k mod N)) mod N]
//
// where N = q−1 is the order of F_q^*. Exp is doubled (length 2N) so the
// index sums above never need a modulo reduction.
//
// The tables are built lazily on first multiplicative use — a field that
// only ever adds (or is merely constructed to read its dimensions) never
// pays the O(q) build or the O(q) memory. Once built they are immutable
// and shared by all goroutines. The pre-table schoolbook/Fermat
// implementations survive as MulGeneric/PowGeneric (plus InvGeneric and
// DivGeneric in tables_test.go): they are the property-test oracle and
// the fallback used while the tables are being built.
type Tables struct {
	// Log maps a nonzero element to its discrete log in [0, N).
	// Log[0] is a sentinel and must never be read: callers guard with
	// a != 0 checks, which the scheme needs anyway (0 has no log).
	Log []uint32
	// Exp maps an exponent in [0, 2N) to g^exponent; the upper half
	// repeats the lower so Log[a]+Log[b] and Log[a]+N−Log[b] index
	// without reduction.
	Exp []Elem
	// N is q−1, the multiplicative group order.
	N uint32
}

// tableState is the lazily-initialized portion of a Field: an atomic
// pointer for the lock-free fast path plus a sync.Once guarding the
// build. Fields stay immutable-after-construction and safe for
// concurrent use.
type tableState struct {
	tab  atomic.Pointer[Tables]
	once sync.Once
}

// Tables returns the field's discrete log/exp tables, building them on
// first call (O(q) generic multiplications, O(q) memory). Hot loops
// (ring evaluation, batch processing) call this once and keep the
// pointer, hoisting even the atomic load out of their inner loops.
func (f *Field) Tables() *Tables {
	if t := f.ts.tab.Load(); t != nil {
		return t
	}
	f.ts.once.Do(func() {
		n := f.q - 1
		t := &Tables{
			Log: make([]uint32, f.q),
			Exp: make([]Elem, 2*n),
			N:   n,
		}
		x := Elem(1)
		for i := uint32(0); i < n; i++ {
			t.Exp[i] = x
			t.Exp[n+i] = x
			t.Log[x] = i
			x = f.MulGeneric(x, f.gen)
		}
		f.ts.tab.Store(t)
	})
	return f.ts.tab.Load()
}

// Mul returns a·b via one table lookup. Kept on Tables (rather than
// Field) so bulk callers that already hold the tables skip the lazy-init
// check entirely.
func (t *Tables) Mul(a, b Elem) Elem {
	if a == 0 || b == 0 {
		return 0
	}
	return t.Exp[t.Log[a]+t.Log[b]]
}

// Inv returns a⁻¹. Panics if a == 0 (as Field.Inv does).
func (t *Tables) Inv(a Elem) Elem {
	if a == 0 {
		panic("gf: inverse of zero")
	}
	return t.Exp[t.N-t.Log[a]]
}

// Div returns a/b. Panics if b == 0.
func (t *Tables) Div(a, b Elem) Elem {
	if b == 0 {
		panic("gf: division by zero")
	}
	if a == 0 {
		return 0
	}
	return t.Exp[t.Log[a]+t.N-t.Log[b]]
}

// Pow returns a^k (0^0 == 1). The exponent folds into [0, N) first, so
// the Log[a]·k product never overflows: both factors are < 2^20.
func (t *Tables) Pow(a Elem, k uint64) Elem {
	if a == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	n := uint64(t.N)
	return t.Exp[(uint64(t.Log[a])*(k%n))%n]
}
