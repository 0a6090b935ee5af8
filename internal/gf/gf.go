// Package gf implements arithmetic in finite fields F_{p^e} of small order.
//
// The paper's encoding scheme works over F_q with q = p^e a prime power
// chosen just large enough to hold all distinct tag names (and, with the
// trie enhancement, all alphabet characters). Elements are represented as
// uint32 values in [0, q): for prime fields the value is the residue
// itself; for extension fields the value packs the coefficient vector of
// the residue polynomial in base p (value = sum c_i * p^i).
//
// Multiplicative arithmetic (Mul/Inv/Div/Pow) runs off discrete log/exp
// tables over the stored generator, built lazily on first use — O(1)
// lookups for prime and extension fields alike (see tables.go). The
// table-free implementations are retained as *Generic methods: they are
// the property-test oracle and the primitive the table build uses.
//
// Fields are immutable after construction and safe for concurrent use.
package gf

import (
	"fmt"
	"math/bits"
)

// MaxQ bounds the field order. The scheme stores q-1 coefficients per
// polynomial, so fields beyond this size would be impractical anyway.
const MaxQ = 1 << 20

// Elem is an element of a finite field, valid only together with the Field
// that produced it.
type Elem = uint32

// Field is a finite field F_{p^e}. The zero value is not usable; construct
// with New.
type Field struct {
	p uint32 // characteristic (prime)
	e uint32 // extension degree
	q uint32 // order, p^e

	// irr is the monic irreducible polynomial of degree e used to define
	// the extension (coefficients irr[0..e], irr[e] == 1). nil when e == 1.
	irr []uint32

	// gen is a generator of the multiplicative group: the base of the
	// discrete log/exp tables, and the iteration order of Elems.
	gen uint32

	// ts holds the lazily-built log/exp tables (see tables.go).
	ts tableState
}

// New constructs the finite field F_{p^e}. p must be prime, e >= 1 and
// p^e <= MaxQ.
func New(p, e uint32) (*Field, error) {
	if p < 2 || !isPrime(p) {
		return nil, fmt.Errorf("gf: p = %d is not prime", p)
	}
	if e < 1 {
		return nil, fmt.Errorf("gf: extension degree e = %d must be >= 1", e)
	}
	q := uint64(1)
	for i := uint32(0); i < e; i++ {
		q *= uint64(p)
		if q > MaxQ {
			return nil, fmt.Errorf("gf: field order p^e = %d^%d exceeds limit %d", p, e, MaxQ)
		}
	}
	f := &Field{p: p, e: e, q: uint32(q)}
	if e > 1 {
		irr, err := findIrreducible(p, e)
		if err != nil {
			return nil, err
		}
		f.irr = irr
	}
	gen, err := f.findGenerator()
	if err != nil {
		return nil, err
	}
	f.gen = gen
	return f, nil
}

// MustNew is New but panics on error; for use with known-good constants.
func MustNew(p, e uint32) *Field {
	f, err := New(p, e)
	if err != nil {
		panic(err)
	}
	return f
}

// P returns the field characteristic.
func (f *Field) P() uint32 { return f.p }

// E returns the extension degree.
func (f *Field) E() uint32 { return f.e }

// Q returns the field order p^e.
func (f *Field) Q() uint32 { return f.q }

// Generator returns a fixed generator of the multiplicative group F_q^*.
func (f *Field) Generator() Elem { return f.gen }

// BitsPerElem returns ceil(log2 q), the storage cost of one element.
func (f *Field) BitsPerElem() int { return bits.Len32(f.q - 1) }

func (f *Field) String() string {
	if f.e == 1 {
		return fmt.Sprintf("GF(%d)", f.p)
	}
	return fmt.Sprintf("GF(%d^%d)", f.p, f.e)
}

// digits decomposes a packed element into its base-p coefficient vector of
// length e. Only meaningful for e > 1 but correct for e == 1 as well.
func (f *Field) digits(a Elem, out []uint32) {
	for i := uint32(0); i < f.e; i++ {
		out[i] = a % f.p
		a /= f.p
	}
}

// pack recomposes a base-p coefficient vector into a packed element.
func (f *Field) pack(d []uint32) Elem {
	var v uint64
	for i := len(d) - 1; i >= 0; i-- {
		v = v*uint64(f.p) + uint64(d[i])
	}
	return Elem(v)
}

// Add returns a + b.
func (f *Field) Add(a, b Elem) Elem {
	if f.e == 1 {
		s := a + b
		if s >= f.p {
			s -= f.p
		}
		return s
	}
	var da, db [maxDeg]uint32
	f.digits(a, da[:f.e])
	f.digits(b, db[:f.e])
	for i := uint32(0); i < f.e; i++ {
		s := da[i] + db[i]
		if s >= f.p {
			s -= f.p
		}
		da[i] = s
	}
	return f.pack(da[:f.e])
}

// Sub returns a - b.
func (f *Field) Sub(a, b Elem) Elem {
	if f.e == 1 {
		if a >= b {
			return a - b
		}
		return a + f.p - b
	}
	var da, db [maxDeg]uint32
	f.digits(a, da[:f.e])
	f.digits(b, db[:f.e])
	for i := uint32(0); i < f.e; i++ {
		if da[i] >= db[i] {
			da[i] -= db[i]
		} else {
			da[i] += f.p - db[i]
		}
	}
	return f.pack(da[:f.e])
}

// Neg returns -a.
func (f *Field) Neg(a Elem) Elem {
	return f.Sub(0, a)
}

// maxDeg bounds the extension degree for stack-allocated scratch space.
// p >= 2 and p^e <= MaxQ = 2^20 imply e <= 20.
const maxDeg = 20

// Mul returns a * b in O(1): the native widening-multiply-and-reduce
// for prime fields (which beats two table loads on modern cores), the
// log/exp tables for extension fields (where it replaces a schoolbook
// convolution). Bulk evaluation loops use the tables for every field
// via Tables(), where the log of a loop-invariant operand is hoisted
// and the table genuinely wins.
func (f *Field) Mul(a, b Elem) Elem {
	if f.e == 1 {
		return Elem(uint64(a) * uint64(b) % uint64(f.p))
	}
	if a == 0 || b == 0 {
		return 0
	}
	t := f.Tables()
	return t.Exp[t.Log[a]+t.Log[b]]
}

// MulGeneric is the table-free multiplication the field shipped with
// before the log/exp tables: residue arithmetic for prime fields,
// schoolbook multiply plus reduction modulo the irreducible polynomial
// for extensions. It is retained as the property-test oracle for the
// table path and as the primitive the table build itself uses.
func (f *Field) MulGeneric(a, b Elem) Elem {
	if f.e == 1 {
		return Elem(uint64(a) * uint64(b) % uint64(f.p))
	}
	var da, db [maxDeg]uint32
	var prod [2 * maxDeg]uint32
	f.digits(a, da[:f.e])
	f.digits(b, db[:f.e])
	e := int(f.e)
	p64 := uint64(f.p)
	for i := 0; i < 2*e-1; i++ {
		prod[i] = 0
	}
	for i := 0; i < e; i++ {
		if da[i] == 0 {
			continue
		}
		ai := uint64(da[i])
		for j := 0; j < e; j++ {
			prod[i+j] = uint32((uint64(prod[i+j]) + ai*uint64(db[j])) % p64)
		}
	}
	// Reduce modulo the irreducible polynomial: since irr is monic,
	// x^e = -(irr[0] + irr[1] x + ... + irr[e-1] x^(e-1)).
	for i := 2*e - 2; i >= e; i-- {
		c := prod[i]
		if c == 0 {
			continue
		}
		prod[i] = 0
		for j := 0; j < e; j++ {
			// prod[i-e+j] -= c * irr[j]
			t := uint64(c) * uint64(f.irr[j]) % p64
			v := uint64(prod[i-e+j]) + p64 - t
			prod[i-e+j] = uint32(v % p64)
		}
	}
	return f.pack(prod[:e])
}

// Pow returns a^k (with 0^0 == 1) via one table lookup.
func (f *Field) Pow(a Elem, k uint64) Elem {
	return f.Tables().Pow(a, k)
}

// PowGeneric is table-free square-and-multiply exponentiation, retained
// as the property-test oracle and used during field construction (the
// generator search runs before any table can exist).
func (f *Field) PowGeneric(a Elem, k uint64) Elem {
	result := Elem(1)
	base := a
	for k > 0 {
		if k&1 == 1 {
			result = f.MulGeneric(result, base)
		}
		base = f.MulGeneric(base, base)
		k >>= 1
	}
	return result
}

// Inv returns the multiplicative inverse of a via one table lookup. It
// panics if a == 0, which indicates a programming error in the caller
// (the scheme never inverts zero: map values are restricted to F_q^*).
func (f *Field) Inv(a Elem) Elem {
	return f.Tables().Inv(a)
}

// Div returns a / b via one table lookup. Panics if b == 0.
func (f *Field) Div(a, b Elem) Elem {
	return f.Tables().Div(a, b)
}

// isPrime is a deterministic primality test adequate for p <= MaxQ.
func isPrime(n uint32) bool {
	if n < 2 {
		return false
	}
	if n%2 == 0 {
		return n == 2
	}
	for d := uint32(3); d*d <= n; d += 2 {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// primeFactors returns the distinct prime factors of n in ascending order.
func primeFactors(n uint32) []uint32 {
	var out []uint32
	for d := uint32(2); d*d <= n; d++ {
		if n%d == 0 {
			out = append(out, d)
			for n%d == 0 {
				n /= d
			}
		}
	}
	if n > 1 {
		out = append(out, n)
	}
	return out
}

// findGenerator locates the smallest generator of F_q^* by checking
// g^((q-1)/r) != 1 for every prime r | q-1. It runs at construction,
// before the tables can exist, so it must use the generic arithmetic.
func (f *Field) findGenerator() (Elem, error) {
	n := f.q - 1
	if n == 1 {
		return 1, nil // F_2: the trivial group
	}
	factors := primeFactors(n)
	for g := Elem(2); g < f.q; g++ {
		ok := true
		for _, r := range factors {
			if f.PowGeneric(g, uint64(n/r)) == 1 {
				ok = false
				break
			}
		}
		if ok {
			return g, nil
		}
	}
	return 0, fmt.Errorf("gf: no generator found for %v (impossible)", f)
}

// Elems iterates over all field elements in a fixed order: 0 first, then
// the powers of the generator g^0, g^1, ... This gives deterministic
// element enumeration independent of the internal representation.
func (f *Field) Elems(fn func(Elem) bool) {
	if !fn(0) {
		return
	}
	x := Elem(1)
	for i := uint32(0); i < f.q-1; i++ {
		if !fn(x) {
			return
		}
		x = f.Mul(x, f.gen)
	}
}
