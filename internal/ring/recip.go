// Division by precomputed reciprocals.
//
// The prime-field product and the limb codec divide by the same few
// constants over and over: the field order q (once per product
// coefficient, once per decoded digit) and the chunk radix q^k (once
// per live limb per chunk). A hardware divide costs tens of cycles; a
// multiply by a reciprocal fixed at ring construction costs a few.
// Both helpers here are exact — they return the quotient and remainder
// DIV would — so the arithmetic they replace is unchanged bit for bit.

package ring

import "math/bits"

// recipQ divides values below 2^63 by a fixed divisor 2 ≤ d ≤ gf.MaxQ
// with one high multiply and a shift, and no correction step (Granlund
// and Montgomery, "Division by invariant integers using
// multiplication", 1994, Thm. 4.2): with ℓ = ⌈log2 d⌉ and
// m = ⌈2^(63+ℓ)/d⌉, 2^(63+ℓ) ≤ m·d < 2^(63+ℓ) + 2^ℓ, so
// ⌊x/d⌋ = ⌊x·m/2^(63+ℓ)⌋ for every x < 2^63. Product accumulators (at
// most n·(q−1)² < 2^60) and codec chunks (< q^k ≤ 2^63) are in range.
type recipQ struct {
	d, m  uint64
	shift uint // ℓ − 1: the high word of x·m is ⌊x·m/2^64⌋
}

func newRecipQ(d uint64) recipQ {
	l := uint(bits.Len64(d - 1)) // ⌈log2 d⌉ ≥ 1
	// m = ⌊(2^(63+ℓ) − 1)/d⌋ + 1; the high word 2^(ℓ−1) − 1 is below d.
	m, _ := bits.Div64(1<<(l-1)-1, ^uint64(0), d)
	return recipQ{d: d, m: m + 1, shift: l - 1}
}

// divmod returns ⌊x/d⌋ and x mod d, for x < 2^63.
func (r recipQ) divmod(x uint64) (quo, rem uint64) {
	hi, _ := bits.Mul64(x, r.m)
	quo = hi >> r.shift
	return quo, x - quo*r.d
}

// mod returns x mod d, for x < 2^63.
func (r recipQ) mod(x uint64) uint64 {
	_, rem := r.divmod(x)
	return rem
}

// limbDivisor divides a little-endian limb vector by a fixed single-limb
// divisor with the Möller–Granlund 2-by-1 step ("Improved division by
// invariant integers", 2011, Alg. 4). The divisor is normalised — shifted
// left until its top bit is set — and the dividend is shifted by the same
// amount on the fly, which leaves the quotient unchanged and scales the
// remainder.
type limbDivisor struct {
	d     uint64 // divisor << shift: top bit set
	v     uint64 // ⌊(2^128−1)/d⌋ − 2^64
	shift uint
}

func newLimbDivisor(div uint64) limbDivisor {
	s := uint(bits.LeadingZeros64(div))
	d := div << s
	// (2^128−1) − 2^64·d = (2^64−1−d)·2^64 + (2^64−1), and 2^64−1−d < d.
	v, _ := bits.Div64(^d, ^uint64(0), d)
	return limbDivisor{d: d, v: v, shift: s}
}

// div21 divides the two-limb value u1·2^64 + u0 by d, given u1 < d.
func (dv limbDivisor) div21(u1, u0 uint64) (quo, rem uint64) {
	q1, q0 := bits.Mul64(dv.v, u1)
	q0, c := bits.Add64(q0, u0, 0)
	q1 += u1 + c + 1
	rem = u0 - q1*dv.d
	if rem > q0 {
		q1--
		rem += dv.d
	}
	if rem >= dv.d {
		q1++
		rem -= dv.d
	}
	return q1, rem
}

// divmod sets a = a/div in place and returns a mod div.
func (dv limbDivisor) divmod(a []uint64) uint64 {
	if len(a) == 0 {
		return 0
	}
	s := dv.shift
	// Go defines x>>64 as 0, so shift == 0 needs no special case.
	top := len(a) - 1
	rem := a[top] >> (64 - s)
	for i := top; i > 0; i-- {
		a[i], rem = dv.div21(rem, a[i]<<s|a[i-1]>>(64-s))
	}
	a[0], rem = dv.div21(rem, a[0]<<s)
	return rem >> s
}
