// Allocation-free radix-q polynomial codec.
//
// The storage format is unchanged from the big.Int implementation it
// replaces (retained in limb_test.go as BytesBig/FromBytesBig, the
// property-test oracle): a polynomial packs as the base-q integer
// Σ c_i·q^i written big-endian into exactly PolyBytes() bytes. The rewrite changes only
// how that integer is computed:
//
//   - the multiprecision value lives in a fixed-width little-endian
//     uint64 limb vector sized at ring construction, drawn from a
//     sync.Pool — no big.Int, no per-call heap allocation;
//   - digits move in CHUNKS: the largest k with q^k ≤ 2^63 digits are
//     folded into one uint64 first, so each multiprecision multiply-add
//     (encode) or divmod (decode) moves k digits instead of one. For the
//     paper's F_83 this turns 82 limb-vector divisions into 9.
//
// Pooling invariant: limb scratch never escapes a single Append/Decode
// call. Pooled Polys (GetPoly/PutPoly) are different — see ring.go.
package ring

import (
	"fmt"
	"math/bits"

	"encshare/internal/gf"
)

// limbScratch is a pooled limb vector. The pointer wrapper keeps
// Get/Put round-trips allocation-free.
type limbScratch struct{ a []uint64 }

func (r *Ring) getLimbs() *limbScratch {
	if v := r.limbPool.Get(); v != nil {
		ls := v.(*limbScratch)
		clear(ls.a)
		return ls
	}
	return &limbScratch{a: make([]uint64, r.limbs)}
}

func (r *Ring) putLimbs(ls *limbScratch) { r.limbPool.Put(ls) }

// mulAddSmall sets a = a*mul + add in place. The caller guarantees the
// result fits the limb vector (values stay < q^n, which fits PolyBytes()
// bytes by construction); a final carry indicates a caller bug.
func mulAddSmall(a []uint64, mul, add uint64) {
	carry := add
	for i := range a {
		hi, lo := bits.Mul64(a[i], mul)
		lo, c := bits.Add64(lo, carry, 0)
		a[i] = lo
		carry = hi + c // hi ≤ 2^64-2, so this cannot overflow
	}
	if carry != 0 {
		panic("ring: limb overflow (value exceeds PolyBytes width)")
	}
}

// divmodSmall sets a = a/d in place and returns a mod d. d ≤ 2^63 keeps
// bits.Div64 in range (the running remainder is always < d).
func divmodSmall(a []uint64, d uint64) uint64 {
	var rem uint64
	for i := len(a) - 1; i >= 0; i-- {
		a[i], rem = bits.Div64(rem, a[i], d)
	}
	return rem
}

// AppendBytes appends the fixed-width radix-q packing of p to dst and
// returns the extended slice. With cap(dst)-len(dst) ≥ PolyBytes() it
// performs no allocation; Bytes is the convenience wrapper that
// allocates the slice.
func (r *Ring) AppendBytes(dst []byte, p Poly) []byte {
	ls := r.getLimbs()
	a := ls.a
	q64 := uint64(r.q32)
	// Fold digits top-down so each multiply-add shifts the accumulator
	// by a whole chunk; the one partial chunk (n mod k digits) goes
	// first so all later shifts are by exactly q^k.
	i := r.n
	for i > 0 {
		g := i % r.chunk
		if g == 0 {
			g = r.chunk
		}
		var ch uint64
		for t := i - 1; t >= i-g; t-- {
			ch = ch*q64 + uint64(p[t])
		}
		mulAddSmall(a, r.qpow[g], ch)
		i -= g
	}
	start := len(dst)
	dst = append(dst, make([]byte, r.polyBytes)...)
	out := dst[start:]
	for bi := range out {
		k := r.polyBytes - 1 - bi // byte index from the LSB
		out[bi] = byte(a[k>>3] >> ((k & 7) * 8))
	}
	r.putLimbs(ls)
	return dst
}

// DecodeInto deserializes a polynomial previously produced by
// Bytes/AppendBytes into the caller-supplied dst (len == N()),
// performing no allocation. It validates exactly like FromBytes: wrong
// blob length and out-of-range values are errors, never panics — the
// blob comes from an untrusted server.
func (r *Ring) DecodeInto(dst Poly, b []byte) error {
	if len(b) != r.polyBytes {
		return fmt.Errorf("ring: polynomial blob is %d bytes, want %d", len(b), r.polyBytes)
	}
	if len(dst) != r.n {
		return fmt.Errorf("ring: decode target has %d coefficients, want %d", len(dst), r.n)
	}
	ls := r.getLimbs()
	a := ls.a
	for bi, v := range b {
		k := r.polyBytes - 1 - bi
		a[k>>3] |= uint64(v) << ((k & 7) * 8)
	}
	q64 := uint64(r.q32)
	i := 0
	for i < r.n {
		g := r.chunk
		if rest := r.n - i; g > rest {
			g = rest
		}
		ch := divmodSmall(a, r.qpow[g])
		for t := 0; t < g; t++ {
			dst[i+t] = gf.Elem(ch % q64)
			ch /= q64
		}
		i += g
	}
	for _, w := range a {
		if w != 0 {
			r.putLimbs(ls)
			return fmt.Errorf("ring: polynomial blob out of range")
		}
	}
	r.putLimbs(ls)
	return nil
}
