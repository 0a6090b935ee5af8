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
//     paper's F_83 this turns 82 limb-vector divisions into 9;
//   - both directions walk only the live limbs: encode grows the span
//     as carries open limbs, decode shrinks it as high limbs empty, so
//     F_83's nine chunk divisions touch 45 limb words in all;
//   - no hardware divide: the limb division by q^k is a Möller–Granlund
//     step with a reciprocal of the normalised divisor, and a chunk's
//     digits come out by a reciprocal of q (recip.go), both computed
//     once in New;
//   - bytes move between the blob and the limbs a word at a time.
//
// Pooling invariant: limb scratch never escapes a single Append/Decode
// call. Pooled Polys (GetPoly/PutPoly) are different — see ring.go.
package ring

import (
	"encoding/binary"
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
	// first so all later shifts are by exactly q^k. Only the live limbs
	// a[:top] are multiplied; a carry out of them opens the next limb.
	top := 0
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
		mul, carry := r.qpow[g], ch
		for k, w := range a[:top] {
			hi, lo := bits.Mul64(w, mul)
			lo, c := bits.Add64(lo, carry, 0)
			a[k] = lo
			carry = hi + c // hi ≤ 2^64-2, so this cannot overflow
		}
		if carry != 0 {
			// Values stay < q^n, which fits the limb vector by
			// construction; a carry past it is a caller bug.
			if top == len(a) {
				panic("ring: limb overflow (value exceeds PolyBytes width)")
			}
			a[top] = carry
			top++
		}
		i -= g
	}
	start := len(dst)
	dst = append(dst, make([]byte, r.polyBytes)...)
	putLimbsBE(dst[start:], a)
	r.putLimbs(ls)
	return dst
}

// DecodeInto deserializes a polynomial previously produced by
// Bytes/AppendBytes into the caller-supplied dst (len == N()),
// performing no allocation. It validates exactly like FromBytes: wrong
// blob length and out-of-range values are errors, never panics — the
// blob comes from an untrusted server.
//
// Each full chunk is one division of the live limbs by q^k (by
// reciprocal, recip.go), after which the span shrinks past any limb
// that became zero; the chunk's k digits come out by reciprocal of q.
func (r *Ring) DecodeInto(dst Poly, b []byte) error {
	if len(b) != r.polyBytes {
		return fmt.Errorf("ring: polynomial blob is %d bytes, want %d", len(b), r.polyBytes)
	}
	if len(dst) != r.n {
		return fmt.Errorf("ring: decode target has %d coefficients, want %d", len(dst), r.n)
	}
	ls := r.getLimbs()
	a := ls.a
	getLimbsBE(a, b)
	top := len(a)
	for top > 0 && a[top-1] == 0 {
		top--
	}
	k := r.chunk
	i := 0
	for ; i+k <= r.n; i += k {
		ch := r.chunkDiv.divmod(a[:top])
		for top > 0 && a[top-1] == 0 {
			top--
		}
		r.digits(dst[i:i+k], ch)
	}
	// The last n mod k digits are what remains; the blob is in range
	// exactly when that is below q^(n mod k).
	g := r.n - i
	if top > 1 || a[0] >= r.qpow[g] {
		r.putLimbs(ls)
		return fmt.Errorf("ring: polynomial blob out of range")
	}
	r.digits(dst[i:], a[0])
	r.putLimbs(ls)
	return nil
}

// digits writes the len(d) base-q digits of ch < q^len(d) into d,
// least significant first.
func (r *Ring) digits(d Poly, ch uint64) {
	if len(d) == 0 {
		return
	}
	last := len(d) - 1
	for t := range d[:last] {
		var c uint64
		ch, c = r.modQ.divmod(ch)
		d[t] = gf.Elem(c)
	}
	d[last] = gf.Elem(ch)
}

// getLimbsBE loads the big-endian byte string b into the little-endian
// limb vector a (len(a) == ⌈len(b)/8⌉), whole words at a time.
func getLimbsBE(a []uint64, b []byte) {
	end := len(b)
	for k := range a {
		if end < 8 {
			var w uint64
			for _, v := range b[:end] {
				w = w<<8 | uint64(v)
			}
			a[k] = w
			return
		}
		a[k] = binary.BigEndian.Uint64(b[end-8 : end])
		end -= 8
	}
}

// putLimbsBE is getLimbsBE's inverse: it writes the limb vector a as
// the big-endian byte string out.
func putLimbsBE(out []byte, a []uint64) {
	end := len(out)
	for _, w := range a {
		if end < 8 {
			for j := end - 1; j >= 0; j-- {
				out[j] = byte(w)
				w >>= 8
			}
			return
		}
		binary.BigEndian.PutUint64(out[end-8:end], w)
		end -= 8
	}
}
