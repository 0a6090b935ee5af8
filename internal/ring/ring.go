// Package ring implements the quotient ring F_q[x]/(x^(q-1) − 1) in which
// the paper encodes XML trees (§3, step 2).
//
// Every polynomial is kept in reduced form as exactly n = q−1 coefficients
// c[0..n−1] (c[i] is the coefficient of x^i). Reduction modulo x^(q−1) − 1
// identifies x^(q−1) with 1, i.e. multiplication is cyclic convolution of
// the coefficient vectors.
//
// The crucial soundness property (tested in this package) is that for any
// nonzero point t ∈ F_q^*, t^(q−1) = 1, so reduction preserves evaluation
// at every nonzero point. Since the secret tag map only uses nonzero
// values, "f(map(N)) == 0" holds in the reduced ring exactly when the
// unreduced product Π(x − t_i) has map(N) among its roots — i.e. exactly
// when tag N occurs in the subtree. Containment matching has no false
// positives or negatives at the ring level.
//
// # Hot path
//
// This package is the compute floor of every query: a containment test
// is one Eval per share, an equality test decodes and multiplies whole
// polynomials. The hot entry points are built accordingly:
//
//   - evaluation hoists the field's log/exp tables (gf.Tables) out of
//     its inner loops, with a branch-free residue fast path for prime
//     fields;
//   - prime-field products (MulInto, MulLinearInto) run on plain
//     integers with delayed reduction: no table load per term, one
//     reduction per output coefficient by a reciprocal of q fixed at
//     construction (recip.go), and the outer loop over the sparser
//     operand, so a linear factor costs two row passes. Extension
//     fields multiply through the tables;
//   - EvalBatch/EvalMany amortize the hoisting across many polynomials
//     or many points; EvalStream evaluates a PRG-defined polynomial
//     without materializing it (the client-share path);
//   - the radix-q codec runs on pooled uint64 limb vectors (limb.go),
//     divides by reciprocals instead of hardware division, touches only
//     the limbs still nonzero, and decodes into caller-supplied
//     buffers — zero heap allocations on the decode path;
//   - GetPoly/PutPoly expose a pooled buffer source for transient
//     polynomials. Pooling invariant: a Poly may be returned to the
//     pool only when no other reference to it can remain — never pool a
//     polynomial kept in a result or still readable by someone else. A
//     cache may pool what it evicts only if its readers never hold an
//     entry outside its lock (the server filter's decoded-poly cache
//     works that way).
package ring

import (
	"fmt"
	"math/big"
	"sync"

	"encshare/internal/gf"
	"encshare/internal/prg"
)

// Ring is the polynomial ring F_q[x]/(x^(q-1) − 1). Immutable and safe for
// concurrent use.
type Ring struct {
	f     *gf.Field
	n     int    // q - 1, number of coefficients in reduced form
	q32   uint32 // field order, hoisted for the prime fast paths
	prime bool   // e == 1: coefficients are residues mod q

	// serialization support: polynomials are packed as a base-q integer
	// occupying polyBytes bytes, the paper's (q−1)·log2(q) bits (§4).
	polyBytes int

	// limb codec geometry (see limb.go): values occupy `limbs` uint64
	// words; `chunk` is the largest k with q^k ≤ 2^63 and qpow[g] = q^g.
	limbs int
	chunk int
	qpow  []uint64

	// reciprocals (recip.go): modQ reduces by q (product coefficients,
	// decoded digits); chunkDiv divides limb vectors by q^chunk.
	modQ     recipQ
	chunkDiv limbDivisor

	// sampler holds the precomputed Uniform(q) constants for the PRG
	// draws (coefficient sampling is division-free).
	sampler prg.Sampler

	limbPool sync.Pool // *limbScratch
	accPool  sync.Pool // *limbScratch of n words: MulInto's accumulator
	polyPool sync.Pool // *polyBox (full)
	boxPool  sync.Pool // *polyBox (empty, recycled wrappers)
}

// New constructs the ring over the given field. Fields of order q < 3 are
// rejected: the scheme needs at least one nonzero map value and a degree
// >= 1 reduced representation to hold (x − t).
func New(f *gf.Field) (*Ring, error) {
	if f.Q() < 3 {
		return nil, fmt.Errorf("ring: field order %d too small (need q >= 3)", f.Q())
	}
	n := int(f.Q() - 1)
	r := &Ring{f: f, n: n, q32: f.Q(), prime: f.E() == 1, sampler: prg.NewSampler(f.Q())}
	// polyBytes = bytes needed for the largest packed value q^n - 1.
	max := new(big.Int).Exp(big.NewInt(int64(f.Q())), big.NewInt(int64(n)), nil)
	max.Sub(max, big.NewInt(1))
	r.polyBytes = (max.BitLen() + 7) / 8
	r.limbs = (r.polyBytes + 7) / 8
	q64 := uint64(f.Q())
	qk := uint64(1)
	for qk <= (uint64(1)<<63)/q64 {
		qk *= q64
		r.chunk++
	}
	r.qpow = make([]uint64, r.chunk+1)
	r.qpow[0] = 1
	for i := 1; i <= r.chunk; i++ {
		r.qpow[i] = r.qpow[i-1] * q64
	}
	r.modQ = newRecipQ(q64)
	r.chunkDiv = newLimbDivisor(r.qpow[r.chunk])
	return r, nil
}

// MustNew is New but panics on error.
func MustNew(f *gf.Field) *Ring {
	r, err := New(f)
	if err != nil {
		panic(err)
	}
	return r
}

// Field returns the coefficient field.
func (r *Ring) Field() *gf.Field { return r.f }

// N returns the number of coefficients of a reduced polynomial (q − 1).
func (r *Ring) N() int { return r.n }

// PolyBytes returns the serialized size of one polynomial in bytes — the
// paper's per-node storage cost.
func (r *Ring) PolyBytes() int { return r.polyBytes }

// Poly is a reduced polynomial: a coefficient vector of length Ring.N().
// Polys from different rings must not be mixed; all Poly-taking methods on
// Ring assume the argument belongs to it.
type Poly []gf.Elem

// NewPoly returns the zero polynomial.
func (r *Ring) NewPoly() Poly { return make(Poly, r.n) }

// polyBox wraps a pooled Poly so Get/Put round trips reuse the pointer
// cell instead of boxing a fresh slice header per Put: emptied boxes
// recycle through boxPool, so the steady state allocates nothing.
type polyBox struct{ p Poly }

// GetPoly returns a zeroed polynomial from the ring's buffer pool. Pair
// with PutPoly for transient polynomials on hot paths. A Poly obtained
// here is indistinguishable from NewPoly's — forgetting to return it
// costs an allocation, never correctness.
func (r *Ring) GetPoly() Poly {
	if v := r.polyPool.Get(); v != nil {
		b := v.(*polyBox)
		p := b.p
		b.p = nil
		r.boxPool.Put(b)
		clear(p)
		return p
	}
	return make(Poly, r.n)
}

// PutPoly returns a polynomial to the buffer pool. The caller must hold
// the only remaining reference: never return a Poly that is still
// stored in a cache, captured in a result, or being read by another
// goroutine. A cache's evicted polynomial qualifies only when the
// cache's readers never hold an entry outside its lock. Polys of the
// wrong length are dropped.
func (r *Ring) PutPoly(p Poly) {
	if len(p) != r.n {
		return
	}
	var b *polyBox
	if v := r.boxPool.Get(); v != nil {
		b = v.(*polyBox)
	} else {
		b = &polyBox{}
	}
	b.p = p
	r.polyPool.Put(b)
}

// One returns the constant polynomial 1.
func (r *Ring) One() Poly {
	p := r.NewPoly()
	p[0] = 1
	return p
}

// Linear returns the monic linear polynomial x − t, the leaf encoding of a
// node mapped to t (§3, step 2).
func (r *Ring) Linear(t gf.Elem) Poly {
	p := r.NewPoly()
	p[0] = r.f.Neg(t)
	p[1] = 1
	return p
}

// Clone returns an independent copy of p.
func (r *Ring) Clone(p Poly) Poly {
	q := make(Poly, r.n)
	copy(q, p)
	return q
}

// Add returns a + b.
func (r *Ring) Add(a, b Poly) Poly {
	out := make(Poly, r.n)
	if r.prime {
		q := r.q32
		for i, av := range a {
			s := av + b[i]
			if s >= q {
				s -= q
			}
			out[i] = s
		}
		return out
	}
	for i := 0; i < r.n; i++ {
		out[i] = r.f.Add(a[i], b[i])
	}
	return out
}

// AddInPlace sets a += b and returns a.
func (r *Ring) AddInPlace(a, b Poly) Poly {
	if r.prime {
		q := r.q32
		for i, bv := range b {
			s := a[i] + bv
			if s >= q {
				s -= q
			}
			a[i] = s
		}
		return a
	}
	for i := 0; i < r.n; i++ {
		a[i] = r.f.Add(a[i], b[i])
	}
	return a
}

// SumInto folds every polynomial of ps into dst (dst += Σ ps) and
// returns dst — the additive share combination behind server-side
// aggregation: a shard sums the server shares of all matching rows into
// one polynomial instead of shipping each row. Addition is coefficient-
// wise, so the fold is exact in the field regardless of how many shares
// it absorbs; only counters (sums of ones) need the chunking rule, not
// the share fold itself.
func (r *Ring) SumInto(dst Poly, ps ...Poly) Poly {
	for _, p := range ps {
		r.AddInPlace(dst, p)
	}
	return dst
}

// AddScaledInPlace sets a += c·b and returns a — the masked-fold
// primitive of the verification share: the scalar multiple of a share is
// again a share, so Σ ρ_i·s_i is computable shard-side without revealing
// anything. The scale runs in the log domain (one table add per nonzero
// coefficient), matching the evaluation paths' cost model.
func (r *Ring) AddScaledInPlace(a, b Poly, c gf.Elem) Poly {
	switch c {
	case 0:
		return a
	case 1:
		return r.AddInPlace(a, b)
	}
	t := r.f.Tables()
	lg, ex := t.Log, t.Exp
	lc := lg[c]
	if r.prime {
		q := r.q32
		for i, bv := range b {
			if bv == 0 {
				continue
			}
			s := a[i] + ex[lg[bv]+lc]
			if s >= q {
				s -= q
			}
			a[i] = s
		}
		return a
	}
	for i, bv := range b {
		if bv != 0 {
			a[i] = r.f.Add(a[i], ex[lg[bv]+lc])
		}
	}
	return a
}

// Sub returns a − b.
func (r *Ring) Sub(a, b Poly) Poly {
	out := make(Poly, r.n)
	if r.prime {
		q := r.q32
		for i, av := range a {
			bv := b[i]
			if av >= bv {
				out[i] = av - bv
			} else {
				out[i] = av + q - bv
			}
		}
		return out
	}
	for i := 0; i < r.n; i++ {
		out[i] = r.f.Sub(a[i], b[i])
	}
	return out
}

// Neg returns −a.
func (r *Ring) Neg(a Poly) Poly {
	out := make(Poly, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.f.Neg(a[i])
	}
	return out
}

// Mul returns a·b, reduced: cyclic convolution of the coefficient vectors.
func (r *Ring) Mul(a, b Poly) Poly {
	return r.MulInto(make(Poly, r.n), a, b)
}

// MulInto sets dst = a·b and returns dst. dst must not alias a or b.
//
// Prime fields convolve on plain integers with delayed reduction: each
// nonzero coefficient a_i of the sparser operand adds a_i·b into a
// pooled uint64 accumulator as two contiguous row passes (the wrap of
// x^(q−1) = 1 split off, so the inner loops carry no branch and no table
// load), and each output coefficient is reduced once, by reciprocal.
// A leaf child x − s therefore costs two row passes. The largest sum,
// n·(q−1)², stays below 2^60 up to gf.MaxQ. Extension fields multiply
// through the log/exp tables.
func (r *Ring) MulInto(dst, a, b Poly) Poly {
	if !r.prime {
		return r.mulTables(dst, a, b)
	}
	if nonzeros(b) < nonzeros(a) {
		a, b = b, a
	}
	ls := r.getAcc()
	convolve(ls.a, a, b)
	for k, v := range ls.a[:len(dst)] {
		dst[k] = gf.Elem(r.modQ.mod(v))
	}
	r.accPool.Put(ls)
	return dst
}

// getAcc returns a zeroed n-word accumulator for MulInto; return it
// with r.accPool.Put.
func (r *Ring) getAcc() *limbScratch {
	if v := r.accPool.Get(); v != nil {
		ls := v.(*limbScratch)
		clear(ls.a)
		return ls
	}
	return &limbScratch{a: make([]uint64, r.n)}
}

// convolve adds the cyclic convolution a·b, unreduced, into acc
// (len(acc) == len(a) == len(b)).
func convolve(acc []uint64, a, b Poly) {
	n := len(acc)
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		x := uint64(ai)
		addScaled(acc[i:], x, b[:n-i]) // x^(i+j) for i+j < n
		addScaled(acc[:i], x, b[n-i:]) // x^(i+j−n) for i+j ≥ n
	}
}

// addScaled sets acc[j] += x·b[j] for every j (len(b) ≥ len(acc)),
// four lanes per step.
func addScaled(acc []uint64, x uint64, b Poly) {
	b = b[:len(acc)]
	for len(acc) >= 4 && len(b) >= 4 {
		acc[0] += x * uint64(b[0])
		acc[1] += x * uint64(b[1])
		acc[2] += x * uint64(b[2])
		acc[3] += x * uint64(b[3])
		acc, b = acc[4:], b[4:]
	}
	for j, bj := range b[:len(acc)] {
		acc[j] += x * uint64(bj)
	}
}

// nonzeros counts the nonzero coefficients of p.
func nonzeros(p Poly) int {
	k := 0
	for _, c := range p {
		if c != 0 {
			k++
		}
	}
	return k
}

// mulTables is the extension-field product: each nonzero coefficient
// pair costs one exp lookup and one field add.
func (r *Ring) mulTables(dst, a, b Poly) Poly {
	t := r.f.Tables()
	lg, ex := t.Log, t.Exp
	clear(dst)
	n := r.n
	f := r.f
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		la := lg[ai]
		for j, bj := range b {
			if bj == 0 {
				continue
			}
			k := i + j
			if k >= n {
				k -= n
			}
			dst[k] = f.Add(dst[k], ex[la+lg[bj]])
		}
	}
	return dst
}

// MulLinear returns a·(x − t) without forming the dense factor — the inner
// loop of the encoder, where every node contributes one linear factor.
func (r *Ring) MulLinear(a Poly, t gf.Elem) Poly {
	return r.MulLinearInto(make(Poly, r.n), a, t)
}

// MulLinearInto sets dst = a·(x − t) and returns dst. dst must not
// alias a. Over a prime field each output coefficient is
// a_(i−1) − t·a_i, one multiply and one reciprocal reduction.
func (r *Ring) MulLinearInto(dst, a Poly, t gf.Elem) Poly {
	negT := r.f.Neg(t)
	n := r.n
	if r.prime {
		nt := uint64(negT)
		prev := uint64(a[n-1]) // a_(i−1), cyclically
		for i, ai := range a[:n] {
			dst[i] = gf.Elem(r.modQ.mod(prev + nt*uint64(ai)))
			prev = uint64(ai)
		}
		return dst
	}
	tab := r.f.Tables()
	lg, ex := tab.Log, tab.Exp
	clear(dst)
	f := r.f
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		// a_i x^i (x − t) = a_i x^(i+1) − t a_i x^i
		k := i + 1
		if k == n {
			k = 0
		}
		dst[k] = f.Add(dst[k], ai)
		if negT != 0 {
			dst[i] = f.Add(dst[i], ex[lg[negT]+lg[ai]])
		}
	}
	return dst
}

// FromRoots returns Π (x − t) over the given roots — the unshared encoding
// of a subtree whose nodes map to ts.
func (r *Ring) FromRoots(ts []gf.Elem) Poly {
	p := r.One()
	for _, t := range ts {
		p = r.MulLinear(p, t)
	}
	return p
}

// Eval evaluates p at point v by Horner's rule. For v ∈ F_q^* this equals
// the evaluation of any unreduced preimage of p.
func (r *Ring) Eval(p Poly, v gf.Elem) gf.Elem {
	return r.evalTab(r.f.Tables(), p, v)
}

// evalTab computes Σ c_i·v^i with the tables already hoisted, in power
// form rather than Horner form: the power of v rides in the log domain
// (one add mod N per step) and each term is one exp lookup. Horner's
// loop carries its dependency through Log[acc] — a load — every
// iteration; here the only loop-carried state is two integer adds, so
// the table loads of successive terms pipeline.
func (r *Ring) evalTab(t *gf.Tables, p Poly, v gf.Elem) gf.Elem {
	if v == 0 {
		return p[0]
	}
	lg, ex := t.Log, t.Exp
	logv := lg[v]
	var pw uint32 // log of v^i, updated incrementally mod N
	if r.prime {
		q := r.q32
		var acc uint32
		for _, c := range p {
			if c != 0 {
				acc += ex[lg[c]+pw]
				if acc >= q {
					acc -= q
				}
			}
			pw += logv
			if pw >= t.N {
				pw -= t.N
			}
		}
		return acc
	}
	f := r.f
	var acc gf.Elem
	for _, c := range p {
		if c != 0 {
			acc = f.Add(acc, ex[lg[c]+pw])
		}
		pw += logv
		if pw >= t.N {
			pw -= t.N
		}
	}
	return acc
}

// EvalBatch evaluates every polynomial at the same point v — the
// server's batched containment test. Field and table pointers are
// hoisted once for the whole batch.
func (r *Ring) EvalBatch(polys []Poly, v gf.Elem) []gf.Elem {
	out := make([]gf.Elem, len(polys))
	r.EvalBatchInto(out, polys, v)
	return out
}

// EvalBatchInto is EvalBatch into a caller-supplied result slice
// (len(out) ≥ len(polys)), performing no allocation.
//
// Batches of prime-field polynomials run four at a time in lockstep:
// all members share the point v, so the log-domain power counter — the
// only loop-carried state of the power-form evaluation — is computed
// once per coefficient index and feeds four independent accumulators.
// Per-element arithmetic is identical to evalTab's, so the results are
// the ones sequential evaluation produces (a test pins this).
func (r *Ring) EvalBatchInto(out []gf.Elem, polys []Poly, v gf.Elem) {
	t := r.f.Tables()
	i := 0
	if r.prime && v != 0 {
		lg, ex := t.Log, t.Exp
		logv := lg[v]
		q := r.q32
		n := r.n
		for ; i+4 <= len(polys); i += 4 {
			p0, p1, p2, p3 := polys[i], polys[i+1], polys[i+2], polys[i+3]
			if len(p0) != n || len(p1) != n || len(p2) != n || len(p3) != n {
				break // ragged batch: finish on the sequential path
			}
			var a0, a1, a2, a3 uint32
			var pw uint32
			for k := 0; k < n; k++ {
				if c := p0[k]; c != 0 {
					a0 += ex[lg[c]+pw]
					if a0 >= q {
						a0 -= q
					}
				}
				if c := p1[k]; c != 0 {
					a1 += ex[lg[c]+pw]
					if a1 >= q {
						a1 -= q
					}
				}
				if c := p2[k]; c != 0 {
					a2 += ex[lg[c]+pw]
					if a2 >= q {
						a2 -= q
					}
				}
				if c := p3[k]; c != 0 {
					a3 += ex[lg[c]+pw]
					if a3 >= q {
						a3 -= q
					}
				}
				pw += logv
				if pw >= t.N {
					pw -= t.N
				}
			}
			out[i], out[i+1], out[i+2], out[i+3] = a0, a1, a2, a3
		}
	}
	for ; i < len(polys); i++ {
		out[i] = r.evalTab(t, polys[i], v)
	}
}

// EvalMany evaluates one polynomial at many points — the advanced
// engine's look-ahead asks several names of the same node. One pass
// over the coefficients updates all accumulators, so p streams through
// the cache once however many points are asked.
func (r *Ring) EvalMany(p Poly, vs []gf.Elem) []gf.Elem {
	out := make([]gf.Elem, len(vs))
	r.EvalManyInto(out, p, vs)
	return out
}

// EvalManyInto is EvalMany into a caller-supplied result slice
// (len(out) ≥ len(vs)).
func (r *Ring) EvalManyInto(out []gf.Elem, p Poly, vs []gf.Elem) {
	t := r.f.Tables()
	if len(vs) == 1 { // common case: skip the accumulator machinery
		out[0] = r.evalTab(t, p, vs[0])
		return
	}
	lg, ex := t.Log, t.Exp
	var logs [8]uint32
	lv := logs[:0]
	if len(vs) > len(logs) {
		lv = make([]uint32, 0, len(vs))
	}
	for i, v := range vs {
		out[i] = 0
		if v == 0 {
			// x^0 term only; handled after the loop.
			lv = append(lv, 0)
			continue
		}
		lv = append(lv, lg[v])
	}
	if r.prime {
		q := r.q32
		for i := r.n - 1; i >= 0; i-- {
			c := p[i]
			for j, v := range vs {
				if v == 0 {
					continue
				}
				acc := out[j]
				if acc != 0 {
					acc = ex[lg[acc]+lv[j]]
				}
				acc += c
				if acc >= q {
					acc -= q
				}
				out[j] = acc
			}
		}
	} else {
		f := r.f
		for i := r.n - 1; i >= 0; i-- {
			c := p[i]
			for j, v := range vs {
				if v == 0 {
					continue
				}
				acc := out[j]
				if acc != 0 {
					acc = ex[lg[acc]+lv[j]]
				}
				if c != 0 {
					acc = f.Add(acc, c)
				}
				out[j] = acc
			}
		}
	}
	for j, v := range vs {
		if v == 0 {
			out[j] = p[0]
		}
	}
}

// IsZero reports whether p is the zero polynomial.
func (r *Ring) IsZero(p Poly) bool {
	for _, c := range p {
		if c != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether a and b are identical polynomials.
func (r *Ring) Equal(a, b Poly) bool {
	for i := 0; i < r.n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Rand returns a polynomial with coefficients drawn uniformly from the
// given stream — the client share generator (§3, step 3).
func (r *Ring) Rand(s *prg.Stream) Poly {
	return r.RandInto(make(Poly, r.n), s)
}

// RandInto fills dst (len == N()) with coefficients drawn uniformly
// from the stream and returns it — Rand without the allocation.
func (r *Ring) RandInto(dst Poly, s *prg.Stream) Poly {
	s.SampleInto(r.sampler, dst)
	return dst
}

// Sampler returns the precomputed coefficient sampler of F_q — for
// callers (the sharing scheme) that draw coefficients from the same
// stream layout as Rand.
func (r *Ring) Sampler() prg.Sampler { return r.sampler }

// DrawChunk is how many coefficients the streaming paths draw per
// prg.Stream.SampleInto call, into a stack buffer: a share over F_83 is
// two calls, and no polynomial is ever materialized.
const DrawChunk = 64

// EvalStream evaluates, at point v, the polynomial whose coefficients
// Rand would draw from s — WITHOUT materializing it: the coefficients
// stream straight from the PRG into an accumulator, with the power of v
// carried incrementally in the log domain. This is the client-share
// evaluation path: a containment check costs a PRG pass and zero
// allocations instead of a polynomial construction.
func (r *Ring) EvalStream(s *prg.Stream, v gf.Elem) gf.Elem {
	q := r.q32
	u := r.sampler
	if v == 0 {
		return s.Sample(u) // only c_0 · v^0 survives
	}
	t := r.f.Tables()
	lg, ex := t.Log, t.Exp
	logv := lg[v]
	var pw uint32 // log of v^i, updated incrementally mod N
	var acc gf.Elem
	var buf [DrawChunk]gf.Elem
	for i := 0; i < r.n; i += DrawChunk {
		cs := buf[:min(DrawChunk, r.n-i)]
		s.SampleInto(u, cs)
		for _, c := range cs {
			if c != 0 {
				if r.prime {
					acc += ex[lg[c]+pw]
					if acc >= q {
						acc -= q
					}
				} else {
					acc = r.f.Add(acc, ex[lg[c]+pw])
				}
			}
			pw += logv
			if pw >= t.N {
				pw -= t.N
			}
		}
	}
	return acc
}

// EvalStreamMany evaluates the stream-defined polynomial at every point
// in vs with a SINGLE pass over the PRG stream, writing results to out
// (len(out) ≥ len(vs)). The PRG work — the dominant cost of a client
// evaluation — is paid once however many points are asked of one node.
func (r *Ring) EvalStreamMany(s *prg.Stream, vs []gf.Elem, out []gf.Elem) {
	if len(vs) == 0 {
		return
	}
	if len(vs) == 1 {
		out[0] = r.EvalStream(s, vs[0])
		return
	}
	t := r.f.Tables()
	lg, ex := t.Log, t.Exp
	q := r.q32
	var logsArr, pwArr [8]uint32
	var logs, pw []uint32
	if len(vs) <= len(logsArr) {
		logs, pw = logsArr[:len(vs)], pwArr[:len(vs)]
	} else {
		logs, pw = make([]uint32, len(vs)), make([]uint32, len(vs))
	}
	for j, v := range vs {
		if v != 0 {
			logs[j] = lg[v]
		}
	}
	for j := range vs {
		out[j] = 0
	}
	prime := r.prime
	f := r.f
	u := r.sampler
	var buf [DrawChunk]gf.Elem
	for i0 := 0; i0 < r.n; i0 += DrawChunk {
		cs := buf[:min(DrawChunk, r.n-i0)]
		s.SampleInto(u, cs)
		for k, c := range cs {
			if c != 0 {
				lc := lg[c]
				for j, v := range vs {
					if v == 0 {
						if i0+k == 0 {
							out[j] = c
						}
						continue
					}
					if prime {
						acc := out[j] + ex[lc+pw[j]]
						if acc >= q {
							acc -= q
						}
						out[j] = acc
					} else {
						out[j] = f.Add(out[j], ex[lc+pw[j]])
					}
				}
			}
			for j, v := range vs {
				if v == 0 {
					continue
				}
				p := pw[j] + logs[j]
				if p >= t.N {
					p -= t.N
				}
				pw[j] = p
			}
		}
	}
}

// Bytes serializes p into exactly PolyBytes() bytes by radix-q packing
// (big-endian): the storage format matching the paper's
// (q−1)·log2(q)-bit cost accounting. Fixed width keeps rows uniform.
// The encoding runs on pooled limb vectors (see limb.go); AppendBytes
// is the allocation-free variant.
func (r *Ring) Bytes(p Poly) []byte {
	return r.AppendBytes(make([]byte, 0, r.polyBytes), p)
}

// FromBytes deserializes a polynomial previously produced by Bytes.
// DecodeInto is the variant that reuses a caller-supplied buffer.
func (r *Ring) FromBytes(b []byte) (Poly, error) {
	p := make(Poly, r.n)
	if err := r.DecodeInto(p, b); err != nil {
		return nil, err
	}
	return p, nil
}

// String renders p in conventional descending-degree notation, e.g.
// "2x^3 + 3x^2 + 2x + 3" (cf. the paper's Fig. 1).
func (r *Ring) String(p Poly) string {
	s := ""
	for i := r.n - 1; i >= 0; i-- {
		c := p[i]
		if c == 0 {
			continue
		}
		if s != "" {
			s += " + "
		}
		switch {
		case i == 0:
			s += fmt.Sprintf("%d", c)
		case i == 1:
			if c == 1 {
				s += "x"
			} else {
				s += fmt.Sprintf("%dx", c)
			}
		default:
			if c == 1 {
				s += fmt.Sprintf("x^%d", i)
			} else {
				s += fmt.Sprintf("%dx^%d", c, i)
			}
		}
	}
	if s == "" {
		return "0"
	}
	return s
}
