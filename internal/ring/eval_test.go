package ring

import (
	"testing"

	"encshare/internal/gf"
	"encshare/internal/prg"
)

// evalOracle is Horner's rule through the generic field arithmetic —
// the pre-table evaluation the fast paths must reproduce.
func evalOracle(r *Ring, p Poly, v gf.Elem) gf.Elem {
	f := r.Field()
	acc := gf.Elem(0)
	for i := r.N() - 1; i >= 0; i-- {
		acc = f.Add(f.MulGeneric(acc, v), p[i])
	}
	return acc
}

func allPoints(r *Ring) []gf.Elem {
	vs := make([]gf.Elem, 0, r.Field().Q())
	for v := gf.Elem(0); v < r.Field().Q(); v++ {
		vs = append(vs, v)
	}
	return vs
}

// TestEvalMatchesOracle checks the table-hoisted Horner loop against the
// generic oracle at every point of every test ring.
func TestEvalMatchesOracle(t *testing.T) {
	gen := prg.New([]byte("eval-oracle"))
	for _, r := range testRings(t) {
		for pi := uint64(0); pi < 8; pi++ {
			p := r.Rand(gen.Stream(r.Field().String(), pi))
			for _, v := range allPoints(r) {
				if got, want := r.Eval(p, v), evalOracle(r, p, v); got != want {
					t.Fatalf("%v: Eval(p, %d) = %d, oracle %d", r.Field(), v, got, want)
				}
			}
		}
		// Degenerate polynomials.
		for _, p := range []Poly{r.NewPoly(), r.One(), r.Linear(1)} {
			for _, v := range []gf.Elem{0, 1, r.Field().Q() - 1} {
				if got, want := r.Eval(p, v), evalOracle(r, p, v); got != want {
					t.Fatalf("%v: degenerate Eval at %d: %d vs %d", r.Field(), v, got, want)
				}
			}
		}
	}
}

// TestEvalBatchEvalMany checks the batch entry points agree with
// scalar Eval element-for-element.
func TestEvalBatchEvalMany(t *testing.T) {
	gen := prg.New([]byte("eval-batch"))
	for _, r := range testRings(t) {
		polys := make([]Poly, 17)
		for i := range polys {
			polys[i] = r.Rand(gen.Stream(r.Field().String(), uint64(i)))
		}
		vs := allPoints(r)
		for _, v := range []gf.Elem{0, 1, 2, r.Field().Q() - 1} {
			got := r.EvalBatch(polys, v)
			for i, p := range polys {
				if want := r.Eval(p, v); got[i] != want {
					t.Fatalf("%v: EvalBatch[%d] at %d = %d, want %d", r.Field(), i, v, got[i], want)
				}
			}
		}
		for _, p := range polys[:3] {
			got := r.EvalMany(p, vs)
			for i, v := range vs {
				if want := r.Eval(p, v); got[i] != want {
					t.Fatalf("%v: EvalMany at %d = %d, want %d", r.Field(), v, got[i], want)
				}
			}
			// Small point sets exercise the stack-scratch path; the
			// single-point case exercises its dedicated fast path.
			for k := 1; k <= 3; k++ {
				sub := vs[:k]
				got := r.EvalMany(p, sub)
				for i, v := range sub {
					if want := r.Eval(p, v); got[i] != want {
						t.Fatalf("%v: EvalMany(k=%d) at %d mismatch", r.Field(), k, v)
					}
				}
			}
		}
	}
}

// TestEvalBatchLockstepIdentity pins the four-wide lockstep batch path
// to the sequential one: for every batch size around the chunk width
// (covering empty, partial-tail, and multi-chunk batches) and every
// point of the field, EvalBatchInto must produce exactly the values a
// plain per-polynomial loop produces — including on all-zero and sparse
// polynomials, whose skipped coefficients are where a lockstep rewrite
// would drift first.
func TestEvalBatchLockstepIdentity(t *testing.T) {
	gen := prg.New([]byte("eval-lockstep"))
	for _, r := range testRings(t) {
		polys := make([]Poly, 11)
		for i := range polys {
			polys[i] = r.Rand(gen.Stream(r.Field().String(), uint64(i)))
		}
		polys[2] = r.NewPoly() // all zero
		polys[5] = r.One()
		sparse := r.NewPoly() // lone high-degree term
		sparse[r.N()-1] = 1
		polys[7] = sparse
		for size := 0; size <= len(polys); size++ {
			batch := polys[:size]
			for _, v := range allPoints(r) {
				got := make([]gf.Elem, size)
				r.EvalBatchInto(got, batch, v)
				for i, p := range batch {
					if want := r.Eval(p, v); got[i] != want {
						t.Fatalf("%v: lockstep batch size %d, poly %d, point %d: got %d, sequential %d",
							r.Field(), size, i, v, got[i], want)
					}
				}
			}
		}
	}
}

// TestEvalStreamMatchesRand proves the streaming evaluation equals
// materializing the polynomial with Rand from the same stream and
// evaluating it — the client-share equivalence the filter relies on.
func TestEvalStreamMatchesRand(t *testing.T) {
	gen := prg.New([]byte("eval-stream"))
	for _, r := range testRings(t) {
		for i := uint64(0); i < 6; i++ {
			for _, v := range []gf.Elem{0, 1, 2, r.Field().Q() - 1} {
				p := r.Rand(gen.Stream("s", i))
				want := r.Eval(p, v)
				got := r.EvalStream(gen.Stream("s", i), v)
				if got != want {
					t.Fatalf("%v: EvalStream at %d = %d, want %d", r.Field(), v, got, want)
				}
			}
		}
	}
}

// TestEvalStreamManyMatchesScalar proves the single-pass multi-point
// stream evaluation equals per-point streaming, including zero points
// mixed in and point sets beyond the stack-scratch bound.
func TestEvalStreamManyMatchesScalar(t *testing.T) {
	gen := prg.New([]byte("eval-stream-many"))
	for _, r := range testRings(t) {
		q := r.Field().Q()
		pointSets := [][]gf.Elem{
			{1},
			{0},
			{2 % q, 0, 1, q - 1},
			allPoints(r)[:min(12, int(q))], // exceeds the 8-wide stack scratch
		}
		for i := uint64(0); i < 4; i++ {
			for _, vs := range pointSets {
				out := make([]gf.Elem, len(vs))
				r.EvalStreamMany(gen.Stream("m", i), vs, out)
				for j, v := range vs {
					want := r.EvalStream(gen.Stream("m", i), v)
					if out[j] != want {
						t.Fatalf("%v: EvalStreamMany[%d] at %d = %d, want %d", r.Field(), j, v, out[j], want)
					}
				}
			}
		}
	}
}

// mulOracle is the generic cyclic convolution through MulGeneric, the
// table-free product the fast paths must reproduce.
func mulOracle(r *Ring, a, b Poly) Poly {
	f := r.Field()
	out := r.NewPoly()
	for i := 0; i < r.N(); i++ {
		for j := 0; j < r.N(); j++ {
			k := (i + j) % r.N()
			out[k] = f.Add(out[k], f.MulGeneric(a[i], b[j]))
		}
	}
	return out
}

// sparseOperands are the factors the strict test and the encoder
// actually multiply by: zero, monomials x^k, x − t, and a leaf x − t
// rebuilt from its two shares through the codec, as the client does.
func sparseOperands(r *Ring, gen *prg.Generator) []Poly {
	n := r.N()
	t := (r.Field().Q() - 1) / 2
	mono := func(k int) Poly {
		p := r.NewPoly()
		p[k] = 1
		return p
	}
	client := r.Rand(gen.Stream("client", 0))
	server, err := r.FromBytes(r.Bytes(r.Sub(r.Linear(t), client)))
	if err != nil {
		panic(err)
	}
	return []Poly{r.NewPoly(), r.One(), mono(1), mono(n / 2), mono(n - 1), r.Linear(t), r.Linear(1), r.Add(server, client)}
}

// TestMulIntoMatchesMul checks the Into variants against their
// allocating twins and the generic convolution oracle, on dense
// operands and on sparse ones in both orders.
func TestMulIntoMatchesMul(t *testing.T) {
	gen := prg.New([]byte("mulinto"))
	for _, r := range testRings(t) {
		f := r.Field()
		for i := uint64(0); i < 4; i++ {
			a := r.Rand(gen.Stream("a", i))
			b := r.Rand(gen.Stream("b", i))
			want := mulOracle(r, a, b)
			if !r.Equal(r.Mul(a, b), want) {
				t.Fatalf("%v: Mul differs from generic convolution", f)
			}
			dst := r.GetPoly()
			if !r.Equal(r.MulInto(dst, a, b), want) {
				t.Fatalf("%v: MulInto differs from generic convolution", f)
			}
			r.PutPoly(dst)
			tval := gf.Elem(i+1) % f.Q()
			lin := r.MulLinear(a, tval)
			dst2 := r.GetPoly()
			if !r.Equal(r.MulLinearInto(dst2, a, tval), lin) {
				t.Fatalf("%v: MulLinearInto differs from MulLinear", f)
			}
			if !r.Equal(lin, r.Mul(a, r.Linear(tval))) {
				t.Fatalf("%v: MulLinear differs from Mul by linear factor", f)
			}
			r.PutPoly(dst2)
		}
		dense := r.Rand(gen.Stream("dense", 0))
		sparse := sparseOperands(r, gen)
		for si, s := range sparse {
			for _, other := range append([]Poly{dense}, sparse...) {
				want := mulOracle(r, s, other)
				// Stale garbage in dst must not leak into the product.
				dst := r.Rand(gen.Stream("dst", uint64(si)))
				if !r.Equal(r.MulInto(dst, s, other), want) {
					t.Fatalf("%v: MulInto(sparse %d, ·) differs from generic convolution", f, si)
				}
				dst = r.Rand(gen.Stream("dst", uint64(si)))
				if !r.Equal(r.MulInto(dst, other, s), want) {
					t.Fatalf("%v: MulInto(·, sparse %d) differs from generic convolution", f, si)
				}
			}
		}
	}
}

// TestMulIntoAccumulatorBoundary multiplies all-(q−1) operands, whose
// every unreduced product coefficient is the largest possible,
// n·(q−1)², on the rings either side of the 32-bit limit: q = 1621 is
// the largest prime with (q−1)³ < 2^32, q = 1627 the smallest above it,
// where an accumulator narrower than 64 bits would wrap.
func TestMulIntoAccumulatorBoundary(t *testing.T) {
	gen := prg.New([]byte("mul-boundary"))
	for _, q := range []uint32{1621, 1627} {
		r := MustNew(gf.MustNew(q, 1))
		top := r.NewPoly()
		for i := range top {
			top[i] = q - 1
		}
		dense := r.Rand(gen.Stream("dense", uint64(q)))
		for _, pair := range [][2]Poly{{top, top}, {top, dense}, {dense, r.Linear(q - 1)}} {
			want := mulOracle(r, pair[0], pair[1])
			if got := r.Mul(pair[0], pair[1]); !r.Equal(got, want) {
				t.Fatalf("q=%d: MulInto differs from generic convolution", q)
			}
			if got := r.Mul(pair[1], pair[0]); !r.Equal(got, want) {
				t.Fatalf("q=%d: MulInto (swapped) differs from generic convolution", q)
			}
		}
	}
}
