package ring

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"encshare/internal/gf"
	"encshare/internal/prg"
)

// codecRings covers prime and extension fields, small and at the chunk
// boundaries (q near powers of two stress the q^k ≤ 2^63 chunk choice;
// GF(2^7) has q^k = 2^63 exactly, a divisor that needs no normalising
// shift). q = 1627 (272 limbs, 5-digit chunks) and q = 6211 (1 223
// limbs, 4-digit chunks) run the limb division over long, shrinking
// spans; a q near 2^16 would make the big.Int oracle take seconds per
// blob.
func codecRings(t testing.TB) []*Ring {
	return []*Ring{
		MustNew(gf.MustNew(5, 1)),
		MustNew(gf.MustNew(29, 1)),
		MustNew(gf.MustNew(83, 1)),
		MustNew(gf.MustNew(251, 1)),
		MustNew(gf.MustNew(1627, 1)),
		MustNew(gf.MustNew(6211, 1)),
		MustNew(gf.MustNew(3, 2)),
		MustNew(gf.MustNew(5, 3)),
		MustNew(gf.MustNew(2, 7)),
		MustNew(gf.MustNew(2, 8)),
	}
}

// TestLimbCodecMatchesBigInt proves the limb codec is byte-for-byte the
// big.Int codec it replaced, across random, boundary, and adversarial
// inputs. The big.Int pair (BytesBig/FromBytesBig) is the retained
// oracle — its correctness is covered by the original round-trip tests.
func TestLimbCodecMatchesBigInt(t *testing.T) {
	for _, r := range codecRings(t) {
		name := r.Field().String()
		// Random polynomials drawn from the PRG, as the encoder produces.
		gen := prg.New([]byte("limb-codec"))
		polys := []Poly{
			r.NewPoly(), // all zero
			r.One(),
		}
		// All-max coefficients: the largest representable packed value.
		maxP := r.NewPoly()
		for i := range maxP {
			maxP[i] = r.Field().Q() - 1
		}
		polys = append(polys, maxP)
		// Rings past q ≈ 1000 get fewer cases: the big.Int oracle is
		// quadratic in N.
		cases := uint64(32)
		if r.N() > 1000 {
			cases = 4
		}
		for i := uint64(0); i < cases; i++ {
			polys = append(polys, r.Rand(gen.Stream("p", i)))
		}
		for pi, p := range polys {
			limb := r.Bytes(p)
			big := r.BytesBig(p)
			if !bytes.Equal(limb, big) {
				t.Fatalf("%s poly %d: limb encode differs from big.Int encode\nlimb %x\nbig  %x", name, pi, limb, big)
			}
			back, err := r.FromBytes(limb)
			if err != nil {
				t.Fatalf("%s poly %d: decode: %v", name, pi, err)
			}
			if !r.Equal(back, p) {
				t.Fatalf("%s poly %d: round-trip mismatch", name, pi)
			}
			bigBack, err := r.FromBytesBig(limb)
			if err != nil {
				t.Fatalf("%s poly %d: big decode: %v", name, pi, err)
			}
			if !r.Equal(bigBack, back) {
				t.Fatalf("%s poly %d: limb and big decode disagree", name, pi)
			}
		}
		// Adversarial blobs: random bytes must make BOTH decoders agree —
		// same polynomial or same rejection (the server is untrusted, so
		// the validation behavior is part of the protocol).
		rng := rand.New(rand.NewSource(99))
		for i := uint64(0); i < 2*cases; i++ {
			blob := make([]byte, r.PolyBytes())
			rng.Read(blob)
			if i%4 == 0 {
				// Bias toward the validity boundary: high bytes maxed.
				for j := 0; j < len(blob)/2; j++ {
					blob[j] = 0xFF
				}
			}
			lp, lerr := r.FromBytes(blob)
			bp, berr := r.FromBytesBig(blob)
			if (lerr == nil) != (berr == nil) {
				t.Fatalf("%s blob %d: limb err %v vs big err %v", name, i, lerr, berr)
			}
			if lerr == nil && !r.Equal(lp, bp) {
				t.Fatalf("%s blob %d: decoders disagree on valid blob", name, i)
			}
		}
		// q^n is the smallest out-of-range value: when it fits the
		// blob width, both decoders must reject it (and q^n + 1).
		qn := new(big.Int).Exp(big.NewInt(int64(r.Field().Q())), big.NewInt(int64(r.N())), nil)
		for d := int64(0); d <= 1; d++ {
			v := new(big.Int).Add(qn, big.NewInt(d))
			if (v.BitLen()+7)/8 > r.PolyBytes() {
				continue
			}
			blob := v.FillBytes(make([]byte, r.PolyBytes()))
			if _, err := r.FromBytes(blob); err == nil {
				t.Fatalf("%s: blob holding q^n + %d accepted", name, d)
			}
			if _, err := r.FromBytesBig(blob); err == nil {
				t.Fatalf("%s: big.Int decoder accepted a blob ≥ q^n", name)
			}
		}
		// Wrong-length blobs are rejected by both.
		if _, err := r.FromBytes(make([]byte, r.PolyBytes()+1)); err == nil {
			t.Fatalf("%s: oversized blob accepted", name)
		}
		if _, err := r.FromBytes(nil); err == nil && r.PolyBytes() != 0 {
			t.Fatalf("%s: empty blob accepted", name)
		}
	}
}

// TestDecodeIntoValidation covers the caller-buffer entry point's own
// checks.
func TestDecodeIntoValidation(t *testing.T) {
	r := MustNew(gf.MustNew(83, 1))
	blob := r.Bytes(r.One())
	if err := r.DecodeInto(make(Poly, r.N()-1), blob); err == nil {
		t.Fatal("short destination accepted")
	}
	if err := r.DecodeInto(r.NewPoly(), blob[:len(blob)-1]); err == nil {
		t.Fatal("short blob accepted")
	}
	dst := r.NewPoly()
	if err := r.DecodeInto(dst, blob); err != nil {
		t.Fatal(err)
	}
	if !r.Equal(dst, r.One()) {
		t.Fatal("DecodeInto produced wrong polynomial")
	}
}

// TestAppendBytesAppends checks AppendBytes composes with existing
// content and matches Bytes.
func TestAppendBytesAppends(t *testing.T) {
	r := MustNew(gf.MustNew(83, 1))
	p := r.Rand(prg.New([]byte("append")).Stream("p", 0))
	prefix := []byte{0xAA, 0xBB}
	out := r.AppendBytes(append([]byte(nil), prefix...), p)
	if !bytes.Equal(out[:2], prefix) {
		t.Fatal("AppendBytes clobbered the prefix")
	}
	if !bytes.Equal(out[2:], r.Bytes(p)) {
		t.Fatal("AppendBytes payload differs from Bytes")
	}
}

// TestCodecZeroAlloc pins the allocation-free property of the hot
// codec path — the headline claim of the limb rewrite.
func TestCodecZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are meaningless")
	}
	r := MustNew(gf.MustNew(83, 1))
	p := r.Rand(prg.New([]byte("alloc")).Stream("p", 0))
	blob := r.Bytes(p)
	buf := make([]byte, 0, r.PolyBytes())
	dst := r.NewPoly()
	// Warm the limb pool first.
	_ = r.AppendBytes(buf[:0], p)
	if avg := testing.AllocsPerRun(200, func() {
		buf = r.AppendBytes(buf[:0], p)
		if err := r.DecodeInto(dst, blob); err != nil {
			t.Fatal(err)
		}
	}); avg > 0 {
		t.Fatalf("codec round-trip allocates %.1f objects/op, want 0", avg)
	}
}

// TestPolyPool checks the pooled buffers come back zeroed and reject
// foreign lengths.
func TestPolyPool(t *testing.T) {
	r := MustNew(gf.MustNew(5, 1))
	p := r.GetPoly()
	for i := range p {
		p[i] = 3
	}
	r.PutPoly(p)
	q := r.GetPoly()
	if !r.IsZero(q) {
		t.Fatal("pooled poly not zeroed")
	}
	r.PutPoly(make(Poly, r.N()+1)) // must be dropped, not corrupt the pool
	if got := r.GetPoly(); len(got) != r.N() {
		t.Fatalf("pool returned poly of length %d", len(got))
	}
	if !raceEnabled {
		// The Get/Put round trip must be allocation-free in steady state
		// (the wrapper boxes recycle; see polyBox).
		warm := r.GetPoly()
		r.PutPoly(warm)
		if avg := testing.AllocsPerRun(200, func() {
			p := r.GetPoly()
			r.PutPoly(p)
		}); avg > 0 {
			t.Fatalf("GetPoly/PutPoly allocates %.2f objects/op, want 0", avg)
		}
	}
}

// FuzzPolyCodec fuzzes the decoder pair: any blob must either be
// rejected by both decoders or produce identical polynomials, and a
// valid decode must re-encode to the original blob (the packing is a
// bijection on its range).
func FuzzPolyCodec(f *testing.F) {
	r := MustNew(gf.MustNew(83, 1))
	f.Add(r.Bytes(r.One()))
	f.Add(r.Bytes(r.Rand(prg.New([]byte("fuzz")).Stream("p", 0))))
	f.Add(make([]byte, r.PolyBytes()))
	f.Add(bytes.Repeat([]byte{0xFF}, r.PolyBytes()))
	f.Fuzz(func(t *testing.T, blob []byte) {
		lp, lerr := r.FromBytes(blob)
		bp, berr := r.FromBytesBig(blob)
		if (lerr == nil) != (berr == nil) {
			t.Fatalf("decoders disagree on validity: limb %v, big %v", lerr, berr)
		}
		if lerr != nil {
			return
		}
		if !r.Equal(lp, bp) {
			t.Fatal("decoders disagree on polynomial")
		}
		if !bytes.Equal(r.Bytes(lp), blob) {
			t.Fatal("re-encode does not reproduce the blob")
		}
	})
}

// BytesBig is the original big.Int radix-q encoder, byte-for-byte
// identical to Bytes, retained as the property-test oracle.
func (r *Ring) BytesBig(p Poly) []byte {
	q := big.NewInt(int64(r.q32))
	acc := new(big.Int)
	tmp := new(big.Int)
	for i := r.n - 1; i >= 0; i-- {
		acc.Mul(acc, q)
		tmp.SetUint64(uint64(p[i]))
		acc.Add(acc, tmp)
	}
	out := make([]byte, r.polyBytes)
	acc.FillBytes(out)
	return out
}

// FromBytesBig is the original big.Int decoder matching BytesBig,
// retained as the property-test oracle.
func (r *Ring) FromBytesBig(b []byte) (Poly, error) {
	if len(b) != r.polyBytes {
		return nil, fmt.Errorf("ring: polynomial blob is %d bytes, want %d", len(b), r.polyBytes)
	}
	q := big.NewInt(int64(r.q32))
	acc := new(big.Int).SetBytes(b)
	mod := new(big.Int)
	p := make(Poly, r.n)
	for i := 0; i < r.n; i++ {
		acc.DivMod(acc, q, mod)
		v := mod.Uint64()
		p[i] = gf.Elem(v)
	}
	if acc.Sign() != 0 {
		return nil, fmt.Errorf("ring: polynomial blob out of range")
	}
	return p, nil
}
