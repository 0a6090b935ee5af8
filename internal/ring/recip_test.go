package ring

import (
	"math/big"
	"math/rand"
	"testing"

	"encshare/internal/gf"
)

// TestRecipQExhaustive checks the reciprocal reduction against the
// hardware divide on every value a product coefficient can reach,
// [0, n·(q−1)²], for every prime q ≤ 251.
func TestRecipQExhaustive(t *testing.T) {
	for q := uint64(3); q <= 251; q++ {
		if _, err := gf.New(uint32(q), 1); err != nil {
			continue // not prime
		}
		d := newRecipQ(q)
		top := (q - 1) * (q - 1) * (q - 1)
		for x := uint64(0); x <= top; x++ {
			if quo, rem := d.divmod(x); quo != x/q || rem != x%q {
				t.Fatalf("q=%d x=%d: divmod = (%d, %d), want (%d, %d)", q, x, quo, rem, x/q, x%q)
			}
		}
	}
}

// TestRecipQBoundaries checks the reciprocal reduction for larger
// divisors — field orders up to gf.MaxQ and the extension orders the
// codec divides by — at the edges of its range: around multiples of q,
// around the largest product sum n·(q−1)², and just below 2^63, plus
// random values.
func TestRecipQBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, q := range []uint64{2, 4, 8, 9, 125, 128, 256, 1021, 1024, 1621, 1627, 6211, 65521, 65536, 1048573, gf.MaxQ} {
		d := newRecipQ(q)
		check := func(x uint64) {
			if x >= 1<<63 {
				return // outside the documented range
			}
			if quo, rem := d.divmod(x); quo != x/q || rem != x%q {
				t.Fatalf("q=%d x=%d: divmod = (%d, %d), want (%d, %d)", q, x, quo, rem, x/q, x%q)
			}
		}
		sum := (q - 1) * (q - 1) * (q - 1)
		for _, base := range []uint64{0, q, 1000 * q, sum / q * q, sum, (1<<63 - 1) / q * q} {
			for dx := uint64(0); dx < 2*q && dx < 4096; dx++ {
				check(base + dx)
				if base >= dx {
					check(base - dx)
				}
			}
		}
		for i := 0; i < 4096; i++ {
			check(1<<63 - 1 - uint64(i))
			check(rng.Uint64() >> 1)
			check(rng.Uint64() >> uint(1+rng.Intn(63)))
		}
	}
}

// TestLimbDivisor checks the limb-vector division against big.Int on
// the chunk radices of the codec rings — including q^k = 2^63 (GF(2^7)),
// where the divisor needs no normalising shift — and on random and
// all-ones dividends of every length up to 12 limbs.
func TestLimbDivisor(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	divs := []uint64{3, 1 << 63, 1<<63 + 1, ^uint64(0) >> 1, ^uint64(0)}
	for _, r := range codecRings(t) {
		divs = append(divs, r.qpow[r.chunk])
	}
	for _, div := range divs {
		dv := newLimbDivisor(div)
		bd := new(big.Int).SetUint64(div)
		for n := 0; n <= 12; n++ {
			for trial := 0; trial < 50; trial++ {
				a := make([]uint64, n)
				for i := range a {
					a[i] = rng.Uint64()
					if trial == 0 {
						a[i] = ^uint64(0)
					}
				}
				want, wantRem := new(big.Int).QuoRem(limbsToBig(a), bd, new(big.Int))
				rem := dv.divmod(a)
				if limbsToBig(a).Cmp(want) != 0 || rem != wantRem.Uint64() {
					t.Fatalf("div %d, %d limbs, trial %d: quotient or remainder %d differs from big.Int (%d)", div, n, trial, rem, wantRem.Uint64())
				}
			}
		}
	}
}

func limbsToBig(a []uint64) *big.Int {
	v := new(big.Int)
	for i := len(a) - 1; i >= 0; i-- {
		v.Lsh(v, 64)
		v.Or(v, new(big.Int).SetUint64(a[i]))
	}
	return v
}
