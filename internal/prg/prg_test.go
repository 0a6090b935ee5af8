package prg

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	g1 := New([]byte("seed"))
	g2 := New([]byte("seed"))
	s1, s2 := g1.Stream("poly", 42), g2.Stream("poly", 42)
	b1, b2 := make([]byte, 1024), make([]byte, 1024)
	s1.Read(b1)
	s2.Read(b2)
	if !bytes.Equal(b1, b2) {
		t.Fatal("same (seed, domain, index) produced different streams")
	}
}

func TestSeedSeparation(t *testing.T) {
	a := New([]byte("seed-a")).Stream("poly", 1)
	b := New([]byte("seed-b")).Stream("poly", 1)
	ba, bb := make([]byte, 64), make([]byte, 64)
	a.Read(ba)
	b.Read(bb)
	if bytes.Equal(ba, bb) {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestDomainAndIndexSeparation(t *testing.T) {
	g := New([]byte("seed"))
	streams := []*Stream{
		g.Stream("poly", 1),
		g.Stream("poly", 2),
		g.Stream("other", 1),
		g.Stream("pol", 1), // prefix of "poly": length framing must separate
		g.Stream("", 1),
	}
	outs := make([][]byte, len(streams))
	for i, s := range streams {
		outs[i] = make([]byte, 64)
		s.Read(outs[i])
	}
	for i := range outs {
		for j := i + 1; j < len(outs); j++ {
			if bytes.Equal(outs[i], outs[j]) {
				t.Errorf("streams %d and %d are identical", i, j)
			}
		}
	}
}

func TestReadChunkingInvariance(t *testing.T) {
	// Reading 100 bytes at once must equal reading them in odd-sized chunks.
	one := make([]byte, 100)
	New([]byte("x")).Stream("d", 7).Read(one)
	s := New([]byte("x")).Stream("d", 7)
	var parts []byte
	for _, n := range []int{1, 3, 32, 31, 33} {
		p := make([]byte, n)
		s.Read(p)
		parts = append(parts, p...)
	}
	if !bytes.Equal(one, parts) {
		t.Fatal("chunked reads diverge from bulk read")
	}
}

func TestUniformBounds(t *testing.T) {
	s := New([]byte("u")).Stream("d", 0)
	for _, m := range []uint32{1, 2, 3, 5, 83, 1 << 16, math.MaxUint32} {
		for i := 0; i < 200; i++ {
			if v := s.Uniform(m); v >= m {
				t.Fatalf("Uniform(%d) = %d out of range", m, v)
			}
		}
	}
}

func TestUniformZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uniform(0) did not panic")
		}
	}()
	New(nil).Stream("d", 0).Uniform(0)
}

// TestUniformDistribution sanity-checks flatness with a chi-squared-ish
// tolerance: all buckets of Uniform(83) within 3x the expected sqrt band.
func TestUniformDistribution(t *testing.T) {
	const m, n = 83, 83 * 600
	s := New([]byte("dist")).Stream("d", 9)
	counts := make([]int, m)
	for i := 0; i < n; i++ {
		counts[s.Uniform(m)]++
	}
	expected := float64(n) / m
	band := 5 * math.Sqrt(expected)
	for v, c := range counts {
		if math.Abs(float64(c)-expected) > band {
			t.Errorf("bucket %d: count %d, expected %.1f +/- %.1f", v, c, expected, band)
		}
	}
}

func TestNewRandomDistinct(t *testing.T) {
	g1, seed1, err := NewRandom()
	if err != nil {
		t.Fatal(err)
	}
	g2, seed2, err := NewRandom()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(seed1, seed2) {
		t.Fatal("two random seeds are equal")
	}
	if len(seed1) != SeedSize {
		t.Fatalf("seed size %d, want %d", len(seed1), SeedSize)
	}
	// Regenerating from the returned seed reproduces the stream.
	b1, b2 := make([]byte, 64), make([]byte, 64)
	g1.Stream("poly", 3).Read(b1)
	New(seed1).Stream("poly", 3).Read(b2)
	if !bytes.Equal(b1, b2) {
		t.Fatal("seed round-trip failed")
	}
	_ = g2
}

func TestQuickIndexSeparation(t *testing.T) {
	g := New([]byte("q"))
	err := quick.Check(func(i, j uint64) bool {
		if i == j {
			return true
		}
		a, b := make([]byte, 32), make([]byte, 32)
		g.Stream("poly", i).Read(a)
		g.Stream("poly", j).Read(b)
		return !bytes.Equal(a, b)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func BenchmarkStreamRead(b *testing.B) {
	s := New([]byte("bench")).Stream("poly", 1)
	buf := make([]byte, 82) // one F_83 polynomial's worth of coefficients
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		s.Read(buf)
	}
}

func BenchmarkUniform83(b *testing.B) {
	s := New([]byte("bench")).Stream("poly", 1)
	for i := 0; i < b.N; i++ {
		_ = s.Uniform(83)
	}
}

// TestStreamMatchesReferenceConstruction pins the wire-format identity
// of the optimized stream: key = sha256(seed || len(domain) || domain ||
// index) and block i = sha256(key || i), computed here with the plain
// hash.Hash construction the package originally used. The seed file of
// an encoded database depends on this byte layout never changing.
func TestStreamMatchesReferenceConstruction(t *testing.T) {
	seed := []byte("reference-seed")
	g := New(seed)
	for _, domain := range []string{"", "poly", "encshare/client-poly/v1", strings.Repeat("long-domain/", 20)} {
		for _, index := range []uint64{0, 1, 7, 1 << 40} {
			// Reference: hash.Hash step by step.
			kh := sha256.New()
			kh.Write(sha256Sum(seed))
			var lenbuf [8]byte
			binary.BigEndian.PutUint64(lenbuf[:], uint64(len(domain)))
			kh.Write(lenbuf[:])
			kh.Write([]byte(domain))
			binary.BigEndian.PutUint64(lenbuf[:], index)
			kh.Write(lenbuf[:])
			key := kh.Sum(nil)

			want := make([]byte, 0, 96)
			for ctr := uint64(0); ctr < 3; ctr++ {
				bh := sha256.New()
				bh.Write(key)
				var ctrbuf [8]byte
				binary.BigEndian.PutUint64(ctrbuf[:], ctr)
				bh.Write(ctrbuf[:])
				want = bh.Sum(want)
			}

			got := make([]byte, 96)
			g.Stream(domain, index).Read(got)
			if !bytes.Equal(got, want) {
				t.Fatalf("stream bytes diverged from reference for domain %q index %d", domain, index)
			}
		}
	}
}

// TestUint32MatchesRead checks the aligned Uint32 fast path consumes
// exactly the bytes Read would, including when interleaved with
// unaligned byte reads.
func TestUint32MatchesRead(t *testing.T) {
	g := New([]byte("u32"))
	a := g.Stream("d", 1)
	b := g.Stream("d", 1)
	for i := 0; i < 64; i++ {
		var buf [4]byte
		b.Read(buf[:])
		if got, want := a.Uint32(), binary.BigEndian.Uint32(buf[:]); got != want {
			t.Fatalf("Uint32 #%d = %#x, Read gives %#x", i, got, want)
		}
	}
	// Knock both cursors out of alignment and compare again.
	var one [1]byte
	a.Read(one[:])
	b.Read(one[:])
	for i := 0; i < 64; i++ {
		var buf [4]byte
		b.Read(buf[:])
		if got, want := a.Uint32(), binary.BigEndian.Uint32(buf[:]); got != want {
			t.Fatalf("unaligned Uint32 #%d = %#x, Read gives %#x", i, got, want)
		}
	}
}

func sha256Sum(b []byte) []byte {
	s := sha256.Sum256(b)
	return s[:]
}

// TestSamplerMatchesUniform proves Sample is byte- and value-identical
// to Uniform for every modulus above 256, where the sampler keeps the
// 32-bit draw: powers of two and near-2^32 values that stress the
// rejection limit included.
func TestSamplerMatchesUniform(t *testing.T) {
	g := New([]byte("sampler"))
	moduli := []uint32{257, 512, 1021, 1 << 16, 1 << 20, math.MaxUint32, math.MaxUint32 - 1, 1<<31 + 1}
	for _, m := range moduli {
		u := NewSampler(m)
		if u.M() != m {
			t.Fatalf("M() = %d, want %d", u.M(), m)
		}
		a := g.Stream("s", uint64(m))
		b := g.Stream("s", uint64(m))
		for i := 0; i < 4096; i++ {
			got, want := a.Sample(u), b.Uniform(m)
			if got != want {
				t.Fatalf("m=%d draw %d: Sample %d != Uniform %d", m, i, got, want)
			}
		}
		assertSameCursor(t, a, b, m)
	}
}

// smallModuli are the one-byte-draw moduli the tests cover: the edges
// (1, 2, 255, 256), a prime with a large rejection zone (3), the scheme's
// default q = 83 and the extension field GF(3^5).
var smallModuli = []uint32{1, 2, 3, 83, 243, 255, 256}

// refSampleByte is the plain definition of a one-byte draw: read a
// byte, reject it unless it is below 256 − 256 mod m, reduce mod m.
func refSampleByte(r io.Reader, m uint32) uint32 {
	limit := 256 - 256%m
	var b [1]byte
	for {
		r.Read(b[:])
		if v := uint32(b[0]); v < limit {
			return v % m
		}
	}
}

// TestSamplerMatchesByteReference pins the one-byte draw for m ≤ 256:
// Sample and SampleInto return exactly refSampleByte's values and leave
// the cursor on the same stream byte.
func TestSamplerMatchesByteReference(t *testing.T) {
	g := New([]byte("sampler"))
	for _, m := range smallModuli {
		u := NewSampler(m)
		a := g.Stream("s", uint64(m))
		b := g.Stream("s", uint64(m))
		for i := 0; i < 4096; i++ {
			if got, want := a.Sample(u), refSampleByte(b, m); got != want {
				t.Fatalf("m=%d draw %d: Sample %d != reference %d", m, i, got, want)
			}
		}
		assertSameCursor(t, a, b, m)

		c := g.Stream("s", uint64(m))
		d := g.Stream("s", uint64(m))
		got := make([]uint32, 1000)
		c.SampleInto(u, got)
		for i, v := range got {
			if want := refSampleByte(d, m); v != want {
				t.Fatalf("m=%d SampleInto[%d] = %d, reference %d", m, i, v, want)
			}
		}
		assertSameCursor(t, c, d, m)
	}
}

// TestSampleIntoMatchesSample checks the bulk draw against repeated
// Sample calls in chunks of awkward sizes, from a cursor knocked off
// block and word alignment, on both draw widths.
func TestSampleIntoMatchesSample(t *testing.T) {
	g := New([]byte("sample-into"))
	for _, m := range append(smallModuli, 1021, 1<<20, math.MaxUint32) {
		u := NewSampler(m)
		a := g.Stream("s", uint64(m))
		b := g.Stream("s", uint64(m))
		var skip [3]byte
		a.Read(skip[:])
		b.Read(skip[:])
		for _, n := range []int{0, 1, 31, 32, 33, 64, 82, 242} {
			got := make([]uint32, n)
			a.SampleInto(u, got)
			for i, v := range got {
				if want := b.Sample(u); v != want {
					t.Fatalf("m=%d chunk %d [%d]: SampleInto %d != Sample %d", m, n, i, v, want)
				}
			}
		}
		assertSameCursor(t, a, b, m)
	}
}

// assertSameCursor fails unless a and b produce the same next bytes,
// i.e. the draws before consumed the same number of stream bytes.
func assertSameCursor(t *testing.T, a, b *Stream, m uint32) {
	t.Helper()
	na, nb := make([]byte, 40), make([]byte, 40)
	a.Read(na)
	b.Read(nb)
	if !bytes.Equal(na, nb) {
		t.Fatalf("m=%d: streams consumed different byte counts", m)
	}
}

// chiSquared returns Pearson's statistic of counts against the uniform
// distribution over len(counts) values.
func chiSquared(counts []int, n int) float64 {
	expected := float64(n) / float64(len(counts))
	var x float64
	for _, c := range counts {
		d := float64(c) - expected
		x += d * d / expected
	}
	return x
}

// chiBound is a generous acceptance bound for df degrees of freedom:
// mean plus six standard deviations of the χ² distribution.
func chiBound(df int) float64 {
	return float64(df) + 6*math.Sqrt(2*float64(df)) + 10
}

// TestSampleChiSquared checks Sample's output is flat on every one-byte
// modulus, and that the statistic would catch the bias a reduction
// without rejection (byte % m) introduces. That control is skipped where
// m divides 256 (no bias) and for m = 3, whose bias (86 vs 85 of 256)
// this many draws cannot resolve.
func TestSampleChiSquared(t *testing.T) {
	for _, m := range smallModuli {
		if m == 1 {
			continue // one bucket: nothing to test
		}
		n := int(m) * 2000
		s := New([]byte("chi2")).Stream("d", uint64(m))
		u := NewSampler(m)
		counts := make([]int, m)
		for i := 0; i < n; i++ {
			counts[s.Sample(u)]++
		}
		if x, bound := chiSquared(counts, n), chiBound(int(m)-1); x > bound {
			t.Errorf("m=%d: χ² = %.1f over %d draws, bound %.1f", m, x, n, bound)
		}
		if 256%m == 0 || m == 3 {
			continue
		}
		biased := make([]int, m)
		var b [1]byte
		for i := 0; i < n; i++ {
			s.Read(b[:])
			biased[uint32(b[0])%m]++
		}
		if x, bound := chiSquared(biased, n), chiBound(int(m)-1); x <= bound {
			t.Errorf("m=%d: byte %% m passed with χ² = %.1f (bound %.1f): the check has no power", m, x, bound)
		}
	}
}

// TestShareStreamMatchesReferenceConstruction pins the keyed-domain
// stream the client shares draw from, rebuilt step by step with
// hash.Hash: domainKey = sha256(sha256(seed) ‖ len(domain) ‖ domain),
// key = sha256(domainKey ‖ index), block i = sha256(key ‖ i). Every
// encoded table depends on this layout.
func TestShareStreamMatchesReferenceConstruction(t *testing.T) {
	seed := []byte("reference-seed")
	g := New(seed)
	for _, domain := range []string{"", "poly", "encshare/client-poly/v2", strings.Repeat("long-domain/", 20)} {
		dh := sha256.New()
		dh.Write(sha256Sum(seed))
		var lenbuf [8]byte
		binary.BigEndian.PutUint64(lenbuf[:], uint64(len(domain)))
		dh.Write(lenbuf[:])
		dh.Write([]byte(domain))
		domainKey := dh.Sum(nil)

		dk := g.DomainKey(domain)
		for _, index := range []uint64{0, 1, 7, 1 << 40} {
			kh := sha256.New()
			kh.Write(domainKey)
			binary.BigEndian.PutUint64(lenbuf[:], index)
			kh.Write(lenbuf[:])
			key := kh.Sum(nil)

			want := make([]byte, 0, 96)
			for ctr := uint64(0); ctr < 3; ctr++ {
				bh := sha256.New()
				bh.Write(key)
				var ctrbuf [8]byte
				binary.BigEndian.PutUint64(ctrbuf[:], ctr)
				bh.Write(ctrbuf[:])
				want = bh.Sum(want)
			}

			var s Stream
			dk.StreamInto(&s, index)
			got := make([]byte, 96)
			s.Read(got)
			if !bytes.Equal(got, want) {
				t.Fatalf("share stream diverged from reference for domain %q index %d", domain, index)
			}
			generic := make([]byte, 96)
			g.Stream(domain, index).Read(generic)
			if bytes.Equal(got, generic) {
				t.Fatalf("domain %q index %d: keyed-domain and generic streams coincide", domain, index)
			}
		}
	}
}

func TestNewSamplerZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSampler(0) did not panic")
		}
	}()
	NewSampler(0)
}
