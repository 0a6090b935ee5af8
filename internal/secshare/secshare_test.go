package secshare

import (
	"testing"

	"encshare/internal/gf"
	"encshare/internal/prg"
	"encshare/internal/ring"
)

func newScheme(t testing.TB, seed string) *Scheme {
	t.Helper()
	r := ring.MustNew(gf.MustNew(83, 1))
	return New(r, prg.New([]byte(seed)))
}

func TestSplitReconstructRoundTrip(t *testing.T) {
	s := newScheme(t, "seed")
	gen := prg.New([]byte("data")).Stream("f", 0)
	for pre := uint64(1); pre <= 50; pre++ {
		f := s.Ring().Rand(gen)
		server := s.Split(f, pre)
		got := s.Reconstruct(server, pre)
		if !s.Ring().Equal(f, got) {
			t.Fatalf("pre=%d: reconstruct(split(f)) != f", pre)
		}
	}
}

func TestSharesSumToPoly(t *testing.T) {
	s := newScheme(t, "seed")
	f := s.Ring().Linear(17)
	server := s.Split(f, 7)
	client := s.ClientShare(7)
	if !s.Ring().Equal(s.Ring().Add(client, server), f) {
		t.Fatal("client + server != f")
	}
}

func TestClientShareDeterministic(t *testing.T) {
	s1 := newScheme(t, "same-seed")
	s2 := newScheme(t, "same-seed")
	if !s1.Ring().Equal(s1.ClientShare(123), s2.ClientShare(123)) {
		t.Fatal("client shares for the same (seed, pre) differ")
	}
	if s1.Ring().Equal(s1.ClientShare(123), s1.ClientShare(124)) {
		t.Fatal("client shares for different pre values coincide")
	}
}

func TestDifferentSeedsDifferentShares(t *testing.T) {
	a := newScheme(t, "seed-a")
	b := newScheme(t, "seed-b")
	if a.Ring().Equal(a.ClientShare(1), b.ClientShare(1)) {
		t.Fatal("different seeds produced the same client share")
	}
}

// TestServerShareLooksRandom: the server share of a *fixed* polynomial
// under fresh positions should hit many distinct coefficient values — a
// smoke test for the hiding property (each share is uniform).
func TestServerShareCoverage(t *testing.T) {
	s := newScheme(t, "hide")
	f := s.Ring().Linear(5) // low-entropy secret
	seen := map[uint32]bool{}
	for pre := uint64(0); pre < 30; pre++ {
		server := s.Split(f, pre)
		for _, c := range server {
			seen[c] = true
		}
	}
	if len(seen) < 70 { // 83 possible values; ~all should appear in 2460 draws
		t.Fatalf("server share coefficients cover only %d/83 values", len(seen))
	}
}

func TestEvalShared(t *testing.T) {
	s := newScheme(t, "eval")
	r := s.Ring()
	f := r.FromRoots([]gf.Elem{3, 9, 27}) // subtree containing tags 3, 9, 27
	const pre = 11
	server := s.Split(f, pre)
	for v := gf.Elem(1); v < r.Field().Q(); v++ {
		want := r.Eval(f, v)
		if got := s.EvalShared(server, pre, v); got != want {
			t.Fatalf("EvalShared at %d = %d, want %d", v, got, want)
		}
		// Split evaluation path (remote scenario): client(v) + server(v).
		cv := s.EvalClientAt(pre, v)
		sv := r.Eval(server, v)
		if got := r.Field().Add(cv, sv); got != want {
			t.Fatalf("split eval at %d = %d, want %d", v, got, want)
		}
	}
	// Containment: zero exactly at the roots.
	for _, v := range []gf.Elem{3, 9, 27} {
		if s.EvalShared(server, pre, v) != 0 {
			t.Errorf("shared eval at contained tag %d != 0", v)
		}
	}
	if s.EvalShared(server, pre, 5) == 0 {
		t.Error("shared eval at absent tag 5 == 0")
	}
}

// TestWrongSeedGarbles: reconstructing with the wrong seed must not give
// back f (this is what makes the seed the key).
func TestWrongSeedGarbles(t *testing.T) {
	enc := newScheme(t, "right-seed")
	dec := newScheme(t, "wrong-seed")
	f := enc.Ring().Linear(42)
	server := enc.Split(f, 5)
	if dec.Ring().Equal(dec.Reconstruct(server, 5), f) {
		t.Fatal("wrong seed still reconstructed f")
	}
}

func TestExtensionFieldScheme(t *testing.T) {
	r := ring.MustNew(gf.MustNew(3, 2)) // F_9, n = 8
	s := New(r, prg.New([]byte("ext")))
	gen := prg.New([]byte("extdata")).Stream("f", 0)
	f := r.Rand(gen)
	server := s.Split(f, 2)
	if !r.Equal(s.Reconstruct(server, 2), f) {
		t.Fatal("extension-field round-trip failed")
	}
}

func BenchmarkClientShare(b *testing.B) {
	r := ring.MustNew(gf.MustNew(83, 1))
	s := New(r, prg.New([]byte("bench")))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.ClientShare(uint64(i))
	}
}

func BenchmarkSplit(b *testing.B) {
	r := ring.MustNew(gf.MustNew(83, 1))
	s := New(r, prg.New([]byte("bench")))
	f := r.Linear(11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Split(f, uint64(i))
	}
}

// TestStreamingPathsMatchMaterialized proves the streaming entry points
// (SplitInto, ReconstructInto, EvalClientAt, EvalClientMany) equal the
// materialize-then-operate formulation, on prime and extension fields.
func TestStreamingPathsMatchMaterialized(t *testing.T) {
	rings := []*ring.Ring{
		ring.MustNew(gf.MustNew(83, 1)),
		ring.MustNew(gf.MustNew(3, 2)),
	}
	for _, r := range rings {
		s := New(r, prg.New([]byte("streaming")))
		gen := prg.New([]byte("streaming-data")).Stream("f", 0)
		for pre := uint64(0); pre < 8; pre++ {
			f := r.Rand(gen)
			client := s.ClientShare(pre)

			server := s.SplitInto(r.NewPoly(), f, pre)
			if !r.Equal(server, r.Sub(f, client)) {
				t.Fatalf("%v pre=%d: SplitInto != f - client", r.Field(), pre)
			}
			// In-place split: dst aliases f.
			fCopy := r.Clone(f)
			if !r.Equal(s.SplitInto(fCopy, fCopy, pre), server) {
				t.Fatalf("%v pre=%d: in-place SplitInto differs", r.Field(), pre)
			}

			full := s.ReconstructInto(r.NewPoly(), server, pre)
			if !r.Equal(full, f) {
				t.Fatalf("%v pre=%d: ReconstructInto != f", r.Field(), pre)
			}
			// In-place reconstruct: dst aliases server.
			sCopy := r.Clone(server)
			if !r.Equal(s.ReconstructInto(sCopy, sCopy, pre), f) {
				t.Fatalf("%v pre=%d: in-place ReconstructInto differs", r.Field(), pre)
			}

			points := []gf.Elem{0, 1, 2 % r.Field().Q(), r.Field().Q() - 1}
			for _, v := range points {
				if got, want := s.EvalClientAt(pre, v), r.Eval(client, v); got != want {
					t.Fatalf("%v pre=%d: EvalClientAt(%d) = %d, want %d", r.Field(), pre, v, got, want)
				}
			}
			out := make([]gf.Elem, len(points))
			s.EvalClientMany(pre, points, out)
			for i, v := range points {
				if want := r.Eval(client, v); out[i] != want {
					t.Fatalf("%v pre=%d: EvalClientMany[%d] = %d, want %d", r.Field(), pre, i, out[i], want)
				}
			}
		}
	}
}

// TestReconstructionCounterAndAllocs cross-checks the scheme's
// reconstruction counter against the work actually done, and pins the
// allocation-free property of ReconstructInto with a pooled buffer —
// the point of the counter is that the two can be compared.
func TestReconstructionCounterAndAllocs(t *testing.T) {
	s := newScheme(t, "counter")
	r := s.Ring()
	f := r.Linear(9)
	server := s.Split(f, 3)

	before := s.Reconstructions()
	const runs = 100
	dst := r.GetPoly()
	if avg := testing.AllocsPerRun(runs, func() {
		s.ReconstructInto(dst, server, 3)
	}); avg > 0 {
		t.Errorf("ReconstructInto allocates %.2f objects/op, want 0", avg)
	}
	r.PutPoly(dst)
	got := s.Reconstructions() - before
	// AllocsPerRun executes runs+1 iterations (one warm-up).
	if got != runs+1 {
		t.Fatalf("Reconstructions advanced by %d, want %d", got, runs+1)
	}
}

// TestClientShareKnownAnswers pins the first 16 coefficients of
// ClientShare under a fixed seed, computed outside Go from the v2
// definition: SHA-256 counter blocks keyed sha256(domainKey ‖ pre), one
// byte per coefficient, bytes ≥ 256 − 256 mod q rejected. Every encoded
// table depends on these values; a change here re-keys all of them and
// must come with a Domain bump and a dump version bump.
func TestClientShareKnownAnswers(t *testing.T) {
	cases := []struct {
		q, e uint32
		pre  uint64
		want []gf.Elem
	}{
		{83, 1, 0, []gf.Elem{7, 30, 27, 14, 50, 54, 45, 7, 5, 32, 10, 64, 17, 37, 6, 48}},
		{83, 1, 1, []gf.Elem{63, 27, 56, 17, 32, 9, 54, 77, 52, 14, 44, 76, 29, 38, 70, 9}},
		{83, 1, 1 << 40, []gf.Elem{25, 13, 67, 5, 25, 36, 48, 2, 68, 10, 34, 3, 42, 47, 1, 51}},
		{3, 5, 0, []gf.Elem{7, 196, 110, 180, 216, 54, 211, 7, 88, 198, 93, 64, 17, 203, 89, 131}},
		{3, 5, 1, []gf.Elem{146, 27, 139, 17, 115, 92, 137, 77, 218, 14, 44, 159, 29, 38, 153, 175}},
		{3, 5, 1 << 40, []gf.Elem{25, 179, 233, 5, 108, 202, 131, 85, 151, 10, 117, 169, 42, 130, 84, 134}},
	}
	for _, c := range cases {
		r := ring.MustNew(gf.MustNew(c.q, c.e))
		s := New(r, prg.New([]byte("known-answer")))
		got := s.ClientShare(c.pre)
		for i, w := range c.want {
			if got[i] != w {
				t.Fatalf("%v pre=%d: coefficient %d = %d, want %d (first 16: %v)", r.Field(), c.pre, i, got[i], w, got[:16])
			}
		}
		if into := s.ClientShareInto(r.GetPoly(), c.pre); !r.Equal(into, got) {
			t.Fatalf("%v pre=%d: ClientShareInto differs from ClientShare", r.Field(), c.pre)
		}
		f := r.Rand(prg.New([]byte("known-answer-data")).Stream("f", c.pre))
		if back := s.Reconstruct(s.Split(f, c.pre), c.pre); !r.Equal(back, f) {
			t.Fatalf("%v pre=%d: Reconstruct(Split(f)) != f", r.Field(), c.pre)
		}
	}
}
