// Package secshare implements the additive secret sharing of node
// polynomials between client and server (paper §3, steps 3–4).
//
// Every node polynomial f is split into two shares with f = client +
// server. The client share is produced by the seeded PRG keyed on the
// node's pre value, so the entire client tree can be discarded and
// regenerated on demand from the seed file; the server share is what gets
// stored in the (public, untrusted) database. Each share on its own is a
// uniformly random polynomial, so the server learns nothing about f.
//
// The evaluation entry points stream the client share straight off the
// PRG (ring.EvalStream): a containment check never materializes a
// client polynomial, it folds each coefficient into the accumulator as
// it is drawn. Reconstruction likewise streams the client coefficients
// directly into the destination buffer; ReconstructInto with a pooled
// buffer makes a full reconstruction allocation-free.
package secshare

import (
	"sync/atomic"

	"encshare/internal/gf"
	"encshare/internal/prg"
	"encshare/internal/ring"
)

// Domain is the PRG domain-separation label for client share streams. The
// encoder and the client filter must agree on it; it is part of the
// storage format between "encrypt time" and "query time". v2 streams are
// keyed sha256(domainKey ‖ pre), domainKey = sha256(seed ‖ len ‖ Domain),
// and draw one byte per coefficient when q ≤ 256 (prg.Sampler). A table
// encoded under v1 would reconstruct to garbage without any error, so the
// page dump's header version moved with this label and refuses it.
const Domain = "encshare/client-poly/v2"

// Scheme ties a ring and a PRG together and produces/regenerates shares.
// Immutable and safe for concurrent use; the counter is atomic.
type Scheme struct {
	r   *ring.Ring
	key prg.DomainKey // the generator's key for Domain, derived once

	// recons counts full polynomial reconstructions, so tests can
	// cross-check the engines' Stats.Reconstructions against the number
	// of times a share pair was actually recombined here.
	recons atomic.Int64
}

// New creates a sharing scheme over ring r with client shares drawn from g.
func New(r *ring.Ring, g *prg.Generator) *Scheme {
	return &Scheme{r: r, key: g.DomainKey(Domain)}
}

// Ring returns the underlying polynomial ring.
func (s *Scheme) Ring() *ring.Ring { return s.r }

// Reconstructions returns how many share pairs this scheme has
// recombined (Reconstruct/ReconstructInto calls).
func (s *Scheme) Reconstructions() int64 { return s.recons.Load() }

// ClientShare regenerates the client share for the node stored at the
// given pre position. This is deterministic: it is how the client
// "remembers" its half of every polynomial while storing only the seed.
func (s *Scheme) ClientShare(pre uint64) ring.Poly {
	return s.ClientShareInto(s.r.NewPoly(), pre)
}

// ClientShareInto is ClientShare writing into dst (len == N()).
func (s *Scheme) ClientShareInto(dst ring.Poly, pre uint64) ring.Poly {
	var st prg.Stream
	s.key.StreamInto(&st, pre)
	return s.r.RandInto(dst, &st)
}

// Split computes the server share for node polynomial f at position pre:
// server = f − client. The pair (ClientShare(pre), server) sums to f.
func (s *Scheme) Split(f ring.Poly, pre uint64) (server ring.Poly) {
	return s.SplitInto(s.r.NewPoly(), f, pre)
}

// SplitInto is Split writing the server share into dst (len == N()),
// streaming the client coefficients instead of materializing the client
// polynomial. dst may alias f.
func (s *Scheme) SplitInto(dst, f ring.Poly, pre uint64) ring.Poly {
	return s.addClient(dst, f, pre, s.r.Field().Neg(1))
}

// Reconstruct recombines a server share with the regenerated client share:
// f = client + server.
func (s *Scheme) Reconstruct(server ring.Poly, pre uint64) ring.Poly {
	return s.ReconstructInto(s.r.NewPoly(), server, pre)
}

// ReconstructInto recombines into dst (len == N()): dst = client +
// server, with the client coefficients streamed straight from the PRG —
// no intermediate polynomial. dst may alias server, so callers can
// decode a blob into a pooled buffer and reconstruct in place.
func (s *Scheme) ReconstructInto(dst, server ring.Poly, pre uint64) ring.Poly {
	s.recons.Add(1)
	return s.addClient(dst, server, pre, 1)
}

// AddShares folds the regenerated client shares of every listed node
// into dst (dst += Σ client(pre)) and returns dst — the client half of
// an aggregate fold. The server returns Σ server(pre) for the same rows,
// so after this call dst holds Σ f_pre, the true aggregate, without any
// per-row polynomial ever materializing: each share streams straight off
// the PRG into the accumulator.
func (s *Scheme) AddShares(dst ring.Poly, pres []int64) ring.Poly {
	for _, pre := range pres {
		s.AddClientShareScaled(dst, uint64(pre), 1)
	}
	return dst
}

// AddSharesScaled is AddShares with a per-row scalar mask: dst +=
// Σ mask[i]·client(pres[i]) (len(mask) == len(pres), every element
// nonzero and in-field). This is the client half of the verification
// share — the masked aggregate the server cannot predict.
func (s *Scheme) AddSharesScaled(dst ring.Poly, pres []int64, mask []gf.Elem) ring.Poly {
	for i, pre := range pres {
		s.AddClientShareScaled(dst, uint64(pre), mask[i])
	}
	return dst
}

// AddClientShareScaled streams one node's client share into dst with a
// scalar factor: dst += c·client(pre). c must be a valid field element;
// c == 0 still consumes nothing and leaves dst unchanged.
func (s *Scheme) AddClientShareScaled(dst ring.Poly, pre uint64, c gf.Elem) ring.Poly {
	if c == 0 {
		return dst
	}
	return s.addClient(dst, dst, pre, c)
}

// addClient sets dst = base + c·client(pre) for a nonzero c and returns
// dst; dst may alias base. It is the one loop behind split (c = −1),
// reconstruction, folds and masked folds: the client coefficients are
// drawn a chunk at a time straight out of the PRG counter blocks into a
// stack buffer, so no client polynomial is materialized.
func (s *Scheme) addClient(dst, base ring.Poly, pre uint64, c gf.Elem) ring.Poly {
	var st prg.Stream
	s.key.StreamInto(&st, pre)
	r := s.r
	field := r.Field()
	q := field.Q()
	prime := field.E() == 1
	t := field.Tables()
	lg, ex := t.Log, t.Exp
	lc := lg[c]
	u := r.Sampler()
	var buf [ring.DrawChunk]gf.Elem
	for i := 0; i < len(dst); i += len(buf) {
		cs := buf[:min(len(buf), len(dst)-i)]
		st.SampleInto(u, cs)
		d, b := dst[i:i+len(cs)], base[i:i+len(cs)]
		for k, cv := range cs {
			if c != 1 && cv != 0 {
				cv = ex[lg[cv]+lc]
			}
			if prime {
				v := b[k] + cv
				if v >= q {
					v -= q
				}
				d[k] = v
			} else {
				d[k] = field.Add(b[k], cv)
			}
		}
	}
	return dst
}

// EvalShared evaluates the *unshared* polynomial at point v given only the
// server share: client(v) + server(v) = f(v). This is the core of the
// containment test — the server evaluates its share, the client evaluates
// its regenerated share, and only the sum is meaningful.
func (s *Scheme) EvalShared(server ring.Poly, pre uint64, v uint32) uint32 {
	cv := s.EvalClientAt(pre, v)
	sv := s.r.Eval(server, v)
	return s.r.Field().Add(cv, sv)
}

// EvalClientAt evaluates just the client share at v; used when the server
// evaluation happens remotely and only the two field values meet. The
// share streams off the PRG without being materialized.
func (s *Scheme) EvalClientAt(pre uint64, v uint32) uint32 {
	var st prg.Stream
	s.key.StreamInto(&st, pre)
	return s.r.EvalStream(&st, v)
}

// EvalClientMany evaluates the client share of one node at every point
// in vs, writing to out (len(out) ≥ len(vs)). The PRG stream — the
// dominant cost of a client evaluation — is traversed once for all
// points, which is what makes the advanced engine's several-names-per-
// node look-ahead cheap on the client side.
func (s *Scheme) EvalClientMany(pre uint64, vs []gf.Elem, out []gf.Elem) {
	var st prg.Stream
	s.key.StreamInto(&st, pre)
	s.r.EvalStreamMany(&st, vs, out)
}
