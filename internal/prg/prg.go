// Package prg implements the deterministic pseudorandom generator that
// stands in for the paper's seeded client-side generator.
//
// The prototype in the paper regenerates the client share of a node's
// polynomial from a secret seed and the node's pre value. We realize this
// with SHA-256 in counter mode: a stream is a 32-byte key, and its block
// i is sha256(key ‖ i). Two key layouts exist, both hashes of the seed
// with length-framed domain separation:
//
//   - a generic stream (Generator.Stream) is keyed
//     sha256(seed ‖ len(domain) ‖ domain ‖ index). Documents, test data
//     and other non-share randomness draw from these; their bytes are
//     frozen.
//   - a keyed-domain stream (DomainKey.StreamInto) is keyed
//     sha256(domainKey ‖ index) with domainKey = sha256(seed ‖
//     len(domain) ‖ domain) derived once, so opening a stream costs one
//     SHA-256 compression instead of two. Client shares draw from these.
//
// Here seed is sha256 of the caller's seed bytes. The generic key input
// is 48+len(domain) bytes and a domain key's 40+len(domain), with the
// length field telling them apart, so a domain key never equals a
// generic stream key and neither family can reproduce the other.
// Either way:
//
//   - the same (seed, domain, index) always yields the same stream, which
//     is what lets the client discard its share tree and keep only the
//     seed (paper §3 step 4);
//   - streams for different nodes are computationally independent.
//
// The seed file is the encryption key of the whole scheme: without it the
// server's shares are uniformly random noise.
package prg

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
)

// SeedSize is the size of a generator seed in bytes.
const SeedSize = 32

// Generator derives deterministic pseudorandom streams from a fixed seed.
// It is immutable and safe for concurrent use; each Stream is not.
type Generator struct {
	seed [SeedSize]byte
}

// New creates a Generator from seed. The seed may be any length; it is
// hashed into the internal fixed-size key so that related seeds do not
// produce related streams.
func New(seed []byte) *Generator {
	g := &Generator{}
	g.seed = sha256.Sum256(seed)
	return g
}

// NewRandom creates a Generator with a fresh random seed and returns the
// seed so the caller can persist it (the "seed file").
func NewRandom() (*Generator, []byte, error) {
	seed := make([]byte, SeedSize)
	if _, err := io.ReadFull(rand.Reader, seed); err != nil {
		return nil, nil, fmt.Errorf("prg: generating seed: %w", err)
	}
	return New(seed), seed, nil
}

// Stream returns the deterministic stream for (domain, index). In the
// encoder and client filter, domain identifies the purpose ("poly") and
// index is the node's pre value.
//
// The key is sha256(seed || len(domain) || domain || index), assembled
// in a stack buffer and hashed with one Sum256 call: the buffer spares
// the hash.Hash allocation. For unusually long domains the buffer spills
// to the heap; the digest is identical either way.
func (g *Generator) Stream(domain string, index uint64) *Stream {
	s := &Stream{}
	g.StreamInto(s, domain, index)
	return s
}

// StreamInto is Stream writing into a caller-supplied Stream value —
// the allocation-free form for hot paths that derive a fresh stream per
// operation. Any previous state of s is discarded.
func (g *Generator) StreamInto(s *Stream, domain string, index uint64) {
	var arr [96]byte
	buf := binary.BigEndian.AppendUint64(g.framed(arr[:0], domain), index)
	*s = Stream{key: sha256.Sum256(buf)}
}

// framed appends seed ‖ len(domain) ‖ domain to buf: the prefix both key
// layouts share.
func (g *Generator) framed(buf []byte, domain string) []byte {
	buf = append(buf, g.seed[:]...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(domain)))
	return append(buf, domain...)
}

// DomainKey is the key of one domain's family of streams,
// sha256(seed ‖ len(domain) ‖ domain). It is derived once and then opens
// any stream of the domain with a single SHA-256 compression. Immutable
// and safe for concurrent use.
type DomainKey struct {
	key [32]byte
}

// DomainKey derives the key of domain's stream family.
func (g *Generator) DomainKey(domain string) DomainKey {
	var arr [96]byte
	return DomainKey{key: sha256.Sum256(g.framed(arr[:0], domain))}
}

// StreamInto opens the stream for index into s: its key is
// sha256(domainKey ‖ index), 40 bytes, which SHA-256 pads into a single
// 64-byte block. Any previous state of s is discarded.
func (d *DomainKey) StreamInto(s *Stream, index uint64) {
	var b [40]byte
	copy(b[:32], d.key[:])
	binary.BigEndian.PutUint64(b[32:], index)
	*s = Stream{key: sha256.Sum256(b[:])}
}

// Stream is a deterministic pseudorandom byte/integer stream. Not safe for
// concurrent use.
type Stream struct {
	key  [32]byte
	ctr  uint64
	buf  [32]byte
	off  int // bytes of buf consumed; initially len(buf) to force refill
	init bool
}

// refill computes the next counter block sha256(key || ctr). One
// Sum256 over a stack buffer — no hash.Hash allocation — producing the
// same digest the original hash.Hash sequence did.
func (s *Stream) refill() {
	var b [40]byte
	copy(b[:32], s.key[:])
	binary.BigEndian.PutUint64(b[32:], s.ctr)
	s.ctr++
	s.buf = sha256.Sum256(b[:])
	s.off = 0
	s.init = true
}

// Read fills p with pseudorandom bytes. It never fails.
func (s *Stream) Read(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if !s.init || s.off == len(s.buf) {
			s.refill()
		}
		c := copy(p, s.buf[s.off:])
		s.off += c
		p = p[c:]
	}
	return n, nil
}

// Uint32 returns the next pseudorandom 32-bit value. The aligned fast
// path reads straight out of the counter block; the Read fallback
// handles a cursor left unaligned by byte-granular reads and consumes
// exactly the same 4 stream bytes.
func (s *Stream) Uint32() uint32 {
	if s.init && s.off+4 <= len(s.buf) {
		v := binary.BigEndian.Uint32(s.buf[s.off:])
		s.off += 4
		return v
	}
	var b [4]byte
	s.Read(b[:])
	return binary.BigEndian.Uint32(b[:])
}

// Uint64 returns the next pseudorandom 64-bit value.
func (s *Stream) Uint64() uint64 {
	var b [8]byte
	s.Read(b[:])
	return binary.BigEndian.Uint64(b[:])
}

// Uniform returns a uniformly distributed value in [0, m) using rejection
// sampling on 32-bit draws. It panics if m == 0.
func (s *Stream) Uniform(m uint32) uint32 {
	if m == 0 {
		panic("prg: Uniform(0)")
	}
	if m&(m-1) == 0 { // power of two: mask, no bias
		return s.Uint32() & (m - 1)
	}
	// Reject values in the final partial block of the uint32 range.
	limit := uint32(1<<32 - (uint64(1<<32) % uint64(m)))
	for {
		v := s.Uint32()
		if v < limit {
			return v % m
		}
	}
}

// Sampler draws exactly uniform values in [0, m) by rejection — the
// polynomial coefficient sampler. The draw width follows m:
//
//   - m ≤ 256: one stream byte per attempt, rejecting bytes ≥
//     256 − 256 mod m (none when m is a power of two);
//   - m > 256: one Uint32 per attempt, byte- and value-identical to
//     Uniform(m).
//
// The precomputed rejection limit and Granlund–Montgomery reciprocal
// spare the two hardware divisions a Uniform call pays. The draw layout
// is part of the storage format (client shares are drawn with it), so
// both widths are pinned by tests against plain references.
type Sampler struct {
	m     uint32
	small bool   // m ≤ 256: one byte per attempt
	pow2  bool   // m is a power of two: mask, never reject
	limit uint32 // attempts ≥ limit are rejected (unused for m > 256 when pow2)
	recip uint64 // ⌊2^64/m⌋+1: ⌊v/m⌋ == (v·recip)>>64 for v < 2^32
}

// NewSampler precomputes the constants for modulus m. Panics if m == 0.
func NewSampler(m uint32) Sampler {
	if m == 0 {
		panic("prg: NewSampler(0)")
	}
	u := Sampler{m: m, small: m <= 256, pow2: m&(m-1) == 0}
	if !u.pow2 {
		u.recip = math.MaxUint64/uint64(m) + 1
	}
	switch {
	case u.small:
		u.limit = 256 - 256%m
	case !u.pow2:
		u.limit = uint32(1<<32 - (uint64(1<<32) % uint64(m)))
	}
	return u
}

// M returns the modulus the sampler was built for.
func (u Sampler) M() uint32 { return u.m }

// reduce returns v mod m for an accepted attempt v < 2^32.
func (u *Sampler) reduce(v uint32) uint32 {
	if u.pow2 {
		return v & (u.m - 1)
	}
	// v - ⌊v/m⌋·m via the precomputed reciprocal; exact for v < 2^32.
	q, _ := bits.Mul64(uint64(v), u.recip)
	return v - uint32(q)*u.m
}

// Sample draws the next value in [0, m).
func (s *Stream) Sample(u Sampler) uint32 {
	if u.small {
		var v [1]uint32
		s.SampleInto(u, v[:])
		return v[0]
	}
	for {
		if v := s.Uint32(); u.pow2 || v < u.limit {
			return u.reduce(v)
		}
	}
}

// SampleInto fills dst with len(dst) successive Sample(u) draws: the same
// values from the same stream bytes, leaving the cursor where those calls
// would. For m ≤ 256 it reads straight out of the counter block, one
// refill per 32 attempts and no call per coefficient — the form the
// client-share hot loops use, a chunk at a time.
func (s *Stream) SampleInto(u Sampler, dst []uint32) {
	if !u.small {
		for i := range dst {
			dst[i] = s.Sample(u)
		}
		return
	}
	for i := 0; i < len(dst); {
		if !s.init || s.off == len(s.buf) {
			s.refill()
		}
		blk := s.buf[s.off:]
		k := 0
		for ; k < len(blk) && i < len(dst); k++ {
			if v := uint32(blk[k]); v < u.limit {
				dst[i] = u.reduce(v)
				i++
			}
		}
		s.off += k
	}
}
