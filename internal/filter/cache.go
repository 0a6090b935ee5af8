package filter

import (
	"sync"
	"sync/atomic"

	"encshare/internal/ring"
)

// polyCache is a bounded map from pre values to decoded server-share
// polynomials. Two properties matter on the hot path:
//
//   - Sharding: the cache is split into independently-locked segments
//     (pre values spread by a Fibonacci hash), so the batch worker pool
//     hitting the cache concurrently contends on 1/segments of the
//     keyspace instead of one global mutex.
//   - CLOCK eviction: each segment runs second-chance replacement. A
//     hit sets the entry's reference bit; the eviction hand clears bits
//     until it finds an unreferenced victim. Unlike the previous
//     evict-arbitrary-map-key policy, a scan of cold nodes can no
//     longer evict the hot entry every round — recently-referenced
//     entries survive a full hand sweep (see cache_test.go for the
//     hit-rate regression test).
//
// A cached polynomial is never referenced outside its segment lock: a
// reader passes with a function that runs on it under the lock (an
// evaluation or a fold step: nothing that blocks or calls back into the
// cache). So when put displaces a polynomial, no reader can still hold
// it, and put returns it for the caller to recycle through ring.PutPoly
// (see the pooling invariant in package ring).
type polyCache struct {
	segs []cacheSeg
	mask uint64

	hits   atomic.Int64
	misses atomic.Int64
}

type cacheSeg struct {
	mu   sync.Mutex
	max  int
	data map[int64]*cacheEnt
	keys []int64 // CLOCK ring of resident keys
	hand int
}

type cacheEnt struct {
	p   ring.Poly
	ref bool // second-chance bit, guarded by the segment mutex
}

// cacheSegments picks a power-of-two segment count: enough to spread a
// worker pool, small enough that each segment still holds a useful
// number of entries.
func cacheSegments(max int) int {
	segs := 16
	for segs > 1 && max/segs < 8 {
		segs /= 2
	}
	return segs
}

func newPolyCache(max int) *polyCache {
	if max <= 0 {
		return &polyCache{} // disabled: no segments
	}
	segs := cacheSegments(max)
	c := &polyCache{segs: make([]cacheSeg, segs), mask: uint64(segs - 1)}
	per := (max + segs - 1) / segs
	for i := range c.segs {
		// Segments grow with their entries: a cache that never fills
		// (a small table, or one that mutations keep purging) holds no
		// memory for the entries it never had.
		c.segs[i].max = per
		c.segs[i].data = map[int64]*cacheEnt{}
	}
	return c
}

// seg spreads pre values over segments; sequential pre values (a
// subtree scan) land on different segments.
func (c *polyCache) seg(pre int64) *cacheSeg {
	return &c.segs[(uint64(pre)*0x9E3779B97F4A7C15>>32)&c.mask]
}

// with runs fn on the cached polynomial of pre under its segment lock
// and reports whether there was one. fn must not keep p, block, or call
// back into the cache.
func (c *polyCache) with(pre int64, fn func(p ring.Poly)) bool {
	if len(c.segs) == 0 {
		return false
	}
	s := c.seg(pre)
	s.mu.Lock()
	e, ok := s.data[pre]
	if ok {
		e.ref = true
		fn(e.p)
	}
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
		return true
	}
	c.misses.Add(1)
	return false
}

// put admits p as the polynomial of pre. The cache then owns p, and the
// caller must not touch it again. put returns the polynomial that left
// the cache for it — the CLOCK victim, the previous polynomial of a
// resident pre, or p itself when caching is disabled — or nil. No
// reader holds the returned polynomial, so the caller may pool it.
func (c *polyCache) put(pre int64, p ring.Poly) ring.Poly {
	if len(c.segs) == 0 {
		return p
	}
	s := c.seg(pre)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.data[pre]; ok {
		old := e.p
		e.p = p
		e.ref = true
		return old
	}
	if len(s.data) < s.max {
		s.data[pre] = &cacheEnt{p: p}
		s.keys = append(s.keys, pre)
		return nil
	}
	// CLOCK sweep: clear reference bits until an unreferenced victim
	// turns up. Terminates within two revolutions.
	for {
		if s.hand >= len(s.keys) {
			s.hand = 0
		}
		victim := s.keys[s.hand]
		e := s.data[victim]
		if e.ref {
			e.ref = false
			s.hand++
			continue
		}
		// The newcomer takes over the victim's entry, so an admission
		// in a full segment allocates nothing.
		delete(s.data, victim)
		old := e.p
		e.p = p
		s.data[pre] = e
		s.keys[s.hand] = pre
		s.hand++
		return old
	}
}

// purge drops every resident entry (hit/miss counters keep running).
// The mutation apply path calls it: after rows renumber or shares
// change, no cached decode can be trusted.
func (c *polyCache) purge() {
	for i := range c.segs {
		s := &c.segs[i]
		s.mu.Lock()
		clear(s.data)
		s.keys = s.keys[:0]
		s.hand = 0
		s.mu.Unlock()
	}
}

func (c *polyCache) len() int {
	n := 0
	for i := range c.segs {
		s := &c.segs[i]
		s.mu.Lock()
		n += len(s.data)
		s.mu.Unlock()
	}
	return n
}

// counters returns the cumulative hit/miss counts.
func (c *polyCache) counters() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// PolyCache is the exported handle to a decoded-polynomial cache, for
// a caller that builds a filter around a cache it owns
// (ServerOptions.Cache); NewServerFilter creates a private one of the
// size it is given.
type PolyCache struct{ c *polyCache }

// NewPolyCache creates a cache bounded to the given number of decoded
// polynomials (<= 0 disables caching).
func NewPolyCache(entries int) *PolyCache {
	return &PolyCache{c: newPolyCache(entries)}
}

// Counters returns the cache's cumulative hit/miss counts across every
// filter using it.
func (p *PolyCache) Counters() (hits, misses int64) { return p.c.counters() }

// Len returns the number of resident entries.
func (p *PolyCache) Len() int { return p.c.len() }
