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
// Cached polynomials are shared by reference with concurrent readers,
// so an evicted Poly must never be returned to a pool — eviction just
// drops the reference (see the pooling invariant in package ring).
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

func (c *polyCache) get(pre int64) (ring.Poly, bool) {
	if len(c.segs) == 0 {
		return nil, false
	}
	s := c.seg(pre)
	s.mu.Lock()
	e, ok := s.data[pre]
	var p ring.Poly
	if ok {
		e.ref = true
		// Copy the slice header under the lock: a concurrent put may
		// overwrite e.p for an already-resident key.
		p = e.p
	}
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
		return p, true
	}
	c.misses.Add(1)
	return nil, false
}

func (c *polyCache) put(pre int64, p ring.Poly) {
	if len(c.segs) == 0 {
		return
	}
	s := c.seg(pre)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.data[pre]; ok {
		e.p = p
		e.ref = true
		return
	}
	if len(s.data) < s.max {
		s.data[pre] = &cacheEnt{p: p}
		s.keys = append(s.keys, pre)
		return
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
		delete(s.data, victim)
		s.data[pre] = &cacheEnt{p: p}
		s.keys[s.hand] = pre
		s.hand++
		return
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
// (ServerOptions.Cache); filters without an injected cache create a
// private one of ServerOptions.CacheSize entries.
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
