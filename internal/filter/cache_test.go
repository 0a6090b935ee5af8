package filter

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"encshare/internal/gf"
	"encshare/internal/ring"
)

func mkPoly(n int, tag uint32) ring.Poly {
	p := make(ring.Poly, n)
	if n > 0 {
		p[0] = tag
	}
	return p
}

// lookup is a cache read that copies the polynomial out under the
// segment lock, for tests that look at what a hit saw.
func lookup(c *polyCache, pre int64) (ring.Poly, bool) {
	var out ring.Poly
	ok := c.with(pre, func(p ring.Poly) { out = append(ring.Poly(nil), p...) })
	return out, ok
}

// hit is a cache read that only reports whether pre was resident.
func hit(c *polyCache, pre int64) bool {
	return c.with(pre, func(ring.Poly) {})
}

// TestCacheHotEntrySurvivesScan is the eviction-pathology regression
// test: under the old evict-arbitrary-map-key policy, a stream of cold
// inserts could evict the one hot entry on every round, collapsing its
// hit rate. With CLOCK second-chance eviction, a repeatedly-referenced
// node must keep a ≥90% hit rate through an arbitrarily long cold scan.
func TestCacheHotEntrySurvivesScan(t *testing.T) {
	const cap = 64
	c := newPolyCache(cap)
	hot := int64(7)
	c.put(hot, mkPoly(4, 1))

	hits := 0
	const rounds = 4096
	for i := 0; i < rounds; i++ {
		// One cold insert per round: a scan workload streaming new nodes
		// through the cache.
		cold := int64(1000 + i)
		c.put(cold, mkPoly(4, 2))
		// The hot node is referenced every round.
		if hit(c, hot) {
			hits++
		} else {
			c.put(hot, mkPoly(4, 1))
		}
	}
	rate := float64(hits) / rounds
	if rate < 0.9 {
		t.Fatalf("hot entry hit rate %.2f under cold scan, want >= 0.90", rate)
	}
}

// TestCacheRepeatedNodeWorkloadHitRate drives a whole working set that
// fits the cache through a longer mixed scan: every resident node must
// stay resident (aggregate hit rate ≥90%), which the random-eviction
// policy could not guarantee.
func TestCacheRepeatedNodeWorkloadHitRate(t *testing.T) {
	const cap = 128
	c := newPolyCache(cap)
	workingSet := make([]int64, 32)
	for i := range workingSet {
		workingSet[i] = int64(i)
		c.put(int64(i), mkPoly(4, 3))
	}
	var hits, lookups int
	for round := 0; round < 1024; round++ {
		for _, pre := range workingSet {
			lookups++
			if hit(c, pre) {
				hits++
			} else {
				c.put(pre, mkPoly(4, 3))
			}
		}
		// Interleave cold traffic wider than the spare capacity.
		for j := 0; j < 8; j++ {
			c.put(int64(10_000+round*8+j), mkPoly(4, 4))
		}
	}
	rate := float64(hits) / float64(lookups)
	if rate < 0.9 {
		t.Fatalf("repeated-node hit rate %.2f, want >= 0.90", rate)
	}
}

// TestCacheBasics covers bounds, disabled mode, and update-in-place
// across the segmented layout.
func TestCacheBasics(t *testing.T) {
	c := newPolyCache(2)
	c.put(1, mkPoly(2, 1))
	c.put(2, mkPoly(2, 2))
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	c.put(3, mkPoly(2, 3)) // must evict, not grow
	if c.len() > 2 {
		t.Fatalf("len = %d after overflow, want <= 2", c.len())
	}
	if p, ok := lookup(c, 3); !ok || p[0] != 3 {
		t.Fatal("most-recent insert missing")
	}
	// Update in place keeps one entry.
	c.put(3, mkPoly(2, 9))
	if p, ok := lookup(c, 3); !ok || p[0] != 9 {
		t.Fatal("update-in-place failed")
	}

	d := newPolyCache(0) // disabled
	d.put(1, mkPoly(2, 1))
	if hit(d, 1) {
		t.Fatal("disabled cache returned a hit")
	}
	if d.len() != 0 {
		t.Fatal("disabled cache grew")
	}

	neg := newPolyCache(-1)
	neg.put(1, mkPoly(2, 1))
	if hit(neg, 1) {
		t.Fatal("negative-capacity cache returned a hit")
	}
}

// TestCacheCounters checks hit/miss accounting.
func TestCacheCounters(t *testing.T) {
	c := newPolyCache(8)
	c.put(1, mkPoly(2, 1))
	hit(c, 1) // hit
	hit(c, 2) // miss
	hit(c, 1) // hit
	hits, misses := c.counters()
	if hits != 2 || misses != 1 {
		t.Fatalf("counters = %d hits / %d misses, want 2/1", hits, misses)
	}
}

// TestCacheSegmentsSized checks the segment count adapts to capacity:
// small caches must hold essentially their configured entry count
// (hash spread across segments can cost a few slots at larger sizes,
// never an order of magnitude).
func TestCacheSegmentsSized(t *testing.T) {
	for _, max := range []int{1, 2, 7, 16, 128, 4096} {
		c := newPolyCache(max)
		for i := 0; i < max; i++ {
			c.put(int64(i*7919), mkPoly(1, 0))
		}
		got := c.len()
		if got < 1 || got < max*9/10 {
			t.Fatalf("cap %d: only %d resident", max, got)
		}
	}
}

// TestCacheConcurrent hammers the segmented cache from many goroutines;
// meaningful under -race.
func TestCacheConcurrent(t *testing.T) {
	c := newPolyCache(256)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				pre := int64((w*2000 + i) % 512)
				if !hit(c, pre) {
					c.put(pre, mkPoly(2, uint32(w)))
				}
			}
		}(w)
	}
	wg.Wait()
	if c.len() > 256+cacheSegments(256) {
		t.Fatalf("cache overflowed: %d entries", c.len())
	}
}

// TestCacheConcurrentSameKey overlaps reads with puts that overwrite an
// already-resident key — the exact interleaving where a reader must see
// the entry's polynomial only under the segment lock (meaningful under
// -race).
func TestCacheConcurrentSameKey(t *testing.T) {
	c := newPolyCache(16)
	const key = int64(42)
	c.put(key, mkPoly(2, 0))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				if w%2 == 0 {
					c.put(key, mkPoly(2, uint32(i)))
				} else {
					c.with(key, func(p ring.Poly) {
						if len(p) != 2 {
							t.Errorf("torn read: len %d", len(p))
						}
					})
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestCLOCKSweepTerminates fills one segment with referenced entries
// and inserts one more: the sweep must clear bits and still evict.
func TestCLOCKSweepTerminates(t *testing.T) {
	c := newPolyCache(4) // small enough to collapse to few segments
	var keys []int64
	for i := 0; len(keys) < 4 && i < 1024; i++ {
		c.put(int64(i), mkPoly(1, 0))
		keys = append(keys, int64(i))
	}
	for _, k := range keys {
		hit(c, k) // set every reference bit
	}
	c.put(9999, mkPoly(1, 5)) // must not spin forever
	if !hit(c, 9999) {
		t.Fatal("insert after full-reference sweep missing")
	}
}

// freshShares decodes the server share of every stored node from its
// blob, outside any cache: the reference a cached evaluation must match.
func freshShares(t *testing.T, fx *fixture) ([]int64, map[int64]ring.Poly) {
	t.Helper()
	lo, hi, err := fx.server.st.MinMaxPre()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := fx.server.st.Range(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	pres := make([]int64, len(rows))
	shares := make(map[int64]ring.Poly, len(rows))
	for i, row := range rows {
		p, err := fx.r.FromBytes(row.Poly)
		if err != nil {
			t.Fatal(err)
		}
		pres[i], shares[row.Pre] = row.Pre, p
	}
	return pres, shares
}

// TestPolyCacheRecycle drives an 8-entry cache, far smaller than the
// table, from concurrent EvalBatch, EvalAt and AggregateBatch callers
// while another goroutine purges it. Every miss decodes into a pooled
// polynomial and every admission recycles the one it displaced, so a
// polynomial read outside its segment lock, or recycled while a reader
// still holds it, turns into a wrong value here (and a data race under
// -race). Every value must equal the evaluation or fold of freshly
// decoded blobs.
func TestPolyCacheRecycle(t *testing.T) {
	fx := newFixture(t, wideXML(210))
	pres, shares := freshShares(t, fx)
	if len(pres) < 200 {
		t.Fatalf("table holds %d nodes, want >= 200", len(pres))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	sf := NewServerFilter(fx.server.st, fx.r, 8)
	q := fx.r.Field().Q()
	const rounds = 60

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // purge, as a mutation would, until the readers finish
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				sf.cache.purge()
			}
		}
	}()

	var readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		readers.Add(3)
		seed := int64(w)
		go func() { // EvalBatch: a run of pres, some asked several points
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for round := 0; round < rounds; round++ {
				var reqs []EvalRequest
				for _, pre := range pres[rng.Intn(len(pres)/2):] {
					for k := rng.Intn(3); k >= 0; k-- {
						reqs = append(reqs, EvalRequest{Pre: pre, Point: gf.Elem(rng.Intn(int(q)))})
					}
				}
				rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
				res, err := sf.EvalBatch(reqs)
				if err != nil {
					t.Error(err)
					return
				}
				for i, r := range res {
					want := fx.r.Eval(shares[reqs[i].Pre], reqs[i].Point)
					if r.Err != "" || r.Val != want {
						t.Errorf("EvalBatch: node %d at %d = %d %q, want %d", reqs[i].Pre, reqs[i].Point, r.Val, r.Err, want)
						return
					}
				}
			}
		}()
		go func() { // EvalAt: one node at a time
			defer readers.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for i := 0; i < rounds*len(pres)/4; i++ {
				pre, pt := pres[rng.Intn(len(pres))], gf.Elem(rng.Intn(int(q)))
				got, err := sf.EvalAt(pre, pt)
				if want := fx.r.Eval(shares[pre], pt); err != nil || got != want {
					t.Errorf("EvalAt(%d, %d) = %d, %v, want %d", pre, pt, got, err, want)
					return
				}
			}
		}()
		go func() { // AggregateBatch: masked SUM folds in short chunks
			defer readers.Done()
			rng := rand.New(rand.NewSource(200 + seed))
			for round := 0; round < rounds; round++ {
				var seg []int64
				for _, pre := range pres {
					if rng.Intn(2) == 0 {
						seg = append(seg, pre)
					}
				}
				mask := make([]gf.Elem, len(seg))
				for i := range mask {
					mask[i] = gf.Elem(1 + rng.Intn(int(q)-1))
				}
				const chunk = 16
				reply, err := sf.AggregateBatch(AggregateRequest{
					Ver: AggregateFrameVersion, Kind: wireAggSum,
					Pres: PackPres(seg), Mask: mask, ChunkRows: chunk,
				})
				if err != nil {
					t.Error(err)
					return
				}
				for ci, ck := range reply.Chunks {
					sum, masked := fx.r.NewPoly(), fx.r.NewPoly()
					for i := ci * chunk; i < len(seg) && i < (ci+1)*chunk; i++ {
						fx.r.AddInPlace(sum, shares[seg[i]])
						fx.r.AddScaledInPlace(masked, shares[seg[i]], mask[i])
					}
					if !bytes.Equal(ck.Sum, fx.r.Bytes(sum)) || !bytes.Equal(ck.MaskSum, fx.r.Bytes(masked)) {
						t.Errorf("AggregateBatch chunk %d (rows %d–%d) differs from the fold of fresh shares", ci, ck.FirstPre, ck.LastPre)
						return
					}
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	wg.Wait()
	st, _ := sf.ServerStats()
	if st.CacheHits == 0 || st.Decodes == 0 {
		t.Fatalf("stats %+v: the run must both hit and miss the cache", st)
	}
}

// TestEvalBatchMissesAllocateNothing pins what a miss costs in heap
// allocations: a warm EvalBatch over N distinct nodes, through a cache
// smaller than N, so that nearly every member misses, costs the same
// for N = 64 and N = 512. A miss decodes into a pooled polynomial and
// the admission hands the displaced one back to the pool, so nothing
// scales with the number of misses.
func TestEvalBatchMissesAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	fx := newFixture(t, wideXML(540))
	pres, _ := freshShares(t, fx)
	sf := NewServerFilter(fx.server.st, fx.r, 32)
	allocs := func(n int) float64 {
		reqs := make([]EvalRequest, n)
		for i := range reqs {
			reqs[i] = EvalRequest{Pre: pres[i], Point: gf.Elem(i%80 + 1)}
		}
		run := func() {
			if _, err := sf.EvalBatch(reqs); err != nil {
				t.Fatal(err)
			}
		}
		run() // fill the cache and the pool
		return testing.AllocsPerRun(20, run)
	}
	small, large := allocs(64), allocs(512)
	t.Logf("EvalBatch allocations per run: %.0f at N = 64, %.0f at N = 512", small, large)
	if large != small {
		t.Fatalf("EvalBatch allocates %.0f times over 512 nodes and %.0f over 64: misses allocate", large, small)
	}
	st, _ := sf.ServerStats()
	if st.CacheMisses < 20*512 {
		t.Fatalf("%d misses: the runs did not miss the cache", st.CacheMisses)
	}
}

func ExampleServerStats() {
	a := ServerStats{Evals: 1, CacheHits: 2, CacheMisses: 3, Decodes: 4, Aggregates: 5}
	b := ServerStats{Evals: 10, CacheHits: 20, CacheMisses: 30, Decodes: 40, Aggregates: 50}
	fmt.Println(a.Add(b))
	// Output: {11 22 33 44 55}
}
