package store

import "sync"

// pager is the page "disk" of one table: a flat array of pageSize
// pages addressed by 1-based IDs. It is the authority for every page
// not currently held dirty in the buffer pool. Two spaces exist per
// table — heap pages (dumped, byte-deterministic) and index pages
// (rebuilt on load, never dumped) — each with its own pager.
//
// The follow-up ROADMAP item (mmap read path) swaps this for a
// file-backed implementation; nothing above the pool sees the change.
type pager struct {
	pages [][]byte
}

func (pg *pager) alloc() uint32 {
	pg.pages = append(pg.pages, make([]byte, pageSize))
	return uint32(len(pg.pages))
}

func (pg *pager) read(id uint32, dst []byte) {
	copy(dst, pg.pages[id-1])
}

func (pg *pager) write(id uint32, src []byte) {
	copy(pg.pages[id-1], src)
}

func (pg *pager) count() int { return len(pg.pages) }

// Page spaces within one pool.
const (
	spaceHeap  = 0
	spaceIndex = 1
)

type poolKey struct {
	space uint8
	page  uint32
}

// PoolStats is a buffer pool's counter snapshot, exposed per tenant on
// /metrics. Hits/(Hits+Misses) is the hit rate; Evictions counts CLOCK
// victims written back or discarded to make room.
type PoolStats struct {
	Pages     int    `json:"pages"`     // configured frame capacity
	Resident  int    `json:"resident"`  // frames currently holding a page
	Hits      uint64 `json:"hits"`      // fetches served from a frame
	Misses    uint64 `json:"misses"`    // fetches that read the pager
	Evictions uint64 `json:"evictions"` // frames recycled by the clock
}

// frame is one buffer-pool slot.
type frame struct {
	key   poolKey
	buf   []byte
	pin   int
	ref   bool // CLOCK reference bit
	dirty bool
	used  bool
}

// bufferPool caches pages of both spaces with CLOCK eviction and
// pin/unpin. All accesses to page bytes go through fetch/unpin; a
// pinned frame is never evicted, so its bytes are stable for the pin's
// duration. Evicting a dirty frame writes it back to its pager first.
//
// DefaultPoolPages frames cover 8 MiB — comfortably the whole table for
// the paper-scale documents, so steady-state reads are all hits; the
// capacity exists so a server hosting many tenants under one
// CacheBudget keeps a bounded footprint per table.
const DefaultPoolPages = 1024

// minPoolPages keeps the pool larger than the deepest simultaneous pin
// set (a tree descent plus a heap page plus split scratch).
const minPoolPages = 16

type bufferPool struct {
	mu     sync.Mutex
	frames []frame
	table  map[poolKey]int
	hand   int
	cap    int

	heap, idx *pager

	hits, misses, evictions uint64
}

func newBufferPool(capPages int, heap, idx *pager) *bufferPool {
	if capPages <= 0 {
		capPages = DefaultPoolPages
	}
	if capPages < minPoolPages {
		capPages = minPoolPages
	}
	return &bufferPool{
		table: make(map[poolKey]int, capPages),
		cap:   capPages,
		heap:  heap,
		idx:   idx,
	}
}

func (bp *bufferPool) pagerOf(space uint8) *pager {
	if space == spaceHeap {
		return bp.heap
	}
	return bp.idx
}

// fetch pins the page and returns its frame index and bytes. The caller
// must unpin exactly once, marking whether it wrote the bytes.
func (bp *bufferPool) fetch(space uint8, page uint32) (int, []byte) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	key := poolKey{space, page}
	if i, ok := bp.table[key]; ok {
		f := &bp.frames[i]
		f.pin++
		f.ref = true
		bp.hits++
		return i, f.buf
	}
	bp.misses++
	i := bp.victim()
	f := &bp.frames[i]
	if f.used {
		if f.dirty {
			bp.pagerOf(f.key.space).write(f.key.page, f.buf)
		}
		delete(bp.table, f.key)
		bp.evictions++
	}
	if f.buf == nil {
		f.buf = make([]byte, pageSize)
	}
	bp.pagerOf(space).read(page, f.buf)
	f.key = key
	f.pin = 1
	f.ref = true
	f.dirty = false
	f.used = true
	bp.table[key] = i
	return i, f.buf
}

// victim returns a frame index to (re)use: an unused frame while the
// pool grows toward capacity, then the CLOCK victim among unpinned
// frames. If every frame is pinned the pool grows past capacity rather
// than deadlock — scans pin one page at a time, so this is a safety
// valve, not a steady state.
func (bp *bufferPool) victim() int {
	if len(bp.frames) < bp.cap {
		bp.frames = append(bp.frames, frame{})
		return len(bp.frames) - 1
	}
	n := len(bp.frames)
	for sweep := 0; sweep < 2*n; sweep++ {
		i := bp.hand
		bp.hand = (bp.hand + 1) % n
		f := &bp.frames[i]
		if f.pin > 0 {
			continue
		}
		if f.ref {
			f.ref = false
			continue
		}
		return i
	}
	bp.frames = append(bp.frames, frame{})
	return len(bp.frames) - 1
}

func (bp *bufferPool) unpin(i int, dirty bool) {
	bp.mu.Lock()
	f := &bp.frames[i]
	f.pin--
	if dirty {
		f.dirty = true
	}
	bp.mu.Unlock()
}

// flush writes every dirty frame of the space back to its pager (frames
// stay resident and clean). Dump calls this so the heap pager holds the
// authoritative bytes.
func (bp *bufferPool) flush(space uint8) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for i := range bp.frames {
		f := &bp.frames[i]
		if f.used && f.dirty && f.key.space == space {
			bp.pagerOf(space).write(f.key.page, f.buf)
			f.dirty = false
		}
	}
}

// drop discards every frame of the space without write-back — used when
// the space is rebuilt wholesale (Load).
func (bp *bufferPool) drop(space uint8) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for i := range bp.frames {
		f := &bp.frames[i]
		if f.used && f.key.space == space {
			delete(bp.table, f.key)
			f.used = false
			f.dirty = false
			f.ref = false
		}
	}
}

func (bp *bufferPool) stats() PoolStats {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	resident := 0
	for i := range bp.frames {
		if bp.frames[i].used {
			resident++
		}
	}
	return PoolStats{
		Pages:     bp.cap,
		Resident:  resident,
		Hits:      bp.hits,
		Misses:    bp.misses,
		Evictions: bp.evictions,
	}
}
