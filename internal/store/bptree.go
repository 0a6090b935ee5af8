package store

import "encoding/binary"

// Disk-aware B⁺-tree over index pages, keyed by a pair of int64s
// compared lexicographically. The engine runs two of them per table:
// (pre, 0) → RID for point lookups and pre-range scans, and
// (parent, pre) → RID standing in for the paper's parent index.
// Index pages live in their own page space, apart from heap pages: the
// tree is rebuilt on Load and never dumped, which keeps Dump's
// byte-determinism a heap-only property.
//
// Page layouts (pageSize bytes):
//
//	leaf   'L': [2:4) nkeys, [4:8) next leaf, entries at 16+22i:
//	            keyA int64, keyB int64, page uint32, slot uint16
//	branch 'B': [2:4) nkeys, [4:8) child0, entries at 16+20i:
//	            keyA int64, keyB int64, child uint32
//
// child(0) = child0; child(i) = entry[i-1].child; entry keys separate
// child(i) and child(i+1). Deletes are lazy (no rebalancing): an
// under-full or empty leaf stays linked and scans skip it — fine for a
// structure that is rebuilt wholesale on every Load.
type treeKey struct{ a, b int64 }

func (k treeKey) less(o treeKey) bool {
	return k.a < o.a || (k.a == o.a && k.b < o.b)
}

type rid struct {
	page uint32
	slot uint16
}

const (
	pageTypeLeaf   = 'L'
	pageTypeBranch = 'B'

	idxOffNKeys = 2
	idxOffLink  = 4 // next leaf / child0
	idxHdrLen   = 16

	leafEntryLen   = 22
	branchEntryLen = 20
)

type bptree struct {
	pg   *pager
	root uint32

	// Entry capacities, derived from the page size; tests lower them to
	// force deep trees on small data.
	leafCap, branchCap int
}

func newBptree(pg *pager) *bptree {
	t := &bptree{
		pg:        pg,
		leafCap:   (pageSize - idxHdrLen) / leafEntryLen,
		branchCap: (pageSize - idxHdrLen) / branchEntryLen,
	}
	t.root = t.newLeaf()
	return t
}

func (t *bptree) newLeaf() uint32 {
	id := t.pg.alloc()
	t.pg.page(id)[0] = pageTypeLeaf
	return id
}

func nKeys(b []byte) int { return int(binary.LittleEndian.Uint16(b[idxOffNKeys:])) }
func setNKeys(b []byte, n int) {
	binary.LittleEndian.PutUint16(b[idxOffNKeys:], uint16(n))
}
func link(b []byte) uint32        { return binary.LittleEndian.Uint32(b[idxOffLink:]) }
func setLink(b []byte, id uint32) { binary.LittleEndian.PutUint32(b[idxOffLink:], id) }

func leafKeyAt(b []byte, i int) treeKey {
	off := idxHdrLen + leafEntryLen*i
	return treeKey{
		a: int64(binary.LittleEndian.Uint64(b[off:])),
		b: int64(binary.LittleEndian.Uint64(b[off+8:])),
	}
}

func leafRIDAt(b []byte, i int) rid {
	off := idxHdrLen + leafEntryLen*i
	return rid{
		page: binary.LittleEndian.Uint32(b[off+16:]),
		slot: binary.LittleEndian.Uint16(b[off+20:]),
	}
}

func leafSetEntry(b []byte, i int, k treeKey, r rid) {
	off := idxHdrLen + leafEntryLen*i
	binary.LittleEndian.PutUint64(b[off:], uint64(k.a))
	binary.LittleEndian.PutUint64(b[off+8:], uint64(k.b))
	binary.LittleEndian.PutUint32(b[off+16:], r.page)
	binary.LittleEndian.PutUint16(b[off+20:], r.slot)
}

func branchKeyAt(b []byte, i int) treeKey {
	off := idxHdrLen + branchEntryLen*i
	return treeKey{
		a: int64(binary.LittleEndian.Uint64(b[off:])),
		b: int64(binary.LittleEndian.Uint64(b[off+8:])),
	}
}

func branchChildAt(b []byte, i int) uint32 {
	if i == 0 {
		return link(b)
	}
	off := idxHdrLen + branchEntryLen*(i-1)
	return binary.LittleEndian.Uint32(b[off+16:])
}

func branchSetEntry(b []byte, i int, k treeKey, child uint32) {
	off := idxHdrLen + branchEntryLen*i
	binary.LittleEndian.PutUint64(b[off:], uint64(k.a))
	binary.LittleEndian.PutUint64(b[off+8:], uint64(k.b))
	binary.LittleEndian.PutUint32(b[off+16:], child)
}

// leafSearch returns the first index whose key is ≥ k, and whether it
// is an exact match.
func leafSearch(b []byte, k treeKey) (int, bool) {
	lo, hi := 0, nKeys(b)
	for lo < hi {
		mid := (lo + hi) / 2
		if leafKeyAt(b, mid).less(k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < nKeys(b) && leafKeyAt(b, lo) == k
}

// branchSearch returns the child index to descend for k: the first i
// with k < key[i], else nKeys.
func branchSearch(b []byte, k treeKey) int {
	lo, hi := 0, nKeys(b)
	for lo < hi {
		mid := (lo + hi) / 2
		if k.less(branchKeyAt(b, mid)) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// get returns the RID stored under k.
func (t *bptree) get(k treeKey) (rid, bool) {
	b := t.leafFor(k)
	pos, exact := leafSearch(b, k)
	if !exact {
		return rid{}, false
	}
	return leafRIDAt(b, pos), true
}

// leafFor descends from the root to the leaf whose range holds k.
func (t *bptree) leafFor(k treeKey) []byte {
	b := t.pg.page(t.root)
	for b[0] == pageTypeBranch {
		b = t.pg.page(branchChildAt(b, branchSearch(b, k)))
	}
	return b
}

// set inserts k → r, overwriting any existing entry; reports whether an
// entry was replaced.
func (t *bptree) set(k treeKey, r rid) bool {
	replaced, sk, right := t.insertRec(t.root, k, r)
	if right != 0 {
		// Root split: grow a level.
		id := t.pg.alloc()
		b := t.pg.page(id)
		b[0] = pageTypeBranch
		setNKeys(b, 1)
		setLink(b, t.root)
		branchSetEntry(b, 0, sk, right)
		t.root = id
	}
	return replaced
}

func (t *bptree) insertRec(id uint32, k treeKey, r rid) (replaced bool, splitKey treeKey, rightID uint32) {
	b := t.pg.page(id)
	if b[0] == pageTypeBranch {
		idx := branchSearch(b, k)
		child := branchChildAt(b, idx)
		replaced, sk, rc := t.insertRec(child, k, r)
		if rc == 0 {
			return replaced, treeKey{}, 0
		}
		n := nKeys(b)
		if n < t.branchCap {
			// Shift entries [idx, n) right and place (sk, rc) at idx.
			base := idxHdrLen + branchEntryLen*idx
			copy(b[base+branchEntryLen:idxHdrLen+branchEntryLen*(n+1)], b[base:idxHdrLen+branchEntryLen*n])
			branchSetEntry(b, idx, sk, rc)
			setNKeys(b, n+1)
			return replaced, treeKey{}, 0
		}
		// Branch split: materialize keys/children with the new entry in
		// place, push the middle key up.
		keys := make([]treeKey, 0, n+1)
		children := make([]uint32, 0, n+2)
		children = append(children, link(b))
		for i := 0; i < n; i++ {
			keys = append(keys, branchKeyAt(b, i))
			children = append(children, branchChildAt(b, i+1))
		}
		keys = append(keys[:idx], append([]treeKey{sk}, keys[idx:]...)...)
		children = append(children[:idx+1], append([]uint32{rc}, children[idx+1:]...)...)
		mid := len(keys) / 2
		up := keys[mid]
		newID := t.pg.alloc()
		nb := t.pg.page(newID)
		nb[0] = pageTypeBranch
		setLink(nb, children[mid+1])
		for i, kk := range keys[mid+1:] {
			branchSetEntry(nb, i, kk, children[mid+2+i])
		}
		setNKeys(nb, len(keys)-mid-1)
		clear(b[idxHdrLen:])
		setLink(b, children[0])
		for i := 0; i < mid; i++ {
			branchSetEntry(b, i, keys[i], children[i+1])
		}
		setNKeys(b, mid)
		return replaced, up, newID
	}

	// Leaf.
	pos, exact := leafSearch(b, k)
	n := nKeys(b)
	if exact {
		leafSetEntry(b, pos, k, r)
		return true, treeKey{}, 0
	}
	if n < t.leafCap {
		base := idxHdrLen + leafEntryLen*pos
		copy(b[base+leafEntryLen:idxHdrLen+leafEntryLen*(n+1)], b[base:idxHdrLen+leafEntryLen*n])
		leafSetEntry(b, pos, k, r)
		setNKeys(b, n+1)
		return false, treeKey{}, 0
	}
	// Leaf split: upper half moves to a fresh leaf spliced into the
	// chain, then the entry lands in whichever half owns k.
	h := (n + 1) / 2
	newID := t.pg.alloc()
	nb := t.pg.page(newID)
	nb[0] = pageTypeLeaf
	copy(nb[idxHdrLen:idxHdrLen+leafEntryLen*(n-h)], b[idxHdrLen+leafEntryLen*h:idxHdrLen+leafEntryLen*n])
	setNKeys(nb, n-h)
	setLink(nb, link(b))
	setLink(b, newID)
	setNKeys(b, h)
	sk := leafKeyAt(nb, 0)
	if k.less(sk) {
		pos, _ = leafSearch(b, k)
		base := idxHdrLen + leafEntryLen*pos
		copy(b[base+leafEntryLen:], b[base:idxHdrLen+leafEntryLen*h])
		leafSetEntry(b, pos, k, r)
		setNKeys(b, h+1)
	} else {
		pos, _ = leafSearch(nb, k)
		base := idxHdrLen + leafEntryLen*pos
		copy(nb[base+leafEntryLen:], nb[base:idxHdrLen+leafEntryLen*(n-h)])
		leafSetEntry(nb, pos, k, r)
		setNKeys(nb, n-h+1)
	}
	return false, sk, newID
}

// delete removes k; reports whether it was present. Lazy: leaves are
// never merged and separators stay behind, which preserves routing.
func (t *bptree) delete(k treeKey) bool {
	b := t.leafFor(k)
	pos, exact := leafSearch(b, k)
	if !exact {
		return false
	}
	n := nKeys(b)
	base := idxHdrLen + leafEntryLen*pos
	copy(b[base:], b[base+leafEntryLen:idxHdrLen+leafEntryLen*n])
	setNKeys(b, n-1)
	return true
}

// scanFrom visits entries with key ≥ k in ascending order until fn
// returns false. Empty leaves are skipped.
func (t *bptree) scanFrom(k treeKey, fn func(k treeKey, r rid) bool) {
	b := t.leafFor(k)
	pos, _ := leafSearch(b, k)
	for {
		for n := nKeys(b); pos < n; pos++ {
			if !fn(leafKeyAt(b, pos), leafRIDAt(b, pos)) {
				return
			}
		}
		next := link(b)
		if next == 0 {
			return
		}
		b, pos = t.pg.page(next), 0
	}
}

// min returns the smallest key, max the largest (ok=false when empty).
func (t *bptree) min() (treeKey, rid, bool) {
	b := t.pg.page(t.root)
	for b[0] == pageTypeBranch {
		b = t.pg.page(branchChildAt(b, 0))
	}
	for nKeys(b) == 0 {
		next := link(b)
		if next == 0 {
			return treeKey{}, rid{}, false
		}
		b = t.pg.page(next)
	}
	return leafKeyAt(b, 0), leafRIDAt(b, 0), true
}

func (t *bptree) max() (treeKey, rid, bool) {
	b := t.pg.page(t.root)
	for b[0] == pageTypeBranch {
		b = t.pg.page(branchChildAt(b, nKeys(b)))
	}
	// Rightmost leaf; may be empty after lazy deletes, in which case a
	// full reverse walk is unavailable (no prev pointers) — fall back to
	// a forward scan from the front. Rare: only after every key ≥ the
	// rightmost separator was deleted.
	if n := nKeys(b); n > 0 {
		return leafKeyAt(b, n-1), leafRIDAt(b, n-1), true
	}
	var lk treeKey
	var lr rid
	found := false
	t.scanFrom(treeKey{a: minInt64, b: minInt64}, func(k treeKey, r rid) bool {
		lk, lr, found = k, r, true
		return true
	})
	return lk, lr, found
}

const minInt64 = -1 << 63
