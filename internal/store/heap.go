package store

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// The engine: slotted heap pages clustered by pre, a B⁺-tree on pre
// for point lookups and range scans, and a (parent, pre) B⁺-tree
// standing in for the parent index, all read and written in place in
// their pagers under mu. Descendants(pre) is a tree descent to the
// first key past pre followed by leaf-chain reads that decode (or, for
// the *Meta twins, skip) poly blobs straight out of the heap pages.
//
// Tables register under a process-wide DSN namespace: Open(dsn) twice
// shares one table, Drop(dsn) frees it, FreshDSN names a private one.
type pagedTable struct {
	mu sync.RWMutex

	heapPg *pager
	idxPg  *pager
	pre    *bptree // (pre, 0) → rid
	kids   *bptree // (parent, pre) → rid

	firstHeap uint32 // head of the pre-ordered heap page chain
	rowCount  int64
	created   bool // Init or Load ran

	scratch []byte // row-encode buffer, reused under mu
}

var (
	tablesMu sync.Mutex
	tables   = map[string]*pagedTable{}
	anonSeq  uint64
)

// tableFor returns the table registered under dsn, creating it on
// demand.
func tableFor(dsn string) *pagedTable {
	tablesMu.Lock()
	defer tablesMu.Unlock()
	if tb, ok := tables[dsn]; ok {
		return tb
	}
	tb := newPagedTable()
	tables[dsn] = tb
	return tb
}

// Drop removes the table registered under dsn, releasing its memory
// once every handle on it is gone.
func Drop(dsn string) {
	tablesMu.Lock()
	delete(tables, dsn)
	tablesMu.Unlock()
}

// FreshDSN returns a unique DSN for a private in-memory table, handy
// for tests, shard copies and parallel benchmarks.
func FreshDSN() string {
	tablesMu.Lock()
	defer tablesMu.Unlock()
	anonSeq++
	return fmt.Sprintf("anon-%d", anonSeq)
}

func newPagedTable() *pagedTable {
	tb := &pagedTable{heapPg: &pager{}, idxPg: &pager{}}
	tb.pre = newBptree(tb.idxPg)
	tb.kids = newBptree(tb.idxPg)
	return tb
}

// ---- mutations ----

// InsertNode stores one row. It satisfies the encoder's RowSink.
func (s *Store) InsertNode(row NodeRow) error {
	tb := s.tbl
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if _, ok := tb.pre.get(treeKey{a: row.Pre}); ok {
		return fmt.Errorf("store: insert pre=%d: duplicate key", row.Pre)
	}
	r, err := tb.place(row)
	if err != nil {
		return fmt.Errorf("store: insert pre=%d: %w", row.Pre, err)
	}
	tb.pre.set(treeKey{a: row.Pre}, r)
	tb.kids.set(treeKey{a: row.Parent, b: row.Pre}, r)
	tb.rowCount++
	return nil
}

// place writes row bytes into the heap page its pre clusters to,
// splitting a full page by pre-median, and returns the RID. Callers
// hold mu and maintain the trees.
func (tb *pagedTable) place(row NodeRow) (rid, error) {
	if rowSize(row) > maxRowBytes {
		return rid{}, fmt.Errorf("row of %d bytes exceeds page payload (%d)", rowSize(row), maxRowBytes)
	}
	tb.scratch = encodeRow(tb.scratch[:0], row)

	var target uint32
	if tb.rowCount == 0 {
		if tb.firstHeap == 0 {
			tb.firstHeap = tb.heapPg.alloc()
			pageInit(tb.heapPg.page(tb.firstHeap))
		}
		target = tb.firstHeap
	} else {
		// Cluster by pre: land on the page of the successor key, or the
		// last page when pre is beyond the maximum.
		found := false
		tb.pre.scanFrom(treeKey{a: row.Pre, b: minInt64}, func(_ treeKey, r rid) bool {
			target, found = r.page, true
			return false
		})
		if !found {
			_, r, ok := tb.pre.max()
			if !ok {
				return rid{}, fmt.Errorf("index lost its keys (corrupt table)")
			}
			target = r.page
		}
	}

	b := tb.heapPg.page(target)
	if slot, ok := pageInsert(b, tb.scratch); ok {
		return rid{page: target, slot: uint16(slot)}, nil
	}
	if pageLive(b) < 2 {
		// Too few live rows to split: the page is clogged with dead
		// slots and payload residue — rebuild it in place.
		if err := tb.compactHeap(target, b); err != nil {
			return rid{}, err
		}
		slot, ok := pageInsert(b, tb.scratch)
		if !ok {
			return rid{}, fmt.Errorf("row of %d bytes does not fit an empty page", len(tb.scratch))
		}
		return rid{page: target, slot: uint16(slot)}, nil
	}
	// Full: split by pre-median, then land in whichever half owns pre.
	rightID, rightMin, err := tb.splitHeap(target, b)
	if err != nil {
		return rid{}, err
	}
	if row.Pre >= rightMin {
		target = rightID
		b = tb.heapPg.page(target)
	}
	slot, ok := pageInsert(b, tb.scratch)
	if !ok {
		return rid{}, fmt.Errorf("row of %d bytes does not fit a split page", len(tb.scratch))
	}
	return rid{page: target, slot: uint16(slot)}, nil
}

// compactHeap rebuilds page id (bytes b) in place, keeping only live
// rows and fixing their tree RIDs.
func (tb *pagedTable) compactHeap(id uint32, b []byte) error {
	type liveRow struct {
		pre, parent int64
		data        []byte
	}
	var rows []liveRow
	var arena []byte
	for i := 0; i < pageNSlots(b); i++ {
		sl := pageSlot(b, i)
		if sl == nil {
			continue
		}
		pre, _, parent := decodeRowMeta(sl)
		arena = append(arena, sl...)
		rows = append(rows, liveRow{pre: pre, parent: parent, data: arena[len(arena)-len(sl):]})
	}
	off := 0
	for i := range rows {
		rows[i].data = arena[off : off+len(rows[i].data)]
		off += len(rows[i].data)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].pre < rows[j].pre })
	next := pageNext(b)
	pageInit(b)
	pageSetNext(b, next)
	for _, rw := range rows {
		slot, ok := pageInsert(b, rw.data)
		if !ok {
			return fmt.Errorf("page %d overflow during compaction", id)
		}
		r := rid{page: id, slot: uint16(slot)}
		tb.pre.set(treeKey{a: rw.pre}, r)
		tb.kids.set(treeKey{a: rw.parent, b: rw.pre}, r)
	}
	return nil
}

// splitHeap rebuilds full page id (bytes b) into two compacted halves
// by pre order, splices the new right page into the chain, and rewrites
// the B⁺-tree RIDs of every row on both halves. Returns the new page
// and its minimum pre.
func (tb *pagedTable) splitHeap(id uint32, b []byte) (rightID uint32, rightMin int64, err error) {
	type liveRow struct {
		pre, parent int64
		data        []byte
	}
	rows := make([]liveRow, 0, pageNSlots(b))
	var arena []byte
	for i := 0; i < pageNSlots(b); i++ {
		sl := pageSlot(b, i)
		if sl == nil {
			continue
		}
		pre, _, parent := decodeRowMeta(sl)
		off := len(arena)
		arena = append(arena, sl...)
		rows = append(rows, liveRow{pre: pre, parent: parent, data: arena[off:len(arena):len(arena)]})
	}
	// Append can relocate the arena; rebind every slice to the final
	// backing array before the page is cleared.
	off := 0
	for i := range rows {
		rows[i].data = arena[off : off+len(rows[i].data)]
		off += len(rows[i].data)
	}
	if len(rows) < 2 {
		return 0, 0, fmt.Errorf("page %d cannot split with %d rows", id, len(rows))
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].pre < rows[j].pre })

	rightID = tb.heapPg.alloc()
	nb := tb.heapPg.page(rightID)
	pageInit(nb)
	oldNext := pageNext(b)
	pageInit(b)
	pageSetNext(b, rightID)
	pageSetNext(nb, oldNext)

	h := (len(rows) + 1) / 2
	rightMin = rows[h].pre
	reinsert := func(page uint32, buf []byte, rs []liveRow) error {
		for _, rw := range rs {
			slot, ok := pageInsert(buf, rw.data)
			if !ok {
				return fmt.Errorf("page %d overflow during split rebuild", page)
			}
			r := rid{page: page, slot: uint16(slot)}
			tb.pre.set(treeKey{a: rw.pre}, r)
			tb.kids.set(treeKey{a: rw.parent, b: rw.pre}, r)
		}
		return nil
	}
	if err := reinsert(id, b, rows[:h]); err != nil {
		return 0, 0, err
	}
	if err := reinsert(rightID, nb, rows[h:]); err != nil {
		return 0, 0, err
	}
	return rightID, rightMin, nil
}

// UpdateNode rewrites the row currently stored at oldPre to row —
// numbering and share blob together, so one call renumbers a shifted
// row or patches a rebuilt one. ErrNotFound when no row sits at oldPre.
func (s *Store) UpdateNode(oldPre int64, row NodeRow) error {
	tb := s.tbl
	tb.mu.Lock()
	defer tb.mu.Unlock()
	r, ok := tb.pre.get(treeKey{a: oldPre})
	if !ok {
		return NotFoundError(oldPre)
	}
	if row.Pre != oldPre {
		if _, exists := tb.pre.get(treeKey{a: row.Pre}); exists {
			return fmt.Errorf("store: update pre=%d: new pre %d duplicates an existing row", oldPre, row.Pre)
		}
	}
	b := tb.heapPg.page(r.page)
	sl := pageSlot(b, int(r.slot))
	if sl == nil {
		return fmt.Errorf("store: update pre=%d: slot %d/%d is dead (corrupt index)", oldPre, r.page, r.slot)
	}
	_, _, oldParent := decodeRowMeta(sl)
	tb.scratch = encodeRow(tb.scratch[:0], row)
	newRID := r
	// An in-place rewrite leaves the slot position untouched, which is
	// the property that keeps replicas byte-identical under identical op
	// streams.
	if !pageUpdate(b, int(r.slot), tb.scratch) {
		// The rebuilt row outgrew its slot (only possible when the ring
		// geometry changed): relocate deterministically.
		pageDelete(b, int(r.slot))
		var err error
		newRID, err = tb.place(row)
		if err != nil {
			return fmt.Errorf("store: update pre=%d: %w", oldPre, err)
		}
	}
	if row.Pre != oldPre {
		tb.pre.delete(treeKey{a: oldPre})
	}
	tb.pre.set(treeKey{a: row.Pre}, newRID)
	if oldParent != row.Parent || oldPre != row.Pre {
		tb.kids.delete(treeKey{a: oldParent, b: oldPre})
	}
	tb.kids.set(treeKey{a: row.Parent, b: row.Pre}, newRID)
	return nil
}

// DeleteNode removes the row at pre. ErrNotFound when absent.
func (s *Store) DeleteNode(pre int64) error {
	tb := s.tbl
	tb.mu.Lock()
	defer tb.mu.Unlock()
	r, ok := tb.pre.get(treeKey{a: pre})
	if !ok {
		return NotFoundError(pre)
	}
	b := tb.heapPg.page(r.page)
	sl := pageSlot(b, int(r.slot))
	if sl == nil {
		return fmt.Errorf("store: delete pre=%d: slot %d/%d is dead (corrupt index)", pre, r.page, r.slot)
	}
	_, _, parent := decodeRowMeta(sl)
	pageDelete(b, int(r.slot))
	tb.pre.delete(treeKey{a: pre})
	tb.kids.delete(treeKey{a: parent, b: pre})
	tb.rowCount--
	return nil
}

// ---- reads ----

// rowAt decodes the row at r. withPoly copies the blob into *arena (one
// amortized allocation per call chain — UPDATE rewrites rows inside
// their page, so blobs must not alias page bytes past the read lock).
func (tb *pagedTable) rowAt(b []byte, r rid, withPoly bool, arena *[]byte) (NodeRow, error) {
	sl := pageSlot(b, int(r.slot))
	if sl == nil {
		return NodeRow{}, fmt.Errorf("store: slot %d/%d is dead (corrupt index)", r.page, r.slot)
	}
	row, err := decodeRow(sl)
	if err != nil {
		return NodeRow{}, err
	}
	if !withPoly {
		row.Poly = nil
		return row, nil
	}
	off := len(*arena)
	*arena = append(*arena, row.Poly...)
	row.Poly = (*arena)[off:len(*arena):len(*arena)]
	return row, nil
}

// Node returns the node at pre.
func (s *Store) Node(pre int64) (NodeRow, error) { return s.node(pre, true) }

// NodeMeta returns the node at pre without its share blob (Poly nil) —
// the cheap fetch for structural navigation.
func (s *Store) NodeMeta(pre int64) (NodeRow, error) { return s.node(pre, false) }

func (s *Store) node(pre int64, withPoly bool) (NodeRow, error) {
	tb := s.tbl
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	r, ok := tb.pre.get(treeKey{a: pre})
	if !ok {
		return NodeRow{}, NotFoundError(pre)
	}
	var arena []byte
	return tb.rowAt(tb.heapPg.page(r.page), r, withPoly, &arena)
}

// Root returns the unique node with parent = 0.
func (s *Store) Root() (NodeRow, error) {
	tb := s.tbl
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	var roots []rid
	tb.kids.scanFrom(treeKey{a: 0, b: minInt64}, func(k treeKey, r rid) bool {
		if k.a != 0 {
			return false
		}
		roots = append(roots, r)
		return len(roots) < 3
	})
	switch len(roots) {
	case 0:
		return NodeRow{}, fmt.Errorf("store: root: %w", ErrNotFound)
	case 1:
	default:
		return NodeRow{}, fmt.Errorf("store: %d root nodes", len(roots))
	}
	var arena []byte
	row, err := tb.rowAt(tb.heapPg.page(roots[0].page), roots[0], true, &arena)
	if err != nil {
		return NodeRow{}, fmt.Errorf("store: root: %w", err)
	}
	return row, nil
}

// fetchRows materializes rows for a RID list in order, reusing the
// page across consecutive same-page RIDs (RID lists from tree scans are
// clustered, so this is ~1 page lookup per page, not per row).
func (tb *pagedTable) fetchRows(rids []rid, withPoly bool) ([]NodeRow, error) {
	return tb.fetchRowsSized(rids, withPoly, 0)
}

// fetchRowsSized is fetchRows with the total poly byte count known up
// front (0 = unknown): the arena is allocated once at its final size, so
// per-row blob copies are straight memmoves with no growth reallocation.
func (tb *pagedTable) fetchRowsSized(rids []rid, withPoly bool, polyBytes int) ([]NodeRow, error) {
	if len(rids) == 0 {
		return nil, nil
	}
	out := make([]NodeRow, len(rids))
	arena := make([]byte, 0, polyBytes)
	var cur uint32
	var b []byte
	// The row decode is open-coded here rather than calling rowAt: this
	// loop is the body of every warm subtree scan, and the per-row call,
	// duplicate slot lookup, and NodeRow copy were its hottest samples.
	for i, r := range rids {
		if r.page != cur {
			b, cur = tb.heapPg.page(r.page), r.page
		}
		sl := pageSlot(b, int(r.slot))
		if sl == nil {
			return nil, fmt.Errorf("store: slot %d/%d is dead (corrupt index)", r.page, r.slot)
		}
		if len(sl) < rowHeaderLen {
			return nil, fmt.Errorf("store: short row: %d bytes", len(sl))
		}
		out[i].Pre, out[i].Post, out[i].Parent = decodeRowMeta(sl)
		if withPoly {
			n := int(binary.LittleEndian.Uint32(sl[rowOffPolyLen:]))
			if n > len(sl)-rowHeaderLen {
				return nil, fmt.Errorf("store: row poly length %d exceeds slot (%d bytes)", n, len(sl))
			}
			off := len(arena)
			arena = append(arena, sl[rowHeaderLen:rowHeaderLen+n]...)
			out[i].Poly = arena[off:len(arena):len(arena)]
		}
	}
	return out, nil
}

// Children returns the child rows of the node at pre, in document order.
func (s *Store) Children(pre int64) ([]NodeRow, error) { return s.children(pre, true) }

// ChildrenMeta is Children without the share blobs.
func (s *Store) ChildrenMeta(pre int64) ([]NodeRow, error) { return s.children(pre, false) }

func (s *Store) children(pre int64, withPoly bool) ([]NodeRow, error) {
	tb := s.tbl
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	var rids []rid
	tb.kids.scanFrom(treeKey{a: pre, b: minInt64}, func(k treeKey, r rid) bool {
		if k.a != pre {
			return false
		}
		rids = append(rids, r)
		return true
	})
	rows, err := tb.fetchRows(rids, withPoly)
	if err != nil {
		return nil, fmt.Errorf("store: children of %d: %w", pre, err)
	}
	return rows, nil
}

// VisitChildrenMeta streams the numbering of every child of the node at
// pre in document order, decoded straight off its page slot under one
// read lock, without materializing rows — the children analogue of
// VisitDescendantsMeta. A node without children (or no node at all)
// visits nothing.
func (s *Store) VisitChildrenMeta(pre int64, fn func(pre, post, parent int64)) error {
	tb := s.tbl
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	var cur uint32
	var pb []byte
	var err error
	tb.kids.scanFrom(treeKey{a: pre, b: minInt64}, func(k treeKey, r rid) bool {
		if k.a != pre {
			return false
		}
		if r.page != cur {
			pb, cur = tb.heapPg.page(r.page), r.page
		}
		sl := pageSlot(pb, int(r.slot))
		if sl == nil {
			err = fmt.Errorf("slot %d/%d is dead (corrupt index)", r.page, r.slot)
			return false
		}
		if len(sl) < rowHeaderLen {
			err = fmt.Errorf("short row: %d bytes", len(sl))
			return false
		}
		fn(decodeRowMeta(sl))
		return true
	})
	if err != nil {
		return fmt.Errorf("store: children of %d: %w", pre, err)
	}
	return nil
}

// blobRow is the shape of the rows Bundle returns: any struct type with
// exactly a pre and a share blob, so a caller gets its own row type
// without a conversion pass.
type blobRow interface {
	~struct {
		Pre  int64
		Poly []byte
	}
}

// bundleFanout is the child count Bundle collects on the stack; a node
// with more children costs one heap slice of slot references.
const bundleFanout = 32

// Bundle reads the equality-test rows of the node at pre under one read
// lock: its own row, and its children's in document order. has reports
// whether the table holds the node itself; the children are read either
// way, since a cluster shard can store children of a node it does not
// own. Every blob is copied exactly once, into one arena allocated at
// its final size, so no row aliases page bytes and an UPDATE that later
// rewrites a page cannot tear one.
func Bundle[R blobRow](s *Store, pre int64) (node R, has bool, kids []R, err error) {
	tb := s.tbl
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	// The family's slots, found once: their pres and blobs alias page
	// bytes until the copy below. The node's row, when held, comes first.
	type slotRef struct {
		pre  int64
		blob []byte
	}
	var refsBuf [bundleFanout]slotRef
	refs := refsBuf[:0]
	size := 0
	has, err = tb.family(pre, func(p int64, blob []byte) error {
		refs = append(refs, slotRef{p, blob})
		size += len(blob)
		return nil
	})
	if err != nil {
		return node, false, nil, err
	}
	arena := make([]byte, 0, size)
	take := func(blob []byte) []byte {
		off := len(arena)
		arena = append(arena, blob...)
		return arena[off:len(arena):len(arena)]
	}
	if has {
		node = R{Pre: pre, Poly: take(refs[0].blob)}
		refs = refs[1:]
	}
	if len(refs) > 0 {
		kids = make([]R, len(refs))
		for i, ref := range refs {
			kids[i] = R{Pre: ref.pre, Poly: take(ref.blob)}
		}
	}
	return node, has, kids, nil
}

// VisitFamily hands fn the share blob of the node at pre, when the table
// holds it, then each child's in document order (a child's pre always
// exceeds its parent's), all under one read lock and in place, as
// DecodePoly does: fn must not keep blob past its return nor call back
// into the store. has reports whether the table holds the node itself;
// the children are visited either way, as in Bundle. fn's error stops
// the walk and comes back as is.
func (s *Store) VisitFamily(pre int64, fn func(pre int64, blob []byte) error) (has bool, err error) {
	tb := s.tbl
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	return tb.family(pre, fn)
}

// family is VisitFamily under a read lock the caller holds. A store
// failure is wrapped with the row it hit; fn's error is not.
func (tb *pagedTable) family(pre int64, fn func(pre int64, blob []byte) error) (has bool, err error) {
	if r, ok := tb.pre.get(treeKey{a: pre}); ok {
		_, blob, err := tb.blobAt(tb.heapPg.page(r.page), r)
		if err != nil {
			return false, fmt.Errorf("store: node %d: %w", pre, err)
		}
		if err := fn(pre, blob); err != nil {
			return false, err
		}
		has = true
	}
	var cur uint32
	var pb []byte
	var fnErr error
	tb.kids.scanFrom(treeKey{a: pre, b: minInt64}, func(k treeKey, r rid) bool {
		if k.a != pre {
			return false
		}
		if r.page != cur {
			pb, cur = tb.heapPg.page(r.page), r.page
		}
		var kid int64
		var blob []byte
		if kid, blob, err = tb.blobAt(pb, r); err != nil {
			return false
		}
		fnErr = fn(kid, blob)
		return fnErr == nil
	})
	if err != nil {
		return false, fmt.Errorf("store: children of %d: %w", pre, err)
	}
	return has, fnErr
}

// DecodePoly hands decode the share blob of the node at pre in place,
// under the table's read lock, so a caller that turns the blob into
// something else (the server filter's decoded polynomial) reads it from
// its page once instead of copying it out first. decode must not keep
// blob past its return nor call back into the store. A missing node is
// NotFoundError(pre); decode's error comes back as is.
func (s *Store) DecodePoly(pre int64, decode func(blob []byte) error) error {
	tb := s.tbl
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	r, ok := tb.pre.get(treeKey{a: pre})
	if !ok {
		return NotFoundError(pre)
	}
	_, blob, err := tb.blobAt(tb.heapPg.page(r.page), r)
	if err != nil {
		return fmt.Errorf("store: node %d: %w", pre, err)
	}
	return decode(blob)
}

// blobAt returns the pre and the share blob of the row at r on page b.
// The blob aliases b: it is valid only under the table lock.
func (tb *pagedTable) blobAt(b []byte, r rid) (pre int64, blob []byte, err error) {
	sl := pageSlot(b, int(r.slot))
	if sl == nil {
		return 0, nil, fmt.Errorf("slot %d/%d is dead (corrupt index)", r.page, r.slot)
	}
	row, err := decodeRow(sl)
	if err != nil {
		return 0, nil, err
	}
	return row.Pre, row.Poly, nil
}

// scanDesc streams the proper descendants of (pre, post) in document
// order: a tree descent to the first key past pre, then leaf-chain
// entries decoded straight off the heap pages until the first row
// whose post exceeds post — the subtree boundary, discovered as the
// scan's own stop condition instead of a separate probe.
func (tb *pagedTable) scanDesc(pre, post int64, fn func(sl []byte, r rid) error) error {
	var cur uint32
	var pb []byte
	var err error
	tb.pre.scanFrom(treeKey{a: pre + 1, b: minInt64}, func(_ treeKey, r rid) bool {
		if r.page != cur {
			pb, cur = tb.heapPg.page(r.page), r.page
		}
		sl := pageSlot(pb, int(r.slot))
		if sl == nil {
			err = fmt.Errorf("slot %d/%d is dead (corrupt index)", r.page, r.slot)
			return false
		}
		if rowPost := int64(binary.LittleEndian.Uint64(sl[rowOffPost:])); rowPost > post {
			return false // first non-descendant: the boundary
		}
		err = fn(sl, r)
		return err == nil
	})
	return err
}

// Descendants returns all proper descendants of the node (pre, post), in
// document order, using the boundary optimization.
func (s *Store) Descendants(pre, post int64) ([]NodeRow, error) {
	return s.descendants(pre, post, true)
}

// DescendantsMeta is Descendants without the share blobs — what the
// engines' frontier expansion consumes.
func (s *Store) DescendantsMeta(pre, post int64) ([]NodeRow, error) {
	return s.descendants(pre, post, false)
}

func (s *Store) descendants(pre, post int64, withPoly bool) ([]NodeRow, error) {
	tb := s.tbl
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	// Two passes: the first walks slot headers only, collecting RIDs (a
	// pointer-free 8-byte scratch — doubling it is a flat memmove) and
	// the total poly byte count, so the second can fill exact-capacity
	// result and arena slices — append growth would otherwise recopy
	// the arena O(log n) times and dominate large warm scans.
	var rids []rid
	var polyBytes int
	err := tb.scanDesc(pre, post, func(sl []byte, r rid) error {
		if withPoly {
			polyBytes += int(binary.LittleEndian.Uint32(sl[rowOffPolyLen:]))
		}
		rids = append(rids, r)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: descendants of %d: %w", pre, err)
	}
	out, err := tb.fetchRowsSized(rids, withPoly, polyBytes)
	if err != nil {
		return nil, fmt.Errorf("store: descendants of %d: %w", pre, err)
	}
	return out, nil
}

// VisitDescendantsMeta streams the numbering of every proper descendant
// of (pre, post) in document order without materializing rows — the
// zero-allocation path behind the filter's subtree expansion.
func (s *Store) VisitDescendantsMeta(pre, post int64, fn func(pre, post, parent int64)) error {
	tb := s.tbl
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	err := tb.scanDesc(pre, post, func(sl []byte, _ rid) error {
		p, po, pa := decodeRowMeta(sl)
		fn(p, po, pa)
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: descendants of %d: %w", pre, err)
	}
	return nil
}

// DescendantsNaive is the unoptimized variant (full pre-range scan with a
// post filter); kept for the ablation benchmark.
func (s *Store) DescendantsNaive(pre, post int64) ([]NodeRow, error) {
	tb := s.tbl
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	// The unoptimized shape: a full forward scan with a post filter and
	// no boundary stop (kept for the ablation benchmark).
	var rids []rid
	var cur uint32
	var pb []byte
	var scanErr error
	tb.pre.scanFrom(treeKey{a: pre + 1, b: minInt64}, func(_ treeKey, r rid) bool {
		if r.page != cur {
			pb, cur = tb.heapPg.page(r.page), r.page
		}
		sl := pageSlot(pb, int(r.slot))
		if sl == nil {
			scanErr = fmt.Errorf("slot %d/%d is dead (corrupt index)", r.page, r.slot)
			return false
		}
		_, rowPost, _ := decodeRowMeta(sl)
		if rowPost < post {
			rids = append(rids, r)
		}
		return true
	})
	if scanErr != nil {
		return nil, fmt.Errorf("store: naive descendants of %d: %w", pre, scanErr)
	}
	rows, err := tb.fetchRows(rids, true)
	if err != nil {
		return nil, fmt.Errorf("store: naive descendants of %d: %w", pre, err)
	}
	return rows, nil
}

// Range returns the rows with pre in [lo, hi], in document order — the
// slice of the node table one cluster shard holds.
func (s *Store) Range(lo, hi int64) ([]NodeRow, error) {
	tb := s.tbl
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	var rids []rid
	tb.pre.scanFrom(treeKey{a: lo, b: minInt64}, func(k treeKey, r rid) bool {
		if k.a > hi {
			return false
		}
		rids = append(rids, r)
		return true
	})
	rows, err := tb.fetchRows(rids, true)
	if err != nil {
		return nil, fmt.Errorf("store: range [%d, %d]: %w", lo, hi, err)
	}
	return rows, nil
}

// MinMaxPre returns the smallest and largest stored pre — the contiguous
// interval this table covers (shards report it to cluster clients at
// dial time). An empty table is ErrNotFound.
func (s *Store) MinMaxPre() (int64, int64, error) {
	tb := s.tbl
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	lo, _, ok := tb.pre.min()
	if !ok {
		return 0, 0, fmt.Errorf("store: min/max pre of empty table: %w", ErrNotFound)
	}
	hi, _, _ := tb.pre.max()
	return lo.a, hi.a, nil
}

// Count returns the number of stored nodes.
func (s *Store) Count() (int64, error) {
	tb := s.tbl
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	return tb.rowCount, nil
}
