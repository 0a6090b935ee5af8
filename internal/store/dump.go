package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"encshare/internal/minisql"
)

// v2 dump format: a 40-byte header followed by the raw heap page images
// in page-ID order. Index pages are NOT dumped — the B⁺-trees are
// rebuilt on load — so Dump byte-determinism is a property of the heap
// pages alone, which insert/update/delete keep deterministic (stable
// slots, deterministic splits).
//
//	[ 0:16) magic "encshare-pagesv2"
//	[16:20) version  uint32 = 2
//	[20:24) pageSize uint32
//	[24:28) nPages   uint32
//	[28:32) firstHeap uint32
//	[32:40) rowCount uint64
//	then nPages × pageSize bytes, pages 1..nPages
//
// The version covers the share blobs as well as the page layout:
// version 2 means the shares were split against client shares drawn
// from secshare.Domain "encshare/client-poly/v2". Version 1 files hold
// v1 shares, which the current client would silently reconstruct to
// garbage, so they are refused with a request to re-encode.
//
// Store.Load sniffs the first 16 bytes, so either engine loads either
// format: a v2 server attaches v1 gob files and vice versa (the
// -engine v1 oracle legs in CI rely on this). The v1 gob dump carries
// no version and is not checked.
const (
	v2Magic     = "encshare-pagesv2"
	v2Version   = 2
	v2HeaderLen = 40
)

func (s *v2store) Dump(w io.Writer) error {
	tb := s.tbl
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	tb.pool.flush(spaceHeap)
	var hdr [v2HeaderLen]byte
	copy(hdr[:16], v2Magic)
	binary.LittleEndian.PutUint32(hdr[16:], v2Version)
	binary.LittleEndian.PutUint32(hdr[20:], pageSize)
	binary.LittleEndian.PutUint32(hdr[24:], uint32(tb.heapPg.count()))
	binary.LittleEndian.PutUint32(hdr[28:], tb.firstHeap)
	binary.LittleEndian.PutUint64(hdr[32:], uint64(tb.rowCount))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("store: dump: %w", err)
	}
	for _, p := range tb.heapPg.pages {
		if _, err := w.Write(p); err != nil {
			return fmt.Errorf("store: dump: %w", err)
		}
	}
	return nil
}

// reset clears the table back to empty (fresh pagers, pool, trees),
// preserving the pool capacity. Callers hold mu.
func (tb *pagedTable) reset() {
	capPages := tb.pool.cap
	tb.heapPg = &pager{}
	tb.idxPg = &pager{}
	tb.pool = newBufferPool(capPages, tb.heapPg, tb.idxPg)
	tb.pre = newBptree(tb.pool, tb.idxPg)
	tb.kids = newBptree(tb.pool, tb.idxPg)
	tb.firstHeap = 0
	tb.rowCount = 0
	tb.created = true
}

// readV2Header validates the stream header and returns its fields.
func readV2Header(r io.Reader) (nPages, firstHeap uint32, rowCount int64, err error) {
	var hdr [v2HeaderLen]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, 0, fmt.Errorf("store: load: %w", err)
	}
	if string(hdr[:16]) != v2Magic {
		return 0, 0, 0, fmt.Errorf("store: load: not a v2 page file")
	}
	switch v := binary.LittleEndian.Uint32(hdr[16:]); v {
	case v2Version:
	case 1:
		return 0, 0, 0, fmt.Errorf("store: load: v2 dump version 1 holds shares drawn from client-poly/v1, which current clients cannot reconstruct: re-encode the table from its XML")
	default:
		return 0, 0, 0, fmt.Errorf("store: load: v2 dump version %d (want %d)", v, v2Version)
	}
	if ps := binary.LittleEndian.Uint32(hdr[20:]); ps != pageSize {
		return 0, 0, 0, fmt.Errorf("store: load: dump page size %d (want %d)", ps, pageSize)
	}
	nPages = binary.LittleEndian.Uint32(hdr[24:])
	firstHeap = binary.LittleEndian.Uint32(hdr[28:])
	rowCount = int64(binary.LittleEndian.Uint64(hdr[32:]))
	return nPages, firstHeap, rowCount, nil
}

// loadNative restores a v2 dump exactly: page images are adopted
// verbatim (so dump→load→dump is the identity) and the trees are
// rebuilt from the live slots.
func (s *v2store) loadNative(r io.Reader) error {
	tb := s.tbl
	tb.mu.Lock()
	defer tb.mu.Unlock()
	nPages, firstHeap, rowCount, err := readV2Header(r)
	if err != nil {
		return err
	}
	tb.reset()
	tb.firstHeap = firstHeap
	type entry struct {
		pre, parent int64
		r           rid
	}
	var entries []entry
	for id := uint32(1); id <= nPages; id++ {
		if got := tb.heapPg.alloc(); got != id {
			return fmt.Errorf("store: load: page id drift (%d != %d)", got, id)
		}
		p := tb.heapPg.pages[id-1]
		if _, err := io.ReadFull(r, p); err != nil {
			return fmt.Errorf("store: load: page %d: %w", id, err)
		}
		if p[0] != pageTypeHeap {
			return fmt.Errorf("store: load: page %d has type %q", id, p[0])
		}
		for i := 0; i < pageNSlots(p); i++ {
			sl := pageSlot(p, i)
			if sl == nil {
				continue
			}
			if len(sl) < rowHeaderLen {
				return fmt.Errorf("store: load: page %d slot %d truncated", id, i)
			}
			pre, _, parent := decodeRowMeta(sl)
			entries = append(entries, entry{pre: pre, parent: parent, r: rid{page: id, slot: uint16(i)}})
		}
	}
	if int64(len(entries)) != rowCount {
		return fmt.Errorf("store: load: %d live rows but header says %d", len(entries), rowCount)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].pre < entries[j].pre })
	for _, e := range entries {
		if tb.pre.set(treeKey{a: e.pre}, e.r) {
			return fmt.Errorf("store: load: duplicate pre %d", e.pre)
		}
		tb.kids.set(treeKey{a: e.parent, b: e.pre}, e.r)
	}
	tb.rowCount = rowCount
	return nil
}

// loadRows replaces the table contents with rows (pre-sorted by the
// caller) through the normal placement path — the cross-format load.
func (s *v2store) loadRows(rows []NodeRow) error {
	tb := s.tbl
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.reset()
	for _, row := range rows {
		r, err := tb.place(row)
		if err != nil {
			return fmt.Errorf("store: load: insert pre=%d: %w", row.Pre, err)
		}
		if tb.pre.set(treeKey{a: row.Pre}, r) {
			return fmt.Errorf("store: load: duplicate pre %d", row.Pre)
		}
		tb.kids.set(treeKey{a: row.Parent, b: row.Pre}, r)
		tb.rowCount++
	}
	return nil
}

// readV2Rows extracts the rows of a v2 dump stream, sorted by pre, for
// loading into a v1 engine. Poly slices are private copies.
func readV2Rows(r io.Reader) ([]NodeRow, error) {
	nPages, _, rowCount, err := readV2Header(r)
	if err != nil {
		return nil, err
	}
	var rows []NodeRow
	p := make([]byte, pageSize)
	for id := uint32(1); id <= nPages; id++ {
		if _, err := io.ReadFull(r, p); err != nil {
			return nil, fmt.Errorf("store: load: page %d: %w", id, err)
		}
		if p[0] != pageTypeHeap {
			return nil, fmt.Errorf("store: load: page %d has type %q", id, p[0])
		}
		for i := 0; i < pageNSlots(p); i++ {
			sl := pageSlot(p, i)
			if sl == nil {
				continue
			}
			row, err := decodeRow(sl)
			if err != nil {
				return nil, fmt.Errorf("store: load: page %d slot %d: %w", id, i, err)
			}
			row.Poly = append([]byte(nil), row.Poly...)
			rows = append(rows, row)
		}
	}
	if int64(len(rows)) != rowCount {
		return nil, fmt.Errorf("store: load: %d live rows but header says %d", len(rows), rowCount)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Pre < rows[j].Pre })
	return rows, nil
}

// readV1Rows extracts the rows of a minisql gob dump, sorted by pre,
// for loading into a v2 engine.
func readV1Rows(r io.Reader) ([]NodeRow, error) {
	db := minisql.NewDB()
	if err := db.Load(r); err != nil {
		return nil, fmt.Errorf("store: load: %w", err)
	}
	q, err := db.Prepare("SELECT pre, post, parent, poly FROM nodes ORDER BY pre")
	if err != nil {
		return nil, fmt.Errorf("store: load: %w", err)
	}
	_, vals, err := q.Query()
	if err != nil {
		return nil, fmt.Errorf("store: load: %w", err)
	}
	return rowsFromValues(vals, true)
}
