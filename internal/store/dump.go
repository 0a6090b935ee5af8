package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
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
// This is the only dump format. Load refuses any stream without this
// header at this version — including the gob dumps of the SQL-backed
// engine earlier releases shipped, whose shares the current client
// cannot reconstruct either — and says to re-encode.
const (
	v2Magic     = "encshare-pagesv2"
	v2Version   = 2
	v2HeaderLen = 40
)

// reencode is appended to every refusal of a stream that is not a
// current dump: the only repair is a fresh encode.
const reencode = "re-encode the table from its XML"

// Dump serializes the table as raw heap page images, byte-deterministic
// across replicas applying the same op sequence.
func (s *Store) Dump(w io.Writer) error {
	tb := s.tbl
	tb.mu.RLock()
	defer tb.mu.RUnlock()
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

// readV2Header validates the stream header and returns its fields.
func readV2Header(r io.Reader) (nPages, firstHeap uint32, rowCount int64, err error) {
	var hdr [v2HeaderLen]byte
	n, err := io.ReadFull(r, hdr[:])
	m := min(n, len(v2Magic))
	if string(hdr[:m]) != v2Magic[:m] {
		return 0, 0, 0, fmt.Errorf("store: load: not an %s dump: %s", v2Magic, reencode)
	}
	if err != nil {
		return 0, 0, 0, fmt.Errorf("store: load: truncated dump header (%d of %d bytes): %s", n, v2HeaderLen, reencode)
	}
	switch v := binary.LittleEndian.Uint32(hdr[16:]); v {
	case v2Version:
	case 1:
		return 0, 0, 0, fmt.Errorf("store: load: dump version 1 holds shares drawn from client-poly/v1, which current clients cannot reconstruct: %s", reencode)
	default:
		return 0, 0, 0, fmt.Errorf("store: load: dump version %d (want %d): %s", v, v2Version, reencode)
	}
	if ps := binary.LittleEndian.Uint32(hdr[20:]); ps != pageSize {
		return 0, 0, 0, fmt.Errorf("store: load: dump page size %d (want %d): %s", ps, pageSize, reencode)
	}
	nPages = binary.LittleEndian.Uint32(hdr[24:])
	firstHeap = binary.LittleEndian.Uint32(hdr[28:])
	rowCount = int64(binary.LittleEndian.Uint64(hdr[32:]))
	return nPages, firstHeap, rowCount, nil
}

// Load restores the table from a Dump stream and leaves the store
// attached. Page images are adopted verbatim (so dump→load→dump is the
// byte identity) and the trees are rebuilt from the live slots. A
// stream that is not a whole current dump — a foreign or old header, a
// truncated body, a page that is not a heap page, a row count that
// disagrees with the header, a duplicate pre — is refused with an error
// that says to re-encode, and leaves the table as it was: the stream is
// read into a fresh table, adopted only once all of it has validated.
func (s *Store) Load(r io.Reader) error {
	nt, err := readDump(r)
	if err != nil {
		return err
	}
	tb := s.tbl
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.heapPg, tb.idxPg, tb.pre, tb.kids = nt.heapPg, nt.idxPg, nt.pre, nt.kids
	tb.firstHeap, tb.rowCount, tb.created = nt.firstHeap, nt.rowCount, true
	return nil
}

// readDump reads a whole Dump stream into a fresh, unregistered table.
func readDump(r io.Reader) (*pagedTable, error) {
	nPages, firstHeap, rowCount, err := readV2Header(r)
	if err != nil {
		return nil, err
	}
	nt := newPagedTable()
	if err := nt.readPages(r, nPages, firstHeap, rowCount); err != nil {
		return nil, fmt.Errorf("store: load: %w: %s", err, reencode)
	}
	return nt, nil
}

// readPages fills a fresh table with nPages heap page images from r
// and indexes their live rows.
func (tb *pagedTable) readPages(r io.Reader, nPages, firstHeap uint32, rowCount int64) error {
	if firstHeap > nPages {
		return fmt.Errorf("first heap page %d of %d", firstHeap, nPages)
	}
	type entry struct {
		pre, parent int64
		r           rid
	}
	var entries []entry
	for id := uint32(1); id <= nPages; id++ {
		p := tb.heapPg.pages[tb.heapPg.alloc()-1]
		if _, err := io.ReadFull(r, p); err != nil {
			return fmt.Errorf("page %d: %w", id, err)
		}
		if p[0] != pageTypeHeap {
			return fmt.Errorf("page %d has type %q", id, p[0])
		}
		for i := 0; i < pageNSlots(p); i++ {
			sl := pageSlot(p, i)
			if sl == nil {
				continue
			}
			if len(sl) < rowHeaderLen {
				return fmt.Errorf("page %d slot %d truncated", id, i)
			}
			pre, _, parent := decodeRowMeta(sl)
			entries = append(entries, entry{pre: pre, parent: parent, r: rid{page: id, slot: uint16(i)}})
		}
	}
	if int64(len(entries)) != rowCount {
		return fmt.Errorf("%d live rows but header says %d", len(entries), rowCount)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].pre < entries[j].pre })
	for _, e := range entries {
		if tb.pre.set(treeKey{a: e.pre}, e.r) {
			return fmt.Errorf("duplicate pre %d", e.pre)
		}
		tb.kids.set(treeKey{a: e.parent, b: e.pre}, e.r)
	}
	tb.firstHeap, tb.rowCount = firstHeap, rowCount
	return nil
}
