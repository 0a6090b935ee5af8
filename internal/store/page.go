package store

import "encoding/binary"

// Slotted heap page of the engine. Every page is pageSize bytes:
//
//	[ 0: 1)  type byte ('H' heap)
//	[ 1: 2)  flags (unused)
//	[ 2: 4)  nslots  uint16  slots ever allocated (dead ones included)
//	[ 4: 6)  upper   uint16  offset where row payload begins
//	[ 6: 8)  live    uint16  slots currently holding a row
//	[ 8:12)  next    uint32  next heap page in pre order (0 = none)
//	[12:16)  reserved
//	[16: . ) slot array, 4 bytes per slot, growing up
//	[ . :up) free space
//	[up:end) row payload, growing down from the page end
//
// A slot is (offset uint16, length uint16); offset 0 marks a dead slot
// (no row can start inside the header). Slot indices are stable for the
// lifetime of a row on the page: insert always appends a new slot,
// update rewrites in place, delete leaves a dead slot behind. Only a
// page split (heap.go) rebuilds the slot array — and fixes the B⁺-tree
// RIDs of every row it moves. That stability is what keeps two replicas
// applying the same op sequence byte-identical on Dump.
const (
	pageSize     = 8192
	pageHdrLen   = 16
	pageTypeHeap = 'H'

	pageOffNSlots = 2
	pageOffUpper  = 4
	pageOffLive   = 6
	pageOffNext   = 8

	slotLen = 4
)

// maxRowBytes is the largest encoded row one fresh page can hold.
const maxRowBytes = pageSize - pageHdrLen - slotLen

func pageInit(p []byte) {
	clear(p)
	p[0] = pageTypeHeap
	binary.LittleEndian.PutUint16(p[pageOffUpper:], pageSize)
}

func pageNSlots(p []byte) int {
	return int(binary.LittleEndian.Uint16(p[pageOffNSlots:]))
}

func pageLive(p []byte) int {
	return int(binary.LittleEndian.Uint16(p[pageOffLive:]))
}

func pageNext(p []byte) uint32 {
	return binary.LittleEndian.Uint32(p[pageOffNext:])
}

func pageSetNext(p []byte, next uint32) {
	binary.LittleEndian.PutUint32(p[pageOffNext:], next)
}

func pageUpper(p []byte) int {
	return int(binary.LittleEndian.Uint16(p[pageOffUpper:]))
}

// pageFree returns the bytes a fresh insert can claim (slot entry
// included).
func pageFree(p []byte) int {
	return pageUpper(p) - pageHdrLen - slotLen*pageNSlots(p)
}

func slotAt(p []byte, i int) (off, length int) {
	base := pageHdrLen + slotLen*i
	return int(binary.LittleEndian.Uint16(p[base:])),
		int(binary.LittleEndian.Uint16(p[base+2:]))
}

func setSlot(p []byte, i, off, length int) {
	base := pageHdrLen + slotLen*i
	binary.LittleEndian.PutUint16(p[base:], uint16(off))
	binary.LittleEndian.PutUint16(p[base+2:], uint16(length))
}

// pageSlot returns the payload of slot i, or nil when the slot is dead
// or out of range.
func pageSlot(p []byte, i int) []byte {
	if i < 0 || i >= pageNSlots(p) {
		return nil
	}
	off, length := slotAt(p, i)
	if off == 0 {
		return nil
	}
	return p[off : off+length]
}

// pageInsert appends row bytes into a new slot and returns its index;
// ok is false when the page lacks room (slot entry + payload).
func pageInsert(p []byte, row []byte) (slot int, ok bool) {
	if pageFree(p) < slotLen+len(row) {
		return 0, false
	}
	n := pageNSlots(p)
	up := pageUpper(p) - len(row)
	copy(p[up:], row)
	setSlot(p, n, up, len(row))
	binary.LittleEndian.PutUint16(p[pageOffNSlots:], uint16(n+1))
	binary.LittleEndian.PutUint16(p[pageOffUpper:], uint16(up))
	binary.LittleEndian.PutUint16(p[pageOffLive:], uint16(pageLive(p)+1))
	return n, true
}

// pageUpdate rewrites slot i in place. ok is false when the new row does
// not fit the slot's allocated extent (the caller then deletes and
// re-inserts) or the slot is dead. The slot's allocated length never
// shrinks — the row's own length prefix bounds the content.
func pageUpdate(p []byte, i int, row []byte) bool {
	if i < 0 || i >= pageNSlots(p) {
		return false
	}
	off, length := slotAt(p, i)
	if off == 0 || len(row) > length {
		return false
	}
	copy(p[off:off+len(row)], row)
	return true
}

// pageDelete kills slot i. The payload bytes stay where they were (a
// deterministic residue); space is reclaimed only by a split rebuild.
func pageDelete(p []byte, i int) bool {
	if i < 0 || i >= pageNSlots(p) {
		return false
	}
	off, _ := slotAt(p, i)
	if off == 0 {
		return false
	}
	setSlot(p, i, 0, 0)
	binary.LittleEndian.PutUint16(p[pageOffLive:], uint16(pageLive(p)-1))
	return true
}
