package store

import (
	"encoding/binary"
	"fmt"
)

// Fixed-offset binary row layout of the engine. Every stored row is
//
//	[ 0: 8)  pre     int64, little endian
//	[ 8:16)  post    int64, little endian
//	[16:24)  parent  int64, little endian
//	[24:28)  polyLen uint32, little endian
//	[28: . ) poly    polyLen bytes, in place
//
// The three navigation fields sit at fixed offsets so a metadata scan
// decodes them with three loads and never touches the share blob; the
// blob is length-prefixed in place so a share fetch is one bounds check
// and one copy. Share blobs have a fixed width per ring (PolyBytes), so
// in practice every row of one table is the same size — which is what
// lets UPDATE rewrite a row in its slot without moving anything.
const (
	rowOffPre     = 0
	rowOffPost    = 8
	rowOffParent  = 16
	rowOffPolyLen = 24
	rowHeaderLen  = 28
)

// rowSize returns the encoded size of row.
func rowSize(row NodeRow) int { return rowHeaderLen + len(row.Poly) }

// encodeRow appends the fixed-offset encoding of row to dst.
func encodeRow(dst []byte, row NodeRow) []byte {
	var hdr [rowHeaderLen]byte
	binary.LittleEndian.PutUint64(hdr[rowOffPre:], uint64(row.Pre))
	binary.LittleEndian.PutUint64(hdr[rowOffPost:], uint64(row.Post))
	binary.LittleEndian.PutUint64(hdr[rowOffParent:], uint64(row.Parent))
	binary.LittleEndian.PutUint32(hdr[rowOffPolyLen:], uint32(len(row.Poly)))
	dst = append(dst, hdr[:]...)
	return append(dst, row.Poly...)
}

// decodeRowMeta reads the three navigation fields without touching the
// blob. b must be a full encoded row (callers pass slot-bounded slices).
func decodeRowMeta(b []byte) (pre, post, parent int64) {
	pre = int64(binary.LittleEndian.Uint64(b[rowOffPre:]))
	post = int64(binary.LittleEndian.Uint64(b[rowOffPost:]))
	parent = int64(binary.LittleEndian.Uint64(b[rowOffParent:]))
	return
}

// decodeRow decodes a full row. The returned Poly aliases b — callers
// that let the row escape the table's read lock must copy it (see rowAt).
func decodeRow(b []byte) (NodeRow, error) {
	if len(b) < rowHeaderLen {
		return NodeRow{}, fmt.Errorf("store: short row: %d bytes", len(b))
	}
	pre, post, parent := decodeRowMeta(b)
	n := binary.LittleEndian.Uint32(b[rowOffPolyLen:])
	if int(n) > len(b)-rowHeaderLen {
		return NodeRow{}, fmt.Errorf("store: row poly length %d exceeds slot (%d bytes)", n, len(b))
	}
	return NodeRow{Pre: pre, Post: post, Parent: parent, Poly: b[rowHeaderLen : rowHeaderLen+int(n)]}, nil
}
