// Wire codecs of the filter service: the bodies rmi frames carry.
//
// Every message uses the deterministic varint layout of EncodeBatch:
// signed integers as zigzag varints, sequence numbers, counts, lengths
// and field elements as uvarints, flags and small enums as one byte,
// byte strings and strings length-prefixed. A list is its count followed
// by its members. A list of lists (appendNested) writes every inner
// length before the first member, so the decoder sizes one backing array
// for all of them. MutationBatch travels as exactly EncodeBatch's bytes,
// alone and inside LeasedBatch, so the wire and the journal share one
// layout.
//
// Decoders follow DecodeBatch's discipline: every count and length is
// checked against the bytes that remain before anything is allocated,
// trailing bytes are an error, and no input panics. A message holding
// byte strings points them into its frame when rmi hands the frame over
// (DecodeWire's owned: a reply larger than a connection keeps), and
// otherwise copies the frame once and points them into the copy, so
// nothing a decoder returns aliases a reused connection buffer.
package filter

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"encshare/internal/gf"
)

// wireReader walks one encoded message. The first failure sticks: later
// reads return zero values and done reports it.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("filter: wire: truncated or invalid %s", what)
	}
	r.b = nil
}

func (r *wireReader) uvarint(what string) uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wireReader) varint(what string) int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wireReader) byte(what string) byte {
	if len(r.b) == 0 {
		r.fail(what)
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *wireReader) bool(what string) bool {
	switch r.byte(what) {
	case 0:
		return false
	case 1:
		return true
	}
	r.fail(what)
	return false
}

func (r *wireReader) elem(what string) gf.Elem {
	v := r.uvarint(what)
	if v > math.MaxUint32 {
		r.fail(what)
		return 0
	}
	return gf.Elem(v)
}

// count reads a list length and checks that the bytes left could hold
// that many members of at least least bytes each.
func (r *wireReader) count(what string, least int) int {
	n := r.uvarint(what)
	if n > uint64(len(r.b)/least) {
		r.fail(what)
		return 0
	}
	return int(n)
}

// bytes reads a length-prefixed byte string (nil when empty). The
// result aliases the reader's input and its capacity ends at its
// length, so appending to it never writes over a neighbour.
func (r *wireReader) bytes(what string) []byte {
	n := r.uvarint(what)
	if n > uint64(len(r.b)) {
		r.fail(what)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

func (r *wireReader) string(what string) string { return string(r.bytes(what)) }

// done reports the first failure, or bytes left over.
func (r *wireReader) done() error {
	if r.err == nil && len(r.b) != 0 {
		return fmt.Errorf("filter: wire: %d trailing bytes", len(r.b))
	}
	return r.err
}

// decodeWire runs read over b, for a message that keeps none of b's
// bytes.
func decodeWire(b []byte, read func(*wireReader)) error {
	r := wireReader{b: b}
	read(&r)
	return r.done()
}

// decodeKeeping runs read over b, for a message that keeps byte strings
// of b. Unless rmi handed b over (owned), b sits in a connection buffer
// the next frame reuses, so it is copied once and the strings point
// into the copy.
func decodeKeeping(b []byte, owned bool, read func(*wireReader)) error {
	if !owned && len(b) > 0 {
		b = append([]byte(nil), b...)
	}
	return decodeWire(b, read)
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendBytes(dst, b []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(b))), b...)
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// appendList appends a count and every member.
func appendList[T any](dst []byte, l []T, add func([]byte, *T) []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(l)))
	for i := range l {
		dst = add(dst, &l[i])
	}
	return dst
}

// readList reads a count (members of at least least bytes) and the
// members into one new slice, nil when empty.
func readList[T any](r *wireReader, what string, least int, read func(*T, *wireReader)) []T {
	n := r.count(what, least)
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		read(&out[i], r)
	}
	return out
}

// appendNested appends n lists (list(i) is the i-th) as their count,
// every list's length, then all members.
func appendNested[T any](dst []byte, n int, list func(i int) []T, add func([]byte, *T) []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(n))
	for i := 0; i < n; i++ {
		dst = binary.AppendUvarint(dst, uint64(len(list(i))))
	}
	for i := 0; i < n; i++ {
		l := list(i)
		for j := range l {
			dst = add(dst, &l[j])
		}
	}
	return dst
}

// readNested reads appendNested's layout (members of at least least
// bytes) into one backing array. Each list's capacity ends at its
// length, so appending to one never overwrites the next; an empty list
// is nil.
func readNested[T any](r *wireReader, what string, least int, read func(*T, *wireReader)) [][]T {
	n := r.count(what, 1)
	lens := *r
	total := 0
	for i := 0; i < n; i++ {
		k := r.uvarint(what)
		if k > uint64(len(r.b)) {
			r.fail(what)
			return nil
		}
		total += int(k)
	}
	if total > len(r.b)/least {
		r.fail(what)
	}
	if r.err != nil || n == 0 {
		return nil
	}
	out, backing := make([][]T, n), make([]T, total)
	for i := range out {
		if k := int(lens.uvarint(what)); k > 0 {
			out[i], backing = backing[:k:k], backing[k:]
		}
	}
	for _, l := range out {
		for j := range l {
			read(&l[j], r)
		}
	}
	return out
}

// --- scalar arguments and replies -------------------------------------

// empty is the body of a method without arguments (or reply).
type empty struct{}

func (empty) AppendWire(dst []byte) []byte         { return dst }
func (e *empty) DecodeWire(b []byte, _ bool) error { return decodeWire(b, func(*wireReader) {}) }

// varint64 carries one signed integer: a pre, or a node count.
type varint64 int64

func (v varint64) AppendWire(dst []byte) []byte { return binary.AppendVarint(dst, int64(v)) }
func (v *varint64) DecodeWire(b []byte, _ bool) error {
	return decodeWire(b, func(r *wireReader) { *v = varint64(r.varint("integer")) })
}

// uvarint64 carries one unsigned integer: a lease ID.
type uvarint64 uint64

func (v uvarint64) AppendWire(dst []byte) []byte { return binary.AppendUvarint(dst, uint64(v)) }
func (v *uvarint64) DecodeWire(b []byte, _ bool) error {
	return decodeWire(b, func(r *wireReader) { *v = uvarint64(r.uvarint("integer")) })
}

// fieldElem carries one field element: an evaluation.
type fieldElem gf.Elem

func (e fieldElem) AppendWire(dst []byte) []byte { return binary.AppendUvarint(dst, uint64(e)) }
func (e *fieldElem) DecodeWire(b []byte, _ bool) error {
	return decodeWire(b, func(r *wireReader) { *e = fieldElem(r.elem("field element")) })
}

func (a descArgs) AppendWire(dst []byte) []byte {
	return binary.AppendVarint(binary.AppendVarint(dst, a.Pre), a.Post)
}

func (a *descArgs) DecodeWire(b []byte, _ bool) error {
	return decodeWire(b, func(r *wireReader) { a.Pre, a.Post = r.varint("pre"), r.varint("post") })
}

func (a evalArgs) AppendWire(dst []byte) []byte {
	return binary.AppendUvarint(binary.AppendVarint(dst, a.Pre), uint64(a.Point))
}

func (a *evalArgs) DecodeWire(b []byte, _ bool) error {
	return decodeWire(b, func(r *wireReader) { a.Pre, a.Point = r.varint("pre"), r.elem("point") })
}

// --- nodes and share rows ---------------------------------------------

// AppendWire encodes the numbering: Pre, Post, Parent.
func (m NodeMeta) AppendWire(dst []byte) []byte {
	return binary.AppendVarint(binary.AppendVarint(binary.AppendVarint(dst, m.Pre), m.Post), m.Parent)
}

// DecodeWire implements rmi.Message.
func (m *NodeMeta) DecodeWire(b []byte, _ bool) error { return decodeWire(b, m.read) }

func (m *NodeMeta) read(r *wireReader) {
	m.Pre, m.Post, m.Parent = r.varint("pre"), r.varint("post"), r.varint("parent")
}

func appendMeta(dst []byte, m *NodeMeta) []byte { return m.AppendWire(dst) }

// metaMinBytes is the smallest encoded NodeMeta: three one-byte varints.
const metaMinBytes = 3

// AppendWire encodes Pre and the length-prefixed share blob.
func (p PolyRow) AppendWire(dst []byte) []byte {
	return appendBytes(binary.AppendVarint(dst, p.Pre), p.Poly)
}

// DecodeWire implements rmi.Message.
func (p *PolyRow) DecodeWire(b []byte, owned bool) error { return decodeKeeping(b, owned, p.read) }

func (p *PolyRow) read(r *wireReader) { p.Pre, p.Poly = r.varint("pre"), r.bytes("share blob") }

func appendPolyRow(dst []byte, p *PolyRow) []byte { return p.AppendWire(dst) }

// polyRowMinBytes is the smallest encoded PolyRow: a pre and an empty blob.
const polyRowMinBytes = 2

// presList carries the node positions a batch method is asked about.
type presList []int64

func (l presList) AppendWire(dst []byte) []byte {
	return appendList(dst, l, func(dst []byte, p *int64) []byte { return binary.AppendVarint(dst, *p) })
}
func (l *presList) DecodeWire(b []byte, _ bool) error { return decodeWire(b, l.read) }
func (l *presList) read(r *wireReader) {
	*l = readList(r, "pre count", 1, func(p *int64, r *wireReader) { *p = r.varint("pre") })
}

// spanList carries DescendantsBatch's subtree intervals.
type spanList []Span

func (l spanList) AppendWire(dst []byte) []byte {
	return appendList(dst, l, func(dst []byte, s *Span) []byte { return binary.AppendVarint(binary.AppendVarint(dst, s.Pre), s.Post) })
}
func (l *spanList) DecodeWire(b []byte, _ bool) error { return decodeWire(b, l.read) }
func (l *spanList) read(r *wireReader) {
	*l = readList(r, "span count", 2, func(s *Span, r *wireReader) { s.Pre, s.Post = r.varint("pre"), r.varint("post") })
}

// evalRequestList carries EvalBatch's (node, point) pairs.
type evalRequestList []EvalRequest

func (l evalRequestList) AppendWire(dst []byte) []byte {
	return appendList(dst, l, func(dst []byte, q *EvalRequest) []byte {
		return binary.AppendUvarint(binary.AppendVarint(dst, q.Pre), uint64(q.Point))
	})
}

func (l *evalRequestList) DecodeWire(b []byte, _ bool) error {
	return decodeWire(b, func(r *wireReader) {
		*l = readList(r, "eval count", 2, func(q *EvalRequest, r *wireReader) { q.Pre, q.Point = r.varint("pre"), r.elem("point") })
	})
}

// evalResultList carries EvalBatch's reply.
type evalResultList []EvalResult

func (l evalResultList) AppendWire(dst []byte) []byte {
	return appendList(dst, l, func(dst []byte, v *EvalResult) []byte {
		return appendString(binary.AppendUvarint(dst, uint64(v.Val)), v.Err)
	})
}

func (l *evalResultList) DecodeWire(b []byte, _ bool) error {
	return decodeWire(b, func(r *wireReader) {
		*l = readList(r, "result count", 2, func(v *EvalResult, r *wireReader) { v.Val, v.Err = r.elem("value"), r.string("error") })
	})
}

// metaList carries one node list: Children, Descendants, NodeBatch.
type metaList []NodeMeta

func (l metaList) AppendWire(dst []byte) []byte { return appendList(dst, l, appendMeta) }
func (l *metaList) DecodeWire(b []byte, _ bool) error {
	return decodeWire(b, func(r *wireReader) { *l = readList(r, "node count", metaMinBytes, (*NodeMeta).read) })
}

// metaLists carries one node list per member: ChildrenBatch.
type metaLists [][]NodeMeta

func (l metaLists) AppendWire(dst []byte) []byte {
	return appendNested(dst, len(l), func(i int) []NodeMeta { return l[i] }, appendMeta)
}

func (l *metaLists) DecodeWire(b []byte, _ bool) error {
	return decodeWire(b, func(r *wireReader) { *l = readNested(r, "node lists", metaMinBytes, (*NodeMeta).read) })
}

// polyRowList carries Poly rows: ChildrenPolys.
type polyRowList []PolyRow

func (l polyRowList) AppendWire(dst []byte) []byte { return appendList(dst, l, appendPolyRow) }
func (l *polyRowList) DecodeWire(b []byte, owned bool) error {
	return decodeKeeping(b, owned, func(r *wireReader) { *l = readList(r, "row count", polyRowMinBytes, (*PolyRow).read) })
}

// --- equality bundles ---------------------------------------------------

// bundleParts addresses the fields NodePolys and PartialNodePolys share
// (has is nil for NodePolys), so one codec serves both.
type bundleParts struct {
	has  *bool
	node *PolyRow
	kids *[]PolyRow
	err  *string
}

func (b *NodePolys) parts() bundleParts {
	return bundleParts{node: &b.Node, kids: &b.Children, err: &b.Err}
}

func (b *PartialNodePolys) parts() bundleParts {
	return bundleParts{has: &b.Has, node: &b.Node, kids: &b.Children, err: &b.Err}
}

func partsOf[T any](b *T) bundleParts {
	return any(b).(interface{ parts() bundleParts }).parts()
}

// appendBundles encodes a bundle list: per bundle its flag
// (PartialNodePolys only), node row and error, then every bundle's
// child rows as one nested list.
func appendBundles[T any](dst []byte, bs []T) []byte {
	dst = appendList(dst, bs, func(dst []byte, b *T) []byte {
		p := partsOf(b)
		if p.has != nil {
			dst = appendBool(dst, *p.has)
		}
		return appendString(p.node.AppendWire(dst), *p.err)
	})
	return appendNested(dst, len(bs), func(i int) []PolyRow { return *partsOf(&bs[i]).kids }, appendPolyRow)
}

// readBundles decodes appendBundles' layout; all child rows share one
// backing array.
func readBundles[T any](r *wireReader) []T {
	out := readList(r, "bundle count", polyRowMinBytes+1, func(b *T, r *wireReader) {
		p := partsOf(b)
		if p.has != nil {
			*p.has = r.bool("bundle flag")
		}
		p.node.read(r)
		*p.err = r.string("bundle error")
	})
	kids := readNested(r, "bundle children", polyRowMinBytes, (*PolyRow).read)
	if len(kids) != len(out) {
		r.fail("bundle children")
		return nil
	}
	for i := range out {
		*partsOf(&out[i]).kids = kids[i]
	}
	return out
}

// --- paged replies ------------------------------------------------------

func (a descPageArgs) AppendWire(dst []byte) []byte {
	dst = spanList(a.Spans).AppendWire(dst)
	return binary.AppendVarint(binary.AppendVarint(dst, int64(a.Member)), a.Resume)
}

func (a *descPageArgs) DecodeWire(b []byte, _ bool) error {
	return decodeWire(b, func(r *wireReader) {
		(*spanList)(&a.Spans).read(r)
		a.Member, a.Resume = int(r.varint("member")), r.varint("resume")
	})
}

// AppendWire encodes the parts' members, their rows as one nested list,
// then the cursor and Done.
func (p descPageReply) AppendWire(dst []byte) []byte {
	dst = appendList(dst, p.Parts, func(dst []byte, part *descPagePart) []byte {
		return binary.AppendVarint(dst, int64(part.Member))
	})
	dst = appendNested(dst, len(p.Parts), func(i int) []NodeMeta { return p.Parts[i].Metas }, appendMeta)
	dst = binary.AppendVarint(binary.AppendVarint(dst, int64(p.NextMember)), p.NextResume)
	return appendBool(dst, p.Done)
}

func (p *descPageReply) DecodeWire(b []byte, _ bool) error {
	return decodeWire(b, func(r *wireReader) {
		p.Parts = readList(r, "page parts", 1, func(part *descPagePart, r *wireReader) {
			part.Member = int(r.varint("part member"))
		})
		metas := readNested(r, "part rows", metaMinBytes, (*NodeMeta).read)
		if len(metas) != len(p.Parts) {
			r.fail("part rows")
			return
		}
		for i := range p.Parts {
			p.Parts[i].Metas = metas[i]
		}
		p.NextMember, p.NextResume = int(r.varint("next member")), r.varint("next resume")
		p.Done = r.bool("done")
	})
}

func (a bundlePageArgs) AppendWire(dst []byte) []byte {
	return binary.AppendVarint(presList(a.Pres).AppendWire(dst), int64(a.Member))
}

func (a *bundlePageArgs) DecodeWire(b []byte, _ bool) error { return decodeWire(b, a.read) }

func (a *bundlePageArgs) read(r *wireReader) {
	(*presList)(&a.Pres).read(r)
	a.Member = int(r.varint("member"))
}

// AppendWire grows dst once, to the exact size of the page, so a page
// of a megabyte is not copied through every doubling of the reply
// buffer on its way in.
func (p bundlePage[T]) AppendWire(dst []byte) []byte {
	return appendBool(appendBundles(slices.Grow(dst, bundlePageWireBytes(p)), p.Bundles), p.Done)
}

// bundlePageWireBytes is the encoded size of a bundle page: the bundle
// list's two counts, every bundle, and Done.
func bundlePageWireBytes[T any](p bundlePage[T]) int {
	n := 2*uvarintLen(uint64(len(p.Bundles))) + 1
	for i := range p.Bundles {
		b := partsOf(&p.Bundles[i])
		n += bundleWireBytes(*b.node, *b.kids, *b.err)
		if b.has != nil {
			n++
		}
	}
	return n
}

func (p *bundlePage[T]) DecodeWire(b []byte, owned bool) error {
	return decodeKeeping(b, owned, func(r *wireReader) {
		p.Bundles = readBundles[T](r)
		p.Done = r.bool("done")
	})
}

// --- family evaluations --------------------------------------------------

func appendElem(dst []byte, v *gf.Elem) []byte { return binary.AppendUvarint(dst, uint64(*v)) }

func readElem(v *gf.Elem, r *wireReader) { *v = r.elem("field element") }

func appendPre(dst []byte, p *int64) []byte { return binary.AppendVarint(dst, *p) }

func readPre(p *int64, r *wireReader) { *p = r.varint("pre") }

// AppendWire encodes the bundle page arguments, then the points.
func (a familyPageArgs) AppendWire(dst []byte) []byte {
	return appendList(a.bundlePageArgs.AppendWire(dst), a.Points, appendElem)
}

func (a *familyPageArgs) DecodeWire(b []byte, _ bool) error {
	return decodeWire(b, func(r *wireReader) {
		a.bundlePageArgs.read(r)
		a.Points = readList(r, "point count", 1, readElem)
	})
}

// AppendWire encodes every member's flag and error, then the members'
// children and their values as two nested lists, then Done. It grows
// dst once, to the exact size of the page.
func (p familyPage) AppendWire(dst []byte) []byte {
	es := p.Bundles
	dst = appendList(slices.Grow(dst, familyPageWireBytes(es)), es, func(dst []byte, e *FamilyEval) []byte {
		return appendString(appendBool(dst, e.Has), e.Err)
	})
	dst = appendNested(dst, len(es), func(i int) []int64 { return es[i].Children }, appendPre)
	dst = appendNested(dst, len(es), func(i int) []gf.Elem { return es[i].Vals }, appendElem)
	return appendBool(dst, p.Done)
}

func (p *familyPage) DecodeWire(b []byte, _ bool) error {
	return decodeWire(b, func(r *wireReader) {
		p.Bundles = readList(r, "family count", 2, func(e *FamilyEval, r *wireReader) {
			e.Has, e.Err = r.bool("family flag"), r.string("family error")
		})
		kids := readNested(r, "family children", 1, readPre)
		vals := readNested(r, "family values", 1, readElem)
		if len(kids) != len(p.Bundles) || len(vals) != len(p.Bundles) {
			r.fail("family rows")
			return
		}
		for i := range p.Bundles {
			p.Bundles[i].Children, p.Bundles[i].Vals = kids[i], vals[i]
		}
		p.Done = r.bool("done")
	})
}

// --- cluster, stats, aggregates -------------------------------------------

// AppendWire encodes Lo, Hi.
func (p PreRange) AppendWire(dst []byte) []byte {
	return binary.AppendVarint(binary.AppendVarint(dst, p.Lo), p.Hi)
}

// DecodeWire implements rmi.Message.
func (p *PreRange) DecodeWire(b []byte, _ bool) error { return decodeWire(b, p.read) }

func (p *PreRange) read(r *wireReader) { p.Lo, p.Hi = r.varint("range lo"), r.varint("range hi") }

// AppendWire encodes the five counters in declaration order.
func (s ServerStats) AppendWire(dst []byte) []byte {
	for _, v := range [...]int64{s.Evals, s.CacheHits, s.CacheMisses, s.Decodes, s.Aggregates} {
		dst = binary.AppendVarint(dst, v)
	}
	return dst
}

// DecodeWire implements rmi.Message.
func (s *ServerStats) DecodeWire(b []byte, _ bool) error {
	return decodeWire(b, func(r *wireReader) {
		for _, v := range [...]*int64{&s.Evals, &s.CacheHits, &s.CacheMisses, &s.Decodes, &s.Aggregates} {
			*v = r.varint("stats counter")
		}
	})
}

// AppendWire encodes Ver, Kind, the packed rows, the mask and ChunkRows.
func (q AggregateRequest) AppendWire(dst []byte) []byte {
	dst = appendBytes(append(dst, q.Ver, q.Kind), q.Pres)
	dst = appendList(dst, q.Mask, func(dst []byte, m *gf.Elem) []byte { return binary.AppendUvarint(dst, uint64(*m)) })
	return binary.AppendVarint(dst, int64(q.ChunkRows))
}

// DecodeWire implements rmi.Message.
func (q *AggregateRequest) DecodeWire(b []byte, owned bool) error {
	return decodeKeeping(b, owned, func(r *wireReader) {
		q.Ver, q.Kind = r.byte("version"), r.byte("kind")
		q.Pres = r.bytes("rows")
		q.Mask = readList(r, "mask count", 1, func(m *gf.Elem, r *wireReader) { *m = r.elem("mask element") })
		q.ChunkRows = int(r.varint("chunk rows"))
	})
}

// aggChunkMinBytes is the smallest encoded AggregateChunk: five
// one-byte integers and two empty blobs.
const aggChunkMinBytes = 7

// AppendWire encodes Ver and the chunks; Origin is a client-side
// annotation and does not travel.
func (p AggregateReply) AppendWire(dst []byte) []byte {
	return appendList(append(dst, p.Ver), p.Chunks, func(dst []byte, c *AggregateChunk) []byte {
		dst = binary.AppendVarint(binary.AppendVarint(dst, c.FirstPre), c.LastPre)
		for _, v := range [...]gf.Elem{c.Rows, c.Count, c.MaskCnt} {
			dst = binary.AppendUvarint(dst, uint64(v))
		}
		return appendBytes(appendBytes(dst, c.Sum), c.MaskSum)
	})
}

// DecodeWire implements rmi.Message.
func (p *AggregateReply) DecodeWire(b []byte, owned bool) error {
	return decodeKeeping(b, owned, func(r *wireReader) {
		p.Ver = r.byte("version")
		p.Chunks = readList(r, "chunk count", aggChunkMinBytes, func(c *AggregateChunk, r *wireReader) {
			c.FirstPre, c.LastPre = r.varint("first pre"), r.varint("last pre")
			c.Rows = r.elem("chunk rows")
			c.Count, c.MaskCnt = r.elem("count"), r.elem("mask count")
			c.Sum, c.MaskSum = r.bytes("sum blob"), r.bytes("mask sum blob")
		})
	})
}

// --- mutations and leases -------------------------------------------------

// AppendWire encodes the batch exactly as EncodeBatch journals it.
func (b MutationBatch) AppendWire(dst []byte) []byte {
	dst = binary.AppendUvarint(append(dst, b.Ver), b.Seq)
	return appendList(dst, b.Ops, func(dst []byte, op *RowOp) []byte {
		dst = append(dst, op.Kind)
		for _, v := range [...]int64{op.Pre, op.Post, op.Parent, op.NewPre, op.PostDelta, op.ParentMin, op.ParentDelta} {
			dst = binary.AppendVarint(dst, v)
		}
		return appendBytes(dst, op.Blob)
	})
}

// DecodeWire is DecodeBatch, which always copies: a batch's blobs are
// applied and journaled after its frame is gone.
func (b *MutationBatch) DecodeWire(data []byte, _ bool) error {
	d, err := DecodeBatch(data)
	*b = d
	return err
}

// AppendWire encodes the epoch, last sequence and range.
func (m MutateReply) AppendWire(dst []byte) []byte { return EpochInfo(m).AppendWire(dst) }

// DecodeWire implements rmi.Message.
func (m *MutateReply) DecodeWire(b []byte, owned bool) error {
	return (*EpochInfo)(m).DecodeWire(b, owned)
}

// AppendWire encodes Epoch, LastSeq and Range.
func (e EpochInfo) AppendWire(dst []byte) []byte {
	return e.Range.AppendWire(binary.AppendUvarint(binary.AppendUvarint(dst, e.Epoch), e.LastSeq))
}

// DecodeWire implements rmi.Message.
func (e *EpochInfo) DecodeWire(b []byte, _ bool) error {
	return decodeWire(b, func(r *wireReader) {
		e.Epoch, e.LastSeq = r.uvarint("epoch"), r.uvarint("last seq")
		e.Range.read(r)
	})
}

// AppendWire encodes Owner and TTLMillis.
func (q LeaseRequest) AppendWire(dst []byte) []byte {
	return binary.AppendVarint(appendString(dst, q.Owner), q.TTLMillis)
}

// DecodeWire implements rmi.Message.
func (q *LeaseRequest) DecodeWire(b []byte, _ bool) error {
	return decodeWire(b, func(r *wireReader) { q.Owner, q.TTLMillis = r.string("owner"), r.varint("ttl") })
}

// AppendWire encodes ID, TTLMillis, LastSeq, Epoch and Range.
func (g LeaseGrant) AppendWire(dst []byte) []byte {
	dst = binary.AppendVarint(binary.AppendUvarint(dst, g.ID), g.TTLMillis)
	return g.Range.AppendWire(binary.AppendUvarint(binary.AppendUvarint(dst, g.LastSeq), g.Epoch))
}

// DecodeWire implements rmi.Message.
func (g *LeaseGrant) DecodeWire(b []byte, _ bool) error {
	return decodeWire(b, func(r *wireReader) {
		g.ID, g.TTLMillis = r.uvarint("lease id"), r.varint("ttl")
		g.LastSeq, g.Epoch = r.uvarint("last seq"), r.uvarint("epoch")
		g.Range.read(r)
	})
}

// AppendWire encodes LeaseID and Release, then the batch as EncodeBatch
// journals it.
func (lb LeasedBatch) AppendWire(dst []byte) []byte {
	return lb.B.AppendWire(appendBool(binary.AppendUvarint(dst, lb.LeaseID), lb.Release))
}

// DecodeWire implements rmi.Message.
func (lb *LeasedBatch) DecodeWire(b []byte, _ bool) error {
	r := wireReader{b: b}
	lb.LeaseID, lb.Release = r.uvarint("lease id"), r.bool("release")
	if r.err != nil {
		return r.err
	}
	return lb.B.DecodeWire(r.b, false)
}
