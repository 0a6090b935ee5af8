// Byte-aware batch reply framing. The client-side chunking in batch.go
// bounds batch *member counts*, but a single pathological member — a
// giant subtree in DescendantsBatch, a node with thousands of children in
// NodePolysBatch — could still blow the 64 MiB rmi frame, because member
// count says nothing about reply bytes. The paged protocol bounds the
// reply itself: the server fills one page up to a byte budget (charged
// with the encoded size of each row) and returns a resume cursor; the
// client loops until Done. A normal batch fits in one page, so the
// exchange counts the tests pin are unchanged; only a pathological reply
// costs extra round-trips — instead of a hard frame error.
//
// Descendant pages split *inside* a member (row granularity), so even one
// multi-million-node subtree streams out in bounded frames. Equality
// bundles page at bundle granularity (a bundle is one node plus its
// children's share rows, bounded by fanout × poly size), with at least
// one bundle per page so progress is guaranteed. Remote sends every
// DescendantsBatch and NodePolysBatch through these paged methods; there
// is no unpaged wire form.
package filter

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// ReplyByteBudget bounds the encoded members of one paged reply frame.
// The size functions below are exact (bundles) or upper bounds
// (descendant rows) on the binary layout (see wire.go), so a page's
// members never exceed the budget — except the single member a page
// always carries to make progress — and the frame header and page
// trailer (a few dozen bytes) fit in the margin left under the 64 MiB
// rmi frame limit. Exported as a tuning knob: servers on
// memory-constrained hosts can shrink it, and tests shrink it to force
// multi-page replies (including the chaos tests that kill a replica
// between pages).
var ReplyByteBudget = 48 << 20

// pageFetchChunk is how many members the server fetches at a time while
// filling a page — keeps the worker pool busy without fetching far past
// the byte budget (over-fetched members are re-fetched on the next page).
var pageFetchChunk = 128

// Upper bounds on encoded descendant-page sizes: every integer takes at
// most one full varint.
const (
	// metaWireBytes bounds one NodeMeta: pre, post, parent.
	metaWireBytes = 3 * binary.MaxVarintLen64
	// partWireBytes bounds a descPagePart's header: member and row count.
	partWireBytes = 2 * binary.MaxVarintLen64
)

// uvarintLen is the encoded length of x as a uvarint.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// varintLen is the encoded length of v as a zig-zag varint.
func varintLen(v int64) int { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

// polyRowWireBytes is the encoded size of one PolyRow: pre, blob length,
// blob.
func polyRowWireBytes(r PolyRow) int {
	return varintLen(r.Pre) + uvarintLen(uint64(len(r.Poly))) + len(r.Poly)
}

// bundleWireBytes is the encoded size of one equality bundle within a
// page (see appendBundles), less PartialNodePolys' flag byte: its node
// row, error, child count and child rows. Bundles are sized exactly, so
// a page fills its budget and its encoding grows its buffer once.
func bundleWireBytes(node PolyRow, kids []PolyRow, errMsg string) int {
	n := polyRowWireBytes(node) + uvarintLen(uint64(len(errMsg))) + len(errMsg) + uvarintLen(uint64(len(kids)))
	for _, c := range kids {
		n += polyRowWireBytes(c)
	}
	return n
}

func nodePolysWire(b NodePolys) int { return bundleWireBytes(b.Node, b.Children, b.Err) }

func partialNodePolysWire(b PartialNodePolys) int {
	return 1 + bundleWireBytes(b.Node, b.Children, b.Err)
}

// descPageArgs resumes a paged DescendantsBatch at Member; Resume is 0
// or the last pre already delivered for that member — a descendant
// interval is defined by (pre, post), so restarting the span at the
// last delivered pre makes the server scan only the remaining rows
// (the pathological giant member streams in O(total) work, not
// O(pages × total)).
type descPageArgs struct {
	Spans  []Span
	Member int
	Resume int64
}

// descPagePart is one member's (possibly partial) row run within a page.
type descPagePart struct {
	Member int
	Metas  []NodeMeta
}

type descPageReply struct {
	Parts      []descPagePart
	NextMember int
	NextResume int64
	Done       bool
}

// pageDescendants serves one page of a DescendantsBatch reply over any
// BatchAPI, splitting inside wide members at row granularity.
func pageDescendants(b BatchAPI, a descPageArgs) (descPageReply, error) {
	n := len(a.Spans)
	if a.Member < 0 || a.Member > n {
		return descPageReply{}, fmt.Errorf("filter: bad descendants page cursor %d", a.Member)
	}
	var rep descPageReply
	budget := ReplyByteBudget
	emitted := 0
	m, resume := a.Member, a.Resume
	for m < n {
		end := m + pageFetchChunk
		if end > n {
			end = n
		}
		window := make([]Span, end-m)
		copy(window, a.Spans[m:end])
		if resume > 0 {
			window[0] = Span{Pre: resume, Post: window[0].Post}
		}
		lists, err := b.DescendantsBatch(window)
		if err != nil {
			return descPageReply{}, err
		}
		if err := checkReplyLen(lists, end-m); err != nil {
			return descPageReply{}, err
		}
		for _, metas := range lists {
			take := len(metas)
			if fit := max(0, budget-partWireBytes) / metaWireBytes; take > fit {
				take = fit
			}
			if take == 0 && emitted == 0 && len(metas) > 0 {
				take = 1 // guarantee progress even past the budget
			}
			if take > 0 {
				rep.Parts = append(rep.Parts, descPagePart{Member: m, Metas: metas[:take]})
				budget -= partWireBytes + take*metaWireBytes
				emitted += take
			}
			if take < len(metas) {
				next := resume
				if take > 0 {
					next = metas[take-1].Pre
				}
				rep.NextMember, rep.NextResume = m, next
				return rep, nil
			}
			m, resume = m+1, 0
			if budget <= 0 && m < n {
				rep.NextMember, rep.NextResume = m, 0
				return rep, nil
			}
		}
	}
	rep.Done = true
	return rep, nil
}

// bundlePageArgs resumes a paged bundle batch (NodePolysBatch or
// NodePolysPartial) at member index Member.
type bundlePageArgs struct {
	Pres   []int64
	Member int
}

// bundlePage is one page of bundles: members [args.Member,
// args.Member+len(Bundles)) of the request, in order.
type bundlePage[T any] struct {
	Bundles []T
	Done    bool
}

// pageBundles serves one page of a bundle batch, splitting between
// bundles by encoded size with at least one bundle per page. The
// bundles of each fetched window that fit are joined once, at the end,
// into a slice of the page's length (a page within one window is that
// window's reply as is), so a long request buys no bundle headers the
// budget then turns away.
func pageBundles[T any](a bundlePageArgs, fetch func([]int64) ([]T, error), size func(T) int) (bundlePage[T], error) {
	n := len(a.Pres)
	if a.Member < 0 || a.Member > n {
		return bundlePage[T]{}, fmt.Errorf("filter: bad bundle page cursor %d", a.Member)
	}
	var fitted [][]T
	count, budget, m, full := 0, ReplyByteBudget, a.Member, false
	for m < n && !full {
		end := min(m+pageFetchChunk, n)
		part, err := fetch(a.Pres[m:end])
		if err != nil {
			return bundlePage[T]{}, err
		}
		if err := checkReplyLen(part, end-m); err != nil {
			return bundlePage[T]{}, err
		}
		k := 0
		for ; k < len(part) && !full; k++ {
			c := size(part[k])
			if c > budget && count+k > 0 {
				break // the next page re-fetches from here
			}
			budget -= c
			full = budget <= 0
		}
		full = full || k < len(part)
		fitted = append(fitted, part[:k])
		count, m = count+k, m+k
	}
	rep := bundlePage[T]{Done: m == n}
	if len(fitted) == 1 {
		rep.Bundles = fitted[0]
	} else if count > 0 {
		rep.Bundles = make([]T, 0, count)
		for _, part := range fitted {
			rep.Bundles = append(rep.Bundles, part...)
		}
	}
	return rep, nil
}

// remotePagedBundles drives a paged bundle method from the client side:
// loop pages until Done, validating that the (untrusted) server makes
// progress and answers exactly the requested members.
func remotePagedBundles[T any](r *Remote, method string, pres []int64) ([]T, error) {
	if len(pres) == 0 {
		return nil, nil
	}
	var out []T
	for {
		var rep bundlePage[T]
		if err := r.call(method, bundlePageArgs{Pres: pres, Member: len(out)}, &rep); err != nil {
			return nil, err
		}
		if len(rep.Bundles) == 0 && !rep.Done {
			return nil, &BadReplyError{Msg: fmt.Sprintf("paged %s reply made no progress at member %d", method, len(out))}
		}
		if out == nil && rep.Done {
			// One page: its bundles are the answer.
			if err := checkReplyLen(rep.Bundles, len(pres)); err != nil {
				return nil, err
			}
			return rep.Bundles, nil
		}
		if out == nil {
			out = make([]T, 0, len(pres))
		}
		out = append(out, rep.Bundles...)
		if len(out) > len(pres) {
			return nil, &BadReplyError{Msg: fmt.Sprintf("paged %s reply carried %d members for %d requests", method, len(out), len(pres))}
		}
		if rep.Done {
			if err := checkReplyLen(out, len(pres)); err != nil {
				return nil, err
			}
			return out, nil
		}
	}
}

// DescendantsBatch implements BatchAPI over the paged descendants
// method (byte-bounded reply frames, splitting inside wide subtrees),
// validating that the (untrusted) server's cursor makes progress.
func (r *Remote) DescendantsBatch(spans []Span) ([][]NodeMeta, error) {
	if len(spans) == 0 {
		return nil, nil
	}
	out := make([][]NodeMeta, len(spans))
	m, resume := 0, int64(0)
	for {
		var rep descPageReply
		if err := r.call(methodDescendantsPage, descPageArgs{Spans: spans, Member: m, Resume: resume}, &rep); err != nil {
			return nil, err
		}
		for _, p := range rep.Parts {
			if p.Member < m || p.Member >= len(spans) {
				return nil, &BadReplyError{Msg: fmt.Sprintf("paged descendants reply addressed member %d outside [%d, %d)", p.Member, m, len(spans))}
			}
			out[p.Member] = append(out[p.Member], p.Metas...)
		}
		if rep.Done {
			return out, nil
		}
		if rep.NextMember < m || rep.NextMember >= len(spans) ||
			(rep.NextMember == m && rep.NextResume <= resume) {
			return nil, &BadReplyError{Msg: fmt.Sprintf("paged descendants reply made no progress (cursor %d/%d -> %d/%d)",
				m, resume, rep.NextMember, rep.NextResume)}
		}
		m, resume = rep.NextMember, rep.NextResume
	}
}
