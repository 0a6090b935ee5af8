// Byte-aware batch reply framing. The client-side chunking in batch.go
// bounds batch *member counts*, but a single pathological member — a
// giant subtree in DescendantsBatch, a node with thousands of children in
// NodePolysBatch — could still blow the 64 MiB rmi frame, because member
// count says nothing about reply bytes. The paged protocol bounds the
// reply itself: the server fills one page up to a byte budget (estimated
// from the encoded size of each row) and returns a resume cursor; the
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
)

// ReplyByteBudget bounds the encoded members of one paged reply frame.
// The size functions below are upper bounds on the binary layout (see
// wire.go), so a page's members never exceed the budget — except the
// single member a page always carries to make progress — and the frame
// header and page trailer (a few dozen bytes) fit in the margin left
// under the 64 MiB rmi frame limit. Exported as a tuning knob: servers
// on memory-constrained hosts can shrink it, and tests shrink it to
// force multi-page replies (including the chaos tests that kill a
// replica between pages).
var ReplyByteBudget = 48 << 20

// pageFetchChunk is how many members the server fetches at a time while
// filling a page — keeps the worker pool busy without fetching far past
// the byte budget (over-fetched members are re-fetched on the next page).
var pageFetchChunk = 128

// Upper bounds on encoded sizes: every integer takes at most one full
// varint, a blob or string its bytes plus a length varint.
const (
	// metaWireBytes bounds one NodeMeta: pre, post, parent.
	metaWireBytes = 3 * binary.MaxVarintLen64
	// partWireBytes bounds a descPagePart's header: member and row count.
	partWireBytes = 2 * binary.MaxVarintLen64
)

// polyRowWireBytes bounds one encoded PolyRow: pre, blob length, blob.
func polyRowWireBytes(r PolyRow) int { return 2*binary.MaxVarintLen64 + len(r.Poly) }

// bundleWireBytes bounds one encoded equality bundle: its child count,
// flag, node row, error, and child rows.
func bundleWireBytes(node PolyRow, kids []PolyRow, errMsg string) int {
	n := 2*binary.MaxVarintLen64 + 1 + polyRowWireBytes(node) + len(errMsg)
	for _, c := range kids {
		n += polyRowWireBytes(c)
	}
	return n
}

func nodePolysWire(b NodePolys) int { return bundleWireBytes(b.Node, b.Children, b.Err) }

func partialNodePolysWire(b PartialNodePolys) int {
	return bundleWireBytes(b.Node, b.Children, b.Err)
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
// bundles by estimated encoded size with at least one bundle per page.
func pageBundles[T any](a bundlePageArgs, fetch func([]int64) ([]T, error), size func(T) int) (bundlePage[T], error) {
	n := len(a.Pres)
	if a.Member < 0 || a.Member > n {
		return bundlePage[T]{}, fmt.Errorf("filter: bad bundle page cursor %d", a.Member)
	}
	// Room for a whole client chunk up front. Only a peer that ignores
	// the chunking asks for more, and the budget bounds what it gets.
	rep := bundlePage[T]{Bundles: make([]T, 0, min(n-a.Member, polyChunkSize))}
	budget := ReplyByteBudget
	m := a.Member
	for m < n && budget > 0 {
		end := m + pageFetchChunk
		if end > n {
			end = n
		}
		part, err := fetch(a.Pres[m:end])
		if err != nil {
			return bundlePage[T]{}, err
		}
		if err := checkReplyLen(part, end-m); err != nil {
			return bundlePage[T]{}, err
		}
		for _, bdl := range part {
			c := size(bdl)
			if c > budget && len(rep.Bundles) > 0 {
				return rep, nil // next page re-fetches from here
			}
			rep.Bundles = append(rep.Bundles, bdl)
			budget -= c
			m++
			if budget <= 0 {
				break
			}
		}
	}
	rep.Done = m == n
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
