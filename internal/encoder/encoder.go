// Package encoder is the Go counterpart of the paper's MySQLEncode class
// (§5.1): it turns a plaintext XML document into the server-side table of
// secret-shared node polynomials.
//
// The pipeline per §3:
//
//  1. stream-parse the XML (O(depth) memory, like the paper's SAX setup),
//  2. optionally expand text into tries (§4),
//  3. bottom-up, compute f(node) = (x − map(node)) · Π f(child) in the
//     reduced ring,
//  4. split each polynomial into a PRG client share (derived from the
//     node's pre value) and a server share,
//  5. emit (pre, post, parent, serverShare) rows to the sink.
//
// Only the server shares leave this package; the client keeps the seed.
package encoder

import (
	"fmt"
	"io"
	"time"

	"encshare/internal/mapping"
	"encshare/internal/ring"
	"encshare/internal/secshare"
	"encshare/internal/store"
	"encshare/internal/trie"
	"encshare/internal/xmldoc"
)

// RowSink receives encoded rows; *store.Store implements it.
type RowSink interface {
	InsertNode(store.NodeRow) error
}

// Options configures an encoding run.
type Options struct {
	Map    *mapping.Map     // secret tag/character map (required)
	Scheme *secshare.Scheme // ring + seeded PRG (required)
	// TrieMode expands element text per §4. The map must cover the
	// alphabet characters (and trie.Terminator) that occur in the text.
	TrieMode trie.Mode
}

// Stats reports what an encoding run produced — the quantities of the
// paper's Fig. 4.
type Stats struct {
	Nodes     int64         // rows emitted (elements + trie nodes)
	PolyBytes int64         // total polynomial payload
	MetaBytes int64         // pre/post/parent overhead (3 x 8 bytes per row)
	Elapsed   time.Duration // wall-clock encoding time
}

// OutputBytes is the total server-side storage excluding indexes.
func (s Stats) OutputBytes() int64 { return s.PolyBytes + s.MetaBytes }

// enc carries the streaming state: one frame per open element.
type enc struct {
	opts Options
	sink RowSink
	r    *ring.Ring

	// server is the scratch the next row's server share is split into;
	// only its serialized blob outlives emit.
	server ring.Poly

	pre   int64
	post  int64
	stack []frame
	stats Stats
}

type frame struct {
	name      string
	pre       int64
	parentPre int64
	childProd ring.Poly // product of completed children's polynomials
	text      string    // accumulated character data (expanded at close)
}

// EncodeStream encodes an XML document read from r.
func EncodeStream(src io.Reader, opts Options, sink RowSink) (Stats, error) {
	if opts.Map == nil || opts.Scheme == nil {
		return Stats{}, fmt.Errorf("encoder: Map and Scheme are required")
	}
	start := time.Now()
	e := &enc{opts: opts, sink: sink, r: opts.Scheme.Ring()}
	if err := xmldoc.Stream(src, e); err != nil {
		return e.stats, err
	}
	e.stats.Elapsed = time.Since(start)
	return e.stats, nil
}

// EncodeDoc encodes an already parsed document by replaying it as stream
// events, guaranteeing identical output to EncodeStream on the same
// serialized document.
func EncodeDoc(d *xmldoc.Doc, opts Options, sink RowSink) (Stats, error) {
	if opts.Map == nil || opts.Scheme == nil {
		return Stats{}, fmt.Errorf("encoder: Map and Scheme are required")
	}
	if d.Root == nil {
		return Stats{}, fmt.Errorf("encoder: empty document")
	}
	start := time.Now()
	e := &enc{opts: opts, sink: sink, r: opts.Scheme.Ring()}
	if err := replay(d.Root, e); err != nil {
		return e.stats, err
	}
	e.stats.Elapsed = time.Since(start)
	return e.stats, nil
}

func replay(n *xmldoc.Node, e *enc) error {
	if err := e.StartElement(n.Name); err != nil {
		return err
	}
	if n.Text != "" {
		if err := e.Text(n.Text); err != nil {
			return err
		}
	}
	for _, c := range n.Children {
		if err := replay(c, e); err != nil {
			return err
		}
	}
	return e.EndElement(n.Name)
}

// StartElement implements xmldoc.Handler.
func (e *enc) StartElement(name string) error {
	e.pre++
	parentPre := int64(0)
	if len(e.stack) > 0 {
		parentPre = e.stack[len(e.stack)-1].pre
	}
	e.stack = append(e.stack, frame{
		name:      name,
		pre:       e.pre,
		parentPre: parentPre,
		childProd: e.r.One(),
	})
	return nil
}

// Text implements xmldoc.Handler: character data is buffered on the
// enclosing element and expanded when it closes.
func (e *enc) Text(data string) error {
	f := &e.stack[len(e.stack)-1]
	if f.text == "" {
		f.text = data
	} else {
		f.text += " " + data
	}
	return nil
}

// EndElement implements xmldoc.Handler: here the node's polynomial is
// completed, shared and emitted.
func (e *enc) EndElement(string) error {
	f := &e.stack[len(e.stack)-1]

	// §4: expand buffered text into trie subtrees, emitted as extra
	// children of this element.
	if f.text != "" && e.opts.TrieMode != trie.Off {
		for _, root := range trie.BuildSubtree(f.text, e.opts.TrieMode) {
			poly, err := e.emitSubtree(root, f.pre)
			if err != nil {
				return err
			}
			f.childProd = e.r.Mul(f.childProd, poly)
		}
	}

	val, err := e.opts.Map.Value(f.name)
	if err != nil {
		return fmt.Errorf("encoder: element %q: %w", f.name, err)
	}
	poly := e.r.MulLinear(f.childProd, val)
	if err := e.emit(poly, f.pre, f.parentPre); err != nil {
		return err
	}

	e.stack = e.stack[:len(e.stack)-1]
	if len(e.stack) > 0 {
		p := &e.stack[len(e.stack)-1]
		p.childProd = e.r.Mul(p.childProd, poly)
	}
	return nil
}

// emitSubtree assigns numbering to a synthetic (trie) subtree, emits all
// of its rows bottom-up, and returns the subtree root's polynomial.
func (e *enc) emitSubtree(n *xmldoc.Node, parentPre int64) (ring.Poly, error) {
	e.pre++
	myPre := e.pre
	prod := e.r.One()
	for _, c := range n.Children {
		childPoly, err := e.emitSubtree(c, myPre)
		if err != nil {
			return nil, err
		}
		prod = e.r.Mul(prod, childPoly)
	}
	val, err := e.opts.Map.Value(n.Name)
	if err != nil {
		return nil, fmt.Errorf("encoder: trie node %q: %w (is the alphabet in the map file?)", n.Name, err)
	}
	poly := e.r.MulLinear(prod, val)
	if err := e.emit(poly, myPre, parentPre); err != nil {
		return nil, err
	}
	return poly, nil
}

// emit splits a completed polynomial and writes its row. poly itself is
// left intact: the caller still multiplies it into the parent's product.
func (e *enc) emit(poly ring.Poly, pre, parentPre int64) error {
	e.post++
	if e.server == nil {
		e.server = e.r.NewPoly()
	}
	blob := e.r.Bytes(e.opts.Scheme.SplitInto(e.server, poly, uint64(pre)))
	row := store.NodeRow{Pre: pre, Post: e.post, Parent: parentPre, Poly: blob}
	if err := e.sink.InsertNode(row); err != nil {
		return err
	}
	e.stats.Nodes++
	e.stats.PolyBytes += int64(len(blob))
	e.stats.MetaBytes += 24
	return nil
}
