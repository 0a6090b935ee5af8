// Package xmldoc parses XML documents into trees carrying the pre/post/
// parent numbering that the paper (following Grust's XPath acceleration
// scheme) uses to flatten trees into a relational table (§5.1):
//
//   - pre(n):  1-based sequence number of n's open tag among all open tags
//   - post(n): 1-based sequence number of n's close tag among all close tags
//   - parent(n): pre of n's parent, 0 for the root
//
// The fundamental property (tested): d is a proper descendant of n iff
// pre(d) > pre(n) and post(d) < post(n); moreover descendants occupy the
// contiguous pre-interval (pre(n), pre(n)+size(n)].
//
// A streaming interface (Stream) mirrors the paper's SAX pipeline: memory
// proportional to document depth, as required for the "small clients, big
// servers" philosophy of §5.1.
package xmldoc

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// Node is one element node of a parsed document.
type Node struct {
	Name     string
	Pre      int64
	Post     int64
	Parent   *Node
	Children []*Node

	// Text is the concatenation of character data chunks directly inside
	// this element (excluding descendant elements' text), trimmed of
	// leading/trailing whitespace per chunk. The tag-only scheme of §3
	// ignores it; the trie enhancement of §4 expands it.
	Text string
}

// Size returns the number of proper descendants.
func (n *Node) Size() int64 {
	var size int64
	for _, c := range n.Children {
		size += 1 + c.Size()
	}
	return size
}

// Path returns the absolute slash path of the node (for diagnostics).
func (n *Node) Path() string {
	if n.Parent == nil {
		return "/" + n.Name
	}
	return n.Parent.Path() + "/" + n.Name
}

// Doc is a parsed document.
type Doc struct {
	Root  *Node
	Count int64 // total element nodes
	byPre map[int64]*Node
}

// Handler receives streaming document structure events in document order.
type Handler interface {
	StartElement(name string) error
	Text(data string) error // non-whitespace character data chunks
	EndElement(name string) error
}

// Stream parses XML from r, delivering events to h with O(depth) memory.
// Exactly one root element is required; processing instructions, comments
// and directives are skipped.
func Stream(r io.Reader, h Handler) error {
	dec := xml.NewDecoder(r)
	depth := 0
	seenRoot := false
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			if depth != 0 {
				return fmt.Errorf("xmldoc: unexpected EOF at depth %d", depth)
			}
			if !seenRoot {
				return fmt.Errorf("xmldoc: document has no root element")
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("xmldoc: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if depth == 0 && seenRoot {
				return fmt.Errorf("xmldoc: multiple root elements")
			}
			seenRoot = true
			depth++
			if err := h.StartElement(t.Name.Local); err != nil {
				return err
			}
		case xml.EndElement:
			depth--
			if err := h.EndElement(t.Name.Local); err != nil {
				return err
			}
		case xml.CharData:
			if depth == 0 {
				continue
			}
			s := strings.TrimSpace(string(t))
			if s == "" {
				continue
			}
			if err := h.Text(s); err != nil {
				return err
			}
		}
	}
}

// treeBuilder accumulates a Doc from stream events.
type treeBuilder struct {
	doc   *Doc
	stack []*Node
	pre   int64
	post  int64
}

func (b *treeBuilder) StartElement(name string) error {
	b.pre++
	n := &Node{Name: name, Pre: b.pre}
	if len(b.stack) > 0 {
		parent := b.stack[len(b.stack)-1]
		n.Parent = parent
		parent.Children = append(parent.Children, n)
	} else {
		b.doc.Root = n
	}
	b.doc.Count++
	b.doc.byPre[n.Pre] = n
	b.stack = append(b.stack, n)
	return nil
}

func (b *treeBuilder) Text(data string) error {
	n := b.stack[len(b.stack)-1]
	if n.Text == "" {
		n.Text = data
	} else {
		n.Text += " " + data
	}
	return nil
}

func (b *treeBuilder) EndElement(string) error {
	b.post++
	b.stack[len(b.stack)-1].Post = b.post
	b.stack = b.stack[:len(b.stack)-1]
	return nil
}

// Parse reads a whole document into a tree.
func Parse(r io.Reader) (*Doc, error) {
	b := &treeBuilder{doc: &Doc{byPre: map[int64]*Node{}}}
	if err := Stream(r, b); err != nil {
		return nil, err
	}
	return b.doc, nil
}

// ParseString parses a document held in a string.
func ParseString(s string) (*Doc, error) {
	return Parse(strings.NewReader(s))
}

// NodeByPre returns the node with the given pre number.
func (d *Doc) NodeByPre(pre int64) (*Node, bool) {
	n, ok := d.byPre[pre]
	return n, ok
}

// Walk visits nodes in document (pre) order; fn returning false prunes the
// node's subtree (children are skipped, the walk continues elsewhere).
func (d *Doc) Walk(fn func(*Node) bool) {
	if d.Root != nil {
		walk(d.Root, fn)
	}
}

func walk(n *Node, fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		walk(c, fn)
	}
}

// Rebuild recomputes pre/post/parent numbering and the byPre index after a
// structural transformation (e.g. trie expansion inserts synthetic nodes).
func (d *Doc) Rebuild() {
	d.byPre = map[int64]*Node{}
	d.Count = 0
	var pre, post int64
	var rec func(n *Node, parent *Node)
	rec = func(n *Node, parent *Node) {
		pre++
		n.Pre = pre
		n.Parent = parent
		d.Count++
		d.byPre[n.Pre] = n
		for _, c := range n.Children {
			rec(c, n)
		}
		post++
		n.Post = post
	}
	if d.Root != nil {
		rec(d.Root, nil)
	}
}

// IsDescendant reports the Grust descendant test on numbering alone.
func IsDescendant(d, n *Node) bool {
	return d.Pre > n.Pre && d.Post < n.Post
}

// WriteXML serializes the document as indented XML. Trie terminator nodes
// and other synthetic names are escaped by encoding/xml rules; Text is
// emitted before child elements.
func (d *Doc) WriteXML(w io.Writer) error {
	if d.Root == nil {
		return fmt.Errorf("xmldoc: empty document")
	}
	bw := &errWriter{w: w}
	writeNode(bw, d.Root, 0)
	return bw.err
}

type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) printf(format string, args ...any) {
	if ew.err != nil {
		return
	}
	_, ew.err = fmt.Fprintf(ew.w, format, args...)
}

func writeNode(w *errWriter, n *Node, depth int) {
	indent := strings.Repeat("  ", depth)
	if len(n.Children) == 0 && n.Text == "" {
		w.printf("%s<%s/>\n", indent, n.Name)
		return
	}
	w.printf("%s<%s>", indent, n.Name)
	if n.Text != "" {
		var esc strings.Builder
		if err := xml.EscapeText(&esc, []byte(n.Text)); err == nil {
			w.printf("%s", esc.String())
		}
	}
	if len(n.Children) > 0 {
		w.printf("\n")
		for _, c := range n.Children {
			writeNode(w, c, depth+1)
		}
		w.printf("%s</%s>\n", indent, n.Name)
	} else {
		w.printf("</%s>\n", n.Name)
	}
}

// Names returns the set of distinct element names in document order of
// first appearance — input for map generation when no DTD is available.
func (d *Doc) Names() []string {
	seen := map[string]bool{}
	var out []string
	d.Walk(func(n *Node) bool {
		if !seen[n.Name] {
			seen[n.Name] = true
			out = append(out, n.Name)
		}
		return true
	})
	return out
}
