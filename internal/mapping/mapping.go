// Package mapping implements the secret tag-name map of the scheme
// (paper §3 step 1 and §5.1): an injective function from tag names (and,
// with the trie enhancement, alphabet characters) to nonzero elements of
// F_q.
//
// The map file is "a property file where each line is of the form
// name = value" and is part of the client's secret key material: without
// it, evaluation points are meaningless. Values must be nonzero because
// reduction mod x^(q-1) − 1 only preserves evaluation at points of F_q^*.
package mapping

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"encshare/internal/gf"
)

// Map is an injective assignment of names to values in F_q^*. Immutable
// after construction; safe for concurrent use.
type Map struct {
	field  *gf.Field
	byName map[string]gf.Elem
	byVal  map[gf.Elem]string

	freeOnce sync.Once
	free     []gf.Elem
}

// ErrUnknownName is returned (wrapped) when a queried name has no mapping.
type UnknownNameError struct{ Name string }

func (e *UnknownNameError) Error() string {
	return fmt.Sprintf("mapping: unknown name %q", e.Name)
}

// Generate assigns deterministic values 1, 2, 3, ... to the given names in
// the order provided, skipping duplicates. It fails if the distinct names
// do not fit in F_q^* (q − 1 values).
func Generate(f *gf.Field, names []string) (*Map, error) {
	m := &Map{
		field:  f,
		byName: make(map[string]gf.Elem, len(names)),
		byVal:  make(map[gf.Elem]string, len(names)),
	}
	next := gf.Elem(1)
	for _, n := range names {
		if n == "" {
			return nil, fmt.Errorf("mapping: empty name")
		}
		if _, ok := m.byName[n]; ok {
			continue
		}
		if next >= f.Q() {
			return nil, fmt.Errorf("mapping: %d distinct names exceed field capacity q-1 = %d", len(m.byName)+1, f.Q()-1)
		}
		m.byName[n] = next
		m.byVal[next] = n
		next++
	}
	return m, nil
}

// Load parses a map file. Lines are "name = value"; blank lines and lines
// starting with '#' are ignored. Values must be distinct, nonzero and less
// than q.
func Load(f *gf.Field, r io.Reader) (*Map, error) {
	m := &Map{field: f, byName: map[string]gf.Elem{}, byVal: map[gf.Elem]string{}}
	sc := bufio.NewScanner(r)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		eq := strings.Index(line, "=")
		if eq < 0 {
			return nil, fmt.Errorf("mapping: line %d: missing '='", lineno)
		}
		name := strings.TrimSpace(line[:eq])
		valStr := strings.TrimSpace(line[eq+1:])
		if name == "" {
			return nil, fmt.Errorf("mapping: line %d: empty name", lineno)
		}
		v, err := strconv.ParseUint(valStr, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("mapping: line %d: bad value %q: %w", lineno, valStr, err)
		}
		val := gf.Elem(v)
		if val == 0 || val >= f.Q() {
			return nil, fmt.Errorf("mapping: line %d: value %d outside F_%d^*", lineno, val, f.Q())
		}
		if _, dup := m.byName[name]; dup {
			return nil, fmt.Errorf("mapping: line %d: duplicate name %q", lineno, name)
		}
		if prev, dup := m.byVal[val]; dup {
			return nil, fmt.Errorf("mapping: line %d: value %d already assigned to %q", lineno, val, prev)
		}
		m.byName[name] = val
		m.byVal[val] = name
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("mapping: reading map file: %w", err)
	}
	return m, nil
}

// Save writes the map in the property-file format, sorted by name for
// reproducible output.
func (m *Map) Save(w io.Writer) error {
	names := make([]string, 0, len(m.byName))
	for n := range m.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	bw := bufio.NewWriter(w)
	for _, n := range names {
		if _, err := fmt.Fprintf(bw, "%s = %d\n", n, m.byName[n]); err != nil {
			return fmt.Errorf("mapping: writing map file: %w", err)
		}
	}
	return bw.Flush()
}

// Field returns the field the values live in.
func (m *Map) Field() *gf.Field { return m.field }

// Len returns the number of mapped names.
func (m *Map) Len() int { return len(m.byName) }

// Value returns the field value for name.
func (m *Map) Value(name string) (gf.Elem, error) {
	v, ok := m.byName[name]
	if !ok {
		return 0, &UnknownNameError{Name: name}
	}
	return v, nil
}

// Has reports whether name is mapped.
func (m *Map) Has(name string) bool {
	_, ok := m.byName[name]
	return ok
}

// Name returns the name mapped to value v, if any.
func (m *Map) Name(v gf.Elem) (string, bool) {
	n, ok := m.byVal[v]
	return n, ok
}

// Names returns all mapped names, sorted.
func (m *Map) Names() []string {
	out := make([]string, 0, len(m.byName))
	for n := range m.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// strictPoints is how many free points FreePoints returns at most.
const strictPoints = 2

// FreePoints returns the points of the one-point strict test: the
// smallest strictPoints elements of F_q^* that no name maps to, in
// increasing order. Fewer come back when fewer are free, none when the
// names fill F_q^*. They are a function of the map alone, found on the
// first call (O(q)) and kept.
//
// Evaluation at a nonzero point is a ring homomorphism, and a node
// polynomial is f_N = (x − s)·Π f_c with every root in the map's image,
// so at a free point a no child factor vanishes and f_N(a) =
// (a − t)·Π f_c(a) holds exactly when s = t. One point decides a check
// for the right key; each further point divides by q the chance that a
// wrong key passes one.
func (m *Map) FreePoints() []gf.Elem {
	m.freeOnce.Do(func() {
		for v := gf.Elem(1); v < m.field.Q() && len(m.free) < strictPoints; v++ {
			if _, used := m.byVal[v]; !used {
				m.free = append(m.free, v)
			}
		}
	})
	return m.free
}
