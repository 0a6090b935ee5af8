package store

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// model is the reference the store is checked against: every row in
// one slice sorted by pre, each read answered straight from its
// definition with no index. It shares no code with the page or tree
// layers.
type model struct{ rows []NodeRow }

func (m *model) find(pre int64) (int, bool) {
	i := sort.Search(len(m.rows), func(i int) bool { return m.rows[i].Pre >= pre })
	return i, i < len(m.rows) && m.rows[i].Pre == pre
}

func (m *model) InsertNode(row NodeRow) error {
	i, dup := m.find(row.Pre)
	if dup {
		return fmt.Errorf("model: insert pre=%d: duplicate key", row.Pre)
	}
	row.Poly = bytes.Clone(row.Poly)
	m.rows = slices.Insert(m.rows, i, row)
	return nil
}

func (m *model) UpdateNode(oldPre int64, row NodeRow) error {
	i, ok := m.find(oldPre)
	if !ok {
		return NotFoundError(oldPre)
	}
	if _, dup := m.find(row.Pre); dup && row.Pre != oldPre {
		return fmt.Errorf("model: update pre=%d: new pre %d duplicates an existing row", oldPre, row.Pre)
	}
	m.rows = slices.Delete(m.rows, i, i+1)
	return m.InsertNode(row)
}

func (m *model) DeleteNode(pre int64) error {
	i, ok := m.find(pre)
	if !ok {
		return NotFoundError(pre)
	}
	m.rows = slices.Delete(m.rows, i, i+1)
	return nil
}

func (m *model) Node(pre int64) (NodeRow, error) {
	if i, ok := m.find(pre); ok {
		return m.rows[i], nil
	}
	return NodeRow{}, NotFoundError(pre)
}

// Root is the unique row whose parent is 0.
func (m *model) Root() (NodeRow, error) {
	switch roots := m.Children(0); len(roots) {
	case 0:
		return NodeRow{}, fmt.Errorf("model: root: %w", ErrNotFound)
	case 1:
		return roots[0], nil
	default:
		return NodeRow{}, fmt.Errorf("model: %d root nodes", len(roots))
	}
}

// Children are the rows whose parent is pre, in pre order.
func (m *model) Children(pre int64) []NodeRow {
	var out []NodeRow
	for _, r := range m.rows {
		if r.Parent == pre {
			out = append(out, r)
		}
	}
	return out
}

// Descendants of (pre, post) are the rows with pre in (pre, b), where b
// is the smallest stored pre greater than pre whose post exceeds post.
func (m *model) Descendants(pre, post int64) []NodeRow {
	b := int64(math.MaxInt64)
	for _, r := range m.after(pre) {
		if r.Post > post {
			b = r.Pre
			break
		}
	}
	return m.Range(pre+1, b-1)
}

// DescendantsNaive is the post-filter: every row after pre whose post
// is below post.
func (m *model) DescendantsNaive(pre, post int64) []NodeRow {
	var out []NodeRow
	for _, r := range m.after(pre) {
		if r.Post < post {
			out = append(out, r)
		}
	}
	return out
}

func (m *model) Range(lo, hi int64) []NodeRow {
	var out []NodeRow
	for _, r := range m.after(lo - 1) {
		if r.Pre > hi {
			break
		}
		out = append(out, r)
	}
	return out
}

// after is the rows whose pre exceeds pre.
func (m *model) after(pre int64) []NodeRow {
	i, ok := m.find(pre)
	if ok {
		i++
	}
	return m.rows[i:]
}

func (m *model) MinMaxPre() (int64, int64, error) {
	if len(m.rows) == 0 {
		return 0, 0, fmt.Errorf("model: min/max pre of empty table: %w", ErrNotFound)
	}
	return m.rows[0].Pre, m.rows[len(m.rows)-1].Pre, nil
}

func (m *model) Count() int64 { return int64(len(m.rows)) }

// meta strips the share blobs, as the store's *Meta reads do.
func meta(rows []NodeRow) []NodeRow {
	out := make([]NodeRow, len(rows))
	for i, r := range rows {
		out[i] = NodeRow{Pre: r.Pre, Post: r.Post, Parent: r.Parent}
	}
	return out
}

// sameErr: both succeed, or both fail and agree on ErrNotFound.
func sameErr(a, b error) bool {
	return (a == nil) == (b == nil) && errors.Is(a, ErrNotFound) == errors.Is(b, ErrNotFound)
}

func sameRow(a, b NodeRow) bool {
	return a.Pre == b.Pre && a.Post == b.Post && a.Parent == b.Parent && bytes.Equal(a.Poly, b.Poly)
}

// checkAgainstModel compares every read API of s with m: Count,
// MinMaxPre and Root once; Node, NodeMeta, Children, ChildrenMeta,
// VisitChildrenMeta, ChildCount, Bundle, DecodePoly, Descendants, DescendantsMeta and VisitDescendantsMeta at
// every stored pre, both ends of the table plus one, and 64 seeded pres
// in between, stored or not (DescendantsNaive, a scan to the table's
// end, at every eighth of those); Range over the whole table and over
// seeded windows, inverted ones included.
func checkAgainstModel(t *testing.T, s *Store, m *model) {
	t.Helper()
	rows := func(what string, got []NodeRow, err error, want []NodeRow) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, model %d", what, len(got), len(want))
		}
		for i := range want {
			if !sameRow(got[i], want[i]) {
				t.Fatalf("%s[%d] = %+v, model %+v", what, i, got[i], want[i])
			}
		}
	}
	row := func(what string, got NodeRow, err error, want NodeRow, werr error) {
		t.Helper()
		if !sameErr(err, werr) || (err == nil && !sameRow(got, want)) {
			t.Fatalf("%s = %+v, %v; model %+v, %v", what, got, err, want, werr)
		}
	}

	if n, err := s.Count(); err != nil || n != m.Count() {
		t.Fatalf("Count = %d, %v; model %d", n, err, m.Count())
	}
	lo, hi, err := s.MinMaxPre()
	mlo, mhi, merr := m.MinMaxPre()
	if !sameErr(err, merr) || lo != mlo || hi != mhi {
		t.Fatalf("MinMaxPre = %d, %d, %v; model %d, %d, %v", lo, hi, err, mlo, mhi, merr)
	}
	root, err := s.Root()
	mroot, merr := m.Root()
	row("Root", root, err, mroot, merr)

	if len(m.rows) == 0 {
		mlo, mhi = 1, 2
	}
	rng := rand.New(rand.NewSource(mhi))
	probes := []int64{mlo - 1, mhi + 1}
	for i := 0; i < 64; i++ {
		probes = append(probes, mlo+rng.Int63n(mhi-mlo+1))
	}
	for _, r := range m.rows {
		probes = append(probes, r.Pre)
	}
	for i, pre := range probes {
		want, werr := m.Node(pre)
		got, err := s.Node(pre)
		row(fmt.Sprintf("Node(%d)", pre), got, err, want, werr)
		got, err = s.NodeMeta(pre)
		row(fmt.Sprintf("NodeMeta(%d)", pre), got, err, meta([]NodeRow{want})[0], werr)

		kids := m.Children(pre)
		got2, err := s.Children(pre)
		rows(fmt.Sprintf("Children(%d)", pre), got2, err, kids)
		got2, err = s.ChildrenMeta(pre)
		rows(fmt.Sprintf("ChildrenMeta(%d)", pre), got2, err, meta(kids))
		var visitedKids []NodeRow
		err = s.VisitChildrenMeta(pre, func(pre, post, parent int64) {
			visitedKids = append(visitedKids, NodeRow{Pre: pre, Post: post, Parent: parent})
		})
		rows(fmt.Sprintf("VisitChildrenMeta(%d)", pre), visitedKids, err, meta(kids))
		if n, err := s.ChildCount(pre); err != nil || n != int64(len(kids)) {
			t.Fatalf("ChildCount(%d) = %d, %v; model %d", pre, n, err, len(kids))
		}

		node, has, bkids, err := Bundle[blobRowT](s, pre)
		if err != nil || has != (werr == nil) || (has && (node.Pre != pre || !bytes.Equal(node.Poly, want.Poly))) {
			t.Fatalf("Bundle(%d) node = %+v, %v, %v; model %+v, %v", pre, node, has, err, want, werr)
		}
		if len(bkids) != len(kids) {
			t.Fatalf("Bundle(%d): %d children, model %d", pre, len(bkids), len(kids))
		}
		for j, k := range bkids {
			if k.Pre != kids[j].Pre || !bytes.Equal(k.Poly, kids[j].Poly) {
				t.Fatalf("Bundle(%d) child %d = %+v, model %+v", pre, j, k, kids[j])
			}
		}
		var blob []byte
		err = s.DecodePoly(pre, func(b []byte) error { blob = append([]byte(nil), b...); return nil })
		if !sameErr(err, werr) || (err == nil && !bytes.Equal(blob, want.Poly)) {
			t.Fatalf("DecodePoly(%d) = %x, %v; model %x, %v", pre, blob, err, want.Poly, werr)
		}

		// Stored rows probe their own subtree, absent pres an arbitrary one.
		post := pre + 2
		if werr == nil {
			post = want.Post
		}
		desc := m.Descendants(pre, post)
		got2, err = s.Descendants(pre, post)
		rows(fmt.Sprintf("Descendants(%d, %d)", pre, post), got2, err, desc)
		got2, err = s.DescendantsMeta(pre, post)
		rows(fmt.Sprintf("DescendantsMeta(%d, %d)", pre, post), got2, err, meta(desc))
		var visited []NodeRow
		err = s.VisitDescendantsMeta(pre, post, func(pre, post, parent int64) {
			visited = append(visited, NodeRow{Pre: pre, Post: post, Parent: parent})
		})
		rows(fmt.Sprintf("VisitDescendantsMeta(%d, %d)", pre, post), visited, err, meta(desc))
		if i%8 == 0 { // a full scan to the table's end: sampled
			got2, err = s.DescendantsNaive(pre, post)
			rows(fmt.Sprintf("DescendantsNaive(%d, %d)", pre, post), got2, err, m.DescendantsNaive(pre, post))
		}
	}

	got, err := s.Range(mlo-1, mhi+1)
	rows("Range(all)", got, err, m.Range(mlo-1, mhi+1))
	for i := 0; i < 32; i++ {
		a, b := mlo-2+rng.Int63n(mhi-mlo+4), mlo-2+rng.Int63n(mhi-mlo+4)
		got, err := s.Range(a, b)
		rows(fmt.Sprintf("Range(%d, %d)", a, b), got, err, m.Range(a, b))
	}
}

// randomOps drives one seeded op script into s and the model m and
// requires both to accept and refuse the same ops: inserts, in-place
// updates, renumbering updates (UpdateNode with row.Pre != oldPre, the
// call the mutation planner issues for every row an edit shifts),
// deletes, re-inserts of a live pre, renumbering onto a live pre, and
// updates and deletes of absent rows (ErrNotFound). It returns, per op
// kind, how many ops were accepted and how many refused.
func randomOps(t *testing.T, s *Store, m *model, seed int64, n int) map[string][2]int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mkRow := func(pre int64, spread int) NodeRow {
		poly := make([]byte, 40+rng.Intn(100))
		for i := range poly {
			poly[i] = byte(pre + int64(i+spread))
		}
		return NodeRow{Pre: pre, Post: pre + int64(rng.Intn(spread)), Parent: pre / 2, Poly: poly}
	}
	// pick returns a stored pre seven times in eight, else any pre in
	// the table's span, stored or not.
	pick := func() int64 {
		if len(m.rows) > 0 && rng.Intn(8) > 0 {
			return m.rows[rng.Intn(len(m.rows))].Pre
		}
		return 1 + rng.Int63n(int64(2*len(m.rows)+4))
	}
	tally := map[string][2]int{}
	for i := 0; i < n; i++ {
		var kind string
		var errS, errM error
		switch op := rng.Intn(20); {
		case op < 10 || len(m.rows) == 0:
			kind = "insert"
			pre := int64(2*len(m.rows) + 1 + rng.Intn(2))
			for _, live := m.find(pre); live; _, live = m.find(pre) {
				pre++
			}
			row := mkRow(pre, 5)
			errS, errM = s.InsertNode(row), m.InsertNode(row)
		case op < 13:
			kind = "update"
			pre := pick()
			row := mkRow(pre, 7)
			errS, errM = s.UpdateNode(pre, row), m.UpdateNode(pre, row)
		case op < 16:
			kind = "renumber"
			old := pick()
			pre := old + int64(rng.Intn(7)-3)
			if pre == old || pre < 1 {
				pre = old + 4
			}
			row := mkRow(pre, 5)
			errS, errM = s.UpdateNode(old, row), m.UpdateNode(old, row)
		case op < 17:
			kind = "reinsert"
			row := mkRow(pick(), 5)
			errS, errM = s.InsertNode(row), m.InsertNode(row)
		default:
			kind = "delete"
			pre := pick()
			errS, errM = s.DeleteNode(pre), m.DeleteNode(pre)
		}
		if !sameErr(errS, errM) {
			t.Fatalf("op %d (%s): store err %v, model err %v", i, kind, errS, errM)
		}
		c := tally[kind]
		if errS == nil {
			c[0]++
		} else {
			c[1]++
		}
		tally[kind] = c
	}
	return tally
}

// TestStoreMatchesModel drives the store and the model with one seeded
// op script and compares every read API; then again after Dump→Load
// into a fresh table, and once more after a second script runs on the
// loaded table.
func TestStoreMatchesModel(t *testing.T) {
	s, m := newStore(t), &model{}
	checkAgainstModel(t, s, m)
	tally := randomOps(t, s, m, 11, 4000)
	for _, kind := range []string{"insert", "update", "renumber", "reinsert", "delete"} {
		if c := tally[kind]; c[0] == 0 || c[1] == 0 && kind != "insert" {
			t.Fatalf("%s: %d accepted, %d refused — the script misses a case", kind, c[0], c[1])
		}
	}
	checkAgainstModel(t, s, m)

	var img bytes.Buffer
	if err := s.Dump(&img); err != nil {
		t.Fatal(err)
	}
	loaded := openBare(t)
	if err := loaded.Load(&img); err != nil {
		t.Fatal(err)
	}
	checkAgainstModel(t, loaded, m)
	randomOps(t, loaded, m, 12, 1000)
	checkAgainstModel(t, loaded, m)
}

// TestStoreConcurrentReadWrite runs readers against one writer. The
// writer drives the model's op script in the test goroutine while
// readers loop Node, Children, Descendants, Range, Bundle, DecodePoly,
// VisitChildrenMeta and Dump. The table's RWMutex is the only thing
// that orders page bytes, so every read must see one consistent table. Its rows come back in pre order
// and inside the bounds asked for. Each share blob still holds the
// pattern randomOps wrote for its pre when read after the call
// returns, so a blob aliasing a page that a later UPDATE rewrites is
// caught (and is a data race under -race). A dump taken mid-script
// loads. The only error allowed is not-found, and the final table
// must match the model.
func TestStoreConcurrentReadWrite(t *testing.T) {
	s, m := newStore(t), &model{}
	randomOps(t, s, m, 21, 200)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var haltOnce sync.Once
	halt := func() { haltOnce.Do(func() { close(stop); wg.Wait() }) }
	defer halt()
	for seed := int64(1); seed <= 3; seed++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := readConsistent(s, rng, i); err != nil {
					t.Error(err)
					return
				}
			}
		}(seed)
	}
	randomOps(t, s, m, 22, 2000)
	halt()
	checkAgainstModel(t, s, m)
}

// readConsistent makes read number i of one concurrent reader and
// checks what it saw.
func readConsistent(s *Store, rng *rand.Rand, i int) error {
	n, err := s.Count()
	if err != nil {
		return err
	}
	pre := 1 + rng.Int63n(2*n+4)
	var rows []NodeRow
	switch i % 8 {
	case 0:
		r, err := s.Node(pre)
		if errors.Is(err, ErrNotFound) {
			return nil
		}
		if err != nil || r.Pre != pre {
			return fmt.Errorf("Node(%d) = pre %d, %v", pre, r.Pre, err)
		}
		rows = []NodeRow{r}
	case 1:
		if rows, err = s.Children(pre); err != nil {
			return fmt.Errorf("Children(%d): %v", pre, err)
		}
		for _, r := range rows {
			if r.Parent != pre {
				return fmt.Errorf("Children(%d) holds pre %d with parent %d", pre, r.Pre, r.Parent)
			}
		}
	case 2:
		post := pre + rng.Int63n(8)
		if rows, err = s.Descendants(pre, post); err != nil {
			return fmt.Errorf("Descendants(%d, %d): %v", pre, post, err)
		}
		for _, r := range rows {
			if r.Pre <= pre || r.Post > post {
				return fmt.Errorf("Descendants(%d, %d) holds (%d, %d)", pre, post, r.Pre, r.Post)
			}
		}
	case 3:
		hi := pre + rng.Int63n(64)
		if rows, err = s.Range(pre, hi); err != nil {
			return fmt.Errorf("Range(%d, %d): %v", pre, hi, err)
		}
		for _, r := range rows {
			if r.Pre < pre || r.Pre > hi {
				return fmt.Errorf("Range(%d, %d) holds pre %d", pre, hi, r.Pre)
			}
		}
	case 4:
		node, has, kids, err := Bundle[blobRowT](s, pre)
		if err != nil {
			return fmt.Errorf("Bundle(%d): %v", pre, err)
		}
		if has {
			if node.Pre != pre {
				return fmt.Errorf("Bundle(%d) node is pre %d", pre, node.Pre)
			}
			rows = append(rows, NodeRow{Pre: node.Pre, Poly: node.Poly})
		}
		for _, k := range kids {
			rows = append(rows, NodeRow{Pre: k.Pre, Poly: k.Poly})
		}
	case 5:
		var poly []byte
		err := s.DecodePoly(pre, func(blob []byte) error {
			poly = append([]byte(nil), blob...)
			return nil
		})
		if errors.Is(err, ErrNotFound) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("DecodePoly(%d): %v", pre, err)
		}
		rows = []NodeRow{{Pre: pre, Poly: poly}}
	case 6:
		// Meta only: the pattern check below needs blobs, so this read
		// checks its own order.
		var bad error
		last := int64(math.MinInt64)
		err := s.VisitChildrenMeta(pre, func(kid, _, parent int64) {
			if bad == nil && (parent != pre || kid <= last) {
				bad = fmt.Errorf("VisitChildrenMeta(%d) visits pre %d with parent %d after %d", pre, kid, parent, last)
			}
			last = kid
		})
		if err != nil {
			return fmt.Errorf("VisitChildrenMeta(%d): %v", pre, err)
		}
		return bad
	default:
		if i%40 != 7 {
			return nil
		}
		var img bytes.Buffer
		if err := s.Dump(&img); err != nil {
			return err
		}
		dsn := FreshDSN()
		defer Drop(dsn)
		copied, err := Open(dsn)
		if err != nil {
			return err
		}
		if err := copied.Load(&img); err != nil {
			return fmt.Errorf("a dump taken mid-script does not load: %v", err)
		}
		return nil
	}
	for j, r := range rows {
		if j > 0 && r.Pre <= rows[j-1].Pre {
			return fmt.Errorf("read %d: pre %d after %d", i, r.Pre, rows[j-1].Pre)
		}
		if !randomOpsPoly(r) {
			return fmt.Errorf("read %d: pre %d has a torn share blob", i, r.Pre)
		}
	}
	return nil
}

// blobRowT is a row type Bundle can fill.
type blobRowT struct {
	Pre  int64
	Poly []byte
}

// randomOpsPoly reports whether r's blob has the shape randomOps gives
// every row it writes: byte k is pre+spread+k, spread 5 or 7.
func randomOpsPoly(r NodeRow) bool {
	if len(r.Poly) < 40 {
		return false
	}
	if s := r.Poly[0] - byte(r.Pre); s != 5 && s != 7 {
		return false
	}
	for k, b := range r.Poly {
		if b != r.Poly[0]+byte(k) {
			return false
		}
	}
	return true
}
