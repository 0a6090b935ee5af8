package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// ---- row codec ----

func TestRowCodecRoundTrip(t *testing.T) {
	for _, row := range []NodeRow{
		{Pre: 1, Post: 1, Parent: 0, Poly: []byte{}},
		{Pre: 42, Post: 7, Parent: 3, Poly: []byte{1, 2, 3}},
		{Pre: -1, Post: -9, Parent: 1 << 40, Poly: bytes.Repeat([]byte{0xAB}, 500)},
	} {
		b := encodeRow(nil, row)
		if len(b) != rowSize(row) {
			t.Fatalf("encoded %d bytes, rowSize says %d", len(b), rowSize(row))
		}
		got, err := decodeRow(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.Pre != row.Pre || got.Post != row.Post || got.Parent != row.Parent || !bytes.Equal(got.Poly, row.Poly) {
			t.Fatalf("round trip: %+v != %+v", got, row)
		}
		pre, post, parent := decodeRowMeta(b)
		if pre != row.Pre || post != row.Post || parent != row.Parent {
			t.Fatalf("meta decode (%d, %d, %d) != %+v", pre, post, parent, row)
		}
	}
}

// ---- slotted page ----

func TestSlottedPage(t *testing.T) {
	p := make([]byte, pageSize)
	pageInit(p)
	if pageNSlots(p) != 0 || pageLive(p) != 0 {
		t.Fatal("fresh page not empty")
	}

	mkRow := func(pre int64, n int) []byte {
		return encodeRow(nil, NodeRow{Pre: pre, Post: pre, Parent: 0, Poly: bytes.Repeat([]byte{byte(pre)}, n)})
	}
	var slots []int
	for i := 0; i < 10; i++ {
		slot, ok := pageInsert(p, mkRow(int64(i), 20))
		if !ok {
			t.Fatalf("insert %d failed", i)
		}
		if slot != i {
			t.Fatalf("slot = %d, want %d (append-only slot directory)", slot, i)
		}
		slots = append(slots, slot)
	}
	if pageLive(p) != 10 {
		t.Fatalf("live = %d", pageLive(p))
	}
	for i, slot := range slots {
		row, err := decodeRow(pageSlot(p, slot))
		if err != nil {
			t.Fatal(err)
		}
		if row.Pre != int64(i) {
			t.Fatalf("slot %d holds pre %d", slot, row.Pre)
		}
	}

	// Same-size update is in place; slot unchanged.
	if !pageUpdate(p, 3, mkRow(103, 20)) {
		t.Fatal("same-size update rejected")
	}
	if row, _ := decodeRow(pageSlot(p, 3)); row.Pre != 103 {
		t.Fatalf("updated slot holds pre %d", row.Pre)
	}
	// A larger row does not fit the allocated slot.
	if pageUpdate(p, 3, mkRow(103, 4000)) {
		t.Fatal("oversized update accepted in place")
	}

	if !pageDelete(p, 5) {
		t.Fatal("delete failed")
	}
	if pageSlot(p, 5) != nil {
		t.Fatal("deleted slot still readable")
	}
	if pageDelete(p, 5) {
		t.Fatal("double delete succeeded")
	}
	if pageLive(p) != 9 {
		t.Fatalf("live after delete = %d", pageLive(p))
	}

	// Fill until full; free space accounting must refuse, not corrupt.
	n := 0
	for {
		if _, ok := pageInsert(p, mkRow(int64(1000+n), 40)); !ok {
			break
		}
		n++
	}
	if pageFree(p) >= 40+rowHeaderLen+slotLen {
		t.Fatalf("insert refused with %d bytes free", pageFree(p))
	}
}

// ---- B⁺-tree ----

// smallTree builds a bptree with tiny fan-out so a few hundred keys
// exercise leaf splits, branch splits and multi-level descents.
func smallTree(t *testing.T) *bptree {
	t.Helper()
	tr := newBptree(&pager{})
	tr.leafCap = 4
	tr.branchCap = 4
	return tr
}

func TestBptreeInsertScanDelete(t *testing.T) {
	tr := smallTree(t)
	const n = 500
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, k := range perm {
		if tr.set(treeKey{a: int64(k)}, rid{page: uint32(k + 1)}) {
			t.Fatalf("key %d reported as replaced on first insert", k)
		}
	}
	for k := 0; k < n; k++ {
		r, ok := tr.get(treeKey{a: int64(k)})
		if !ok || r.page != uint32(k+1) {
			t.Fatalf("get(%d) = %+v, %v", k, r, ok)
		}
	}
	// Full scan is ordered and complete.
	var got []int64
	tr.scanFrom(treeKey{a: minInt64, b: minInt64}, func(k treeKey, _ rid) bool {
		got = append(got, k.a)
		return true
	})
	if len(got) != n {
		t.Fatalf("scan found %d keys", len(got))
	}
	for i, k := range got {
		if k != int64(i) {
			t.Fatalf("scan[%d] = %d", i, k)
		}
	}
	lo, _, ok := tr.min()
	if !ok || lo.a != 0 {
		t.Fatalf("min = %+v, %v", lo, ok)
	}
	hi, _, ok := tr.max()
	if !ok || hi.a != n-1 {
		t.Fatalf("max = %+v, %v", hi, ok)
	}

	// Replace reports the overwrite.
	if !tr.set(treeKey{a: 7}, rid{page: 999}) {
		t.Fatal("replace not reported")
	}
	if r, _ := tr.get(treeKey{a: 7}); r.page != 999 {
		t.Fatalf("replace lost: %+v", r)
	}

	// Delete every third key; the rest must survive.
	for k := 0; k < n; k += 3 {
		if !tr.delete(treeKey{a: int64(k)}) {
			t.Fatalf("delete(%d) missed", k)
		}
	}
	for k := 0; k < n; k++ {
		_, ok := tr.get(treeKey{a: int64(k)})
		if want := k%3 != 0; ok != want {
			t.Fatalf("after deletes, get(%d) = %v", k, ok)
		}
	}
	// max() still answers after lazy deletes empty the rightmost leaf.
	if n%3 == 1 {
		t.Skip("adjust n so the max key survives")
	}
	hi, _, ok = tr.max()
	if !ok {
		t.Fatal("max after deletes missing")
	}
	if hi.a%3 == 0 {
		t.Fatalf("max = deleted key %d", hi.a)
	}
}

func TestBptreeCompositeKeys(t *testing.T) {
	tr := smallTree(t)
	// (parent, pre) composite ordering: all children of one parent are
	// contiguous and pre-ordered under a scan.
	for _, k := range rand.New(rand.NewSource(2)).Perm(100) {
		tr.set(treeKey{a: int64(k % 10), b: int64(k)}, rid{page: uint32(k + 1)})
	}
	var kids []int64
	tr.scanFrom(treeKey{a: 4, b: minInt64}, func(k treeKey, _ rid) bool {
		if k.a != 4 {
			return false
		}
		kids = append(kids, k.b)
		return true
	})
	if len(kids) != 10 {
		t.Fatalf("found %d entries for parent 4", len(kids))
	}
	for i := 1; i < len(kids); i++ {
		if kids[i] <= kids[i-1] {
			t.Fatalf("children out of order: %v", kids)
		}
	}
}

// ---- table-level behavior ----

// TestV2DumpReplicaDeterminism: two v2 tables that apply the identical op
// sequence dump byte-identical images, and dump→load→dump is the byte
// identity. This is the property the replicated mutation pipeline pins
// its digest-verified acks on.
func TestV2DumpReplicaDeterminism(t *testing.T) {
	var dumps [][]byte
	for r := 0; r < 2; r++ {
		s := newStore(t)
		randomOps(t, s, &model{}, 7, 3000)
		var buf bytes.Buffer
		if err := s.Dump(&buf); err != nil {
			t.Fatal(err)
		}
		dumps = append(dumps, buf.Bytes())
	}
	if !bytes.Equal(dumps[0], dumps[1]) {
		t.Fatal("replicas applying identical ops dumped different bytes")
	}

	// dump → load → dump identity.
	s2 := openBare(t)
	if err := s2.Load(bytes.NewReader(dumps[0])); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := s2.Dump(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), dumps[0]) {
		t.Fatal("dump→load→dump is not the identity")
	}
}

// TestV2HeapSplits: enough large rows to overflow many heap pages; every
// row must remain reachable through the tree afterwards.
func TestV2HeapSplits(t *testing.T) {
	s := newStore(t)
	const n = 2000
	poly := bytes.Repeat([]byte{7}, 200) // ~35 rows per 8 KiB page
	// Post-order-ish arrival (the encoder emits on EndElement): insert
	// even pres ascending then odd descending, forcing mid-page placement.
	var pres []int64
	for p := int64(2); p <= n; p += 2 {
		pres = append(pres, p)
	}
	for p := int64(n - 1); p >= 1; p -= 2 {
		pres = append(pres, p)
	}
	for _, pre := range pres {
		if err := s.InsertNode(NodeRow{Pre: pre, Post: pre, Parent: pre / 2, Poly: poly}); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := s.Range(1, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != n {
		t.Fatalf("%d rows after splits, want %d", len(rows), n)
	}
	for i, r := range rows {
		if r.Pre != int64(i+1) {
			t.Fatalf("row %d has pre %d", i, r.Pre)
		}
		if !bytes.Equal(r.Poly, poly) {
			t.Fatalf("row %d poly corrupted", i)
		}
	}
	if pages := s.tbl.heapPg.count(); pages < 2 {
		t.Fatalf("%d rows of %d bytes fit %d heap page", n, len(poly), pages)
	}
}

// TestV2SmallPoolScans: a table spanning many heap pages answers a
// whole-table range scan correctly. (The name dates from the buffer
// pool the scan once streamed through at its 16-page minimum.)
func TestV2SmallPoolScans(t *testing.T) {
	s := openBare(t)
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	const n = 4000
	poly := bytes.Repeat([]byte{9}, 150)
	for pre := int64(1); pre <= n; pre++ {
		if err := s.InsertNode(NodeRow{Pre: pre, Post: n - pre + 1, Parent: pre / 2, Poly: poly}); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := s.Range(1, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != n {
		t.Fatalf("range = %d rows", len(rows))
	}
	for i, r := range rows {
		if r.Pre != int64(i+1) || !bytes.Equal(r.Poly, poly) {
			t.Fatalf("row %d = pre %d, poly %d bytes", i, r.Pre, len(r.Poly))
		}
	}
	if pages := s.tbl.heapPg.count(); pages <= 16 {
		t.Fatalf("%d rows span only %d heap pages", n, pages)
	}
}

// TestV2CrossFormatLoadErrors: Load accepts only a whole current page
// dump. Junk, an encoding/gob stream (the shape of the dumps the retired
// SQL-backed engine wrote, which carry no header), a page header cut
// short, an empty stream, a page body cut short, a page that is not a
// heap page and a first heap page past the last page are each refused
// with an error that says to re-encode. The refusal leaves no table
// behind in a fresh store, and every row of a populated one in place.
func TestV2CrossFormatLoadErrors(t *testing.T) {
	src := newStore(t)
	randomOps(t, src, &model{}, 3, 50)
	var img bytes.Buffer
	if err := src.Dump(&img); err != nil {
		t.Fatal(err)
	}
	rows, err := src.Range(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var gobDump bytes.Buffer
	if err := gob.NewEncoder(&gobDump).Encode(map[string][]NodeRow{"nodes": rows}); err != nil {
		t.Fatal(err)
	}
	nonHeap := bytes.Clone(img.Bytes())
	nonHeap[v2HeaderLen] = pageTypeLeaf
	pastEnd := bytes.Clone(img.Bytes())
	binary.LittleEndian.PutUint32(pastEnd[28:], binary.LittleEndian.Uint32(pastEnd[24:])+1)
	// Subtest v1 feeds a gob stream, the format the retired v1 engine
	// dumped; subtest v2 feeds junk and damaged page images.
	for format, streams := range map[string]map[string][]byte{
		"v1": {"gob": gobDump.Bytes()},
		"v2": {
			"junk":                    []byte("this is neither a gob nor a page file"),
			"truncated header":        img.Bytes()[:v2HeaderLen-10],
			"truncated magic":         img.Bytes()[:8],
			"empty":                   nil,
			"truncated body":          img.Bytes()[:img.Len()-1],
			"non-heap page":           nonHeap,
			"first page past the end": pastEnd,
		},
	} {
		t.Run(format, func(t *testing.T) {
			for name, stream := range streams {
				s := openBare(t)
				err := s.Load(bytes.NewReader(stream))
				if err == nil || !strings.Contains(err.Error(), "re-encode") {
					t.Fatalf("%s: err = %v, want a re-encode refusal", name, err)
				}
				if s.Attach() == nil {
					t.Fatalf("%s: a refused load left a table behind", name)
				}
				full, m := newStore(t), &model{}
				randomOps(t, full, m, 4, 40)
				if full.Load(bytes.NewReader(stream)) == nil {
					t.Fatalf("%s: loaded over a populated table", name)
				}
				checkAgainstModel(t, full, m)
			}
		})
	}
}

// TestV2DumpRefusesVersion1: a dump whose header says version 1 holds
// shares drawn from the previous client stream; Load refuses it and
// the error says to re-encode, instead of loading a table that would
// answer every query wrongly.
func TestV2DumpRefusesVersion1(t *testing.T) {
	src := newStore(t)
	randomOps(t, src, &model{}, 3, 50)
	var buf bytes.Buffer
	if err := src.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	old := buf.Bytes()
	binary.LittleEndian.PutUint32(old[16:], 1)
	t.Run("v2", func(t *testing.T) {
		err := newStore(t).Load(bytes.NewReader(old))
		if err == nil || !strings.Contains(err.Error(), "re-encode") {
			t.Fatalf("version-1 dump: err = %v, want a re-encode refusal", err)
		}
	})
}

// TestV2UpdateKeepsDumpAligned: in-place updates must not move slots —
// two replicas, one loaded from the other's dump, stay byte-identical
// through subsequent identical updates.
func TestV2UpdateKeepsDumpAligned(t *testing.T) {
	a := newStore(t)
	for pre := int64(1); pre <= 300; pre++ {
		if err := a.InsertNode(NodeRow{Pre: pre, Post: pre, Parent: pre / 2, Poly: bytes.Repeat([]byte{1}, 64)}); err != nil {
			t.Fatal(err)
		}
	}
	var img bytes.Buffer
	if err := a.Dump(&img); err != nil {
		t.Fatal(err)
	}
	b := openBare(t)
	if err := b.Load(bytes.NewReader(img.Bytes())); err != nil {
		t.Fatal(err)
	}
	for pre := int64(10); pre <= 250; pre += 10 {
		row := NodeRow{Pre: pre, Post: pre + 1, Parent: pre / 2, Poly: bytes.Repeat([]byte{byte(pre)}, 64)}
		if err := a.UpdateNode(pre, row); err != nil {
			t.Fatal(err)
		}
		if err := b.UpdateNode(pre, row); err != nil {
			t.Fatal(err)
		}
	}
	var da, db bytes.Buffer
	if err := a.Dump(&da); err != nil {
		t.Fatal(err)
	}
	if err := b.Dump(&db); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da.Bytes(), db.Bytes()) {
		t.Fatal("updates desynced replica dumps")
	}
}

func BenchmarkV2PointLookup(b *testing.B) {
	s := newStore(b)
	for pre := int64(1); pre <= 1000; pre++ {
		if err := s.InsertNode(NodeRow{Pre: pre, Post: pre, Parent: pre / 2, Poly: bytes.Repeat([]byte{1}, 64)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Node(int64(i%1000 + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkV2MetaScan(b *testing.B) {
	s := newStore(b)
	const n = 5000
	for pre := int64(1); pre <= n; pre++ {
		post := pre
		if pre == 1 {
			post = n
		}
		if err := s.InsertNode(NodeRow{Pre: pre, Post: post, Parent: 1, Poly: bytes.Repeat([]byte{1}, 64)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var cnt int
		if err := s.VisitDescendantsMeta(1, n, func(_, _, _ int64) { cnt++ }); err != nil {
			b.Fatal(err)
		}
		if cnt != n-1 {
			b.Fatal(fmt.Sprintf("visited %d", cnt))
		}
	}
}
