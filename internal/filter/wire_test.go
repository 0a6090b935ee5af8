package filter

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"encshare/internal/gf"
	"encshare/internal/rmi"
)

func ptr[T any](v T) *T { return &v }

// wireSamples holds one populated value of every message the filter
// service exchanges, in a fixed order: FuzzWireMessages picks a type by
// index into it.
func wireSamples() []rmi.Message {
	blob := []byte{1, 2, 3, 250}
	metas := []NodeMeta{{Pre: 1, Post: 9}, {Pre: 2, Post: 3, Parent: 1}, {Pre: -5, Post: math.MaxInt64, Parent: math.MinInt64}}
	rows := []PolyRow{{Pre: 2, Poly: blob}, {Pre: 3}}
	batch := MutationBatch{Ver: MutationBatchVersion, Seq: 7, Ops: []RowOp{
		{Kind: OpPut, Pre: 4, Post: 5, Parent: 1, Blob: blob},
		{Kind: OpPatch, Pre: 9, NewPre: 10, PostDelta: -1, ParentMin: 3, ParentDelta: 1},
		{Kind: OpDelete, Pre: 2},
	}}
	rng := PreRange{Lo: 1, Hi: 12}
	return []rmi.Message{
		new(empty),
		ptr(varint64(-42)),
		ptr(uvarint64(1 << 40)),
		ptr(fieldElem(82)),
		&descArgs{Pre: 3, Post: 17},
		&evalArgs{Pre: 3, Point: 5},
		&metas[2],
		&rows[0],
		ptr(presList{1, 2, 300}),
		ptr(spanList{{Pre: 1, Post: 9}, {Pre: 2, Post: 3}}),
		ptr(evalRequestList{{Pre: 1, Point: 2}, {Pre: 1, Point: 7}}),
		ptr(evalResultList{{Val: 3}, {Err: "filter: node 9 not found"}}),
		ptr(metaList(metas)),
		ptr(metaLists{metas[:2], nil, metas[2:]}),
		ptr(polyRowList(rows)),
		&descPageArgs{Spans: []Span{{Pre: 1, Post: 9}}, Member: 1, Resume: 4},
		&descPageReply{Parts: []descPagePart{{Member: 0, Metas: metas[:1]}, {Member: 2, Metas: metas[1:]}}, NextMember: 2, NextResume: 3},
		&bundlePageArgs{Pres: []int64{4, 5}, Member: 1},
		&bundlePage[NodePolys]{Bundles: []NodePolys{{Node: rows[0], Children: rows[1:]}}, Done: true},
		&bundlePage[PartialNodePolys]{Bundles: []PartialNodePolys{{Has: true, Node: rows[0]}, {Children: rows, Err: "x"}}},
		&rng,
		&ServerStats{Evals: 1, CacheHits: 2, CacheMisses: 3, Decodes: 4, Aggregates: 5},
		&AggregateRequest{Ver: AggregateFrameVersion, Kind: wireAggSum, Pres: PackPres([]int64{1, 4}), Mask: []gf.Elem{3, 9}, ChunkRows: 82},
		&AggregateReply{Ver: AggregateFrameVersion, Chunks: []AggregateChunk{{FirstPre: 1, LastPre: 4, Rows: 2, Count: 2, MaskCnt: 12, Sum: blob, MaskSum: blob}}},
		&batch,
		&MutateReply{Epoch: 8, LastSeq: 7, Range: rng},
		&EpochInfo{Epoch: 8, LastSeq: 7, Range: rng},
		&LeaseRequest{Owner: "writer-1", TTLMillis: 2000},
		&LeaseGrant{ID: 3, TTLMillis: 2000, LastSeq: 7, Epoch: 8, Range: rng},
		&LeasedBatch{LeaseID: 3, Release: true, B: batch},
		&LeasedBatch{LeaseID: math.MaxUint64, B: MutationBatch{Ver: MutationBatchVersion}},
	}
}

// fresh returns a new zero value of m's type.
func fresh(m rmi.Message) rmi.Message {
	return reflect.New(reflect.TypeOf(m).Elem()).Interface().(rmi.Message)
}

// TestWireRoundTrip: every message decodes to the value it was encoded
// from; every strict prefix of an encoding and every encoding with a
// byte appended is refused.
func TestWireRoundTrip(t *testing.T) {
	for _, m := range wireSamples() {
		b := m.AppendWire(nil)
		got := fresh(m)
		if err := got.DecodeWire(b, false); err != nil {
			t.Fatalf("%T: decoding its own encoding: %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("%T: round trip\n got %+v\nwant %+v", m, got, m)
		}
		for n := 0; n < len(b); n++ {
			if err := fresh(m).DecodeWire(b[:n], false); err == nil {
				t.Fatalf("%T: %d-byte prefix of a %d-byte encoding accepted", m, n, len(b))
			}
		}
		if err := fresh(m).DecodeWire(append(b[:len(b):len(b)], 0), false); err == nil {
			t.Fatalf("%T: trailing byte accepted", m)
		}
	}
}

// TestMutationBatchWireIsJournal: the wire carries a batch as exactly
// the bytes the WAL journals, alone and inside LeasedBatch.
func TestMutationBatchWireIsJournal(t *testing.T) {
	b := MutationBatch{Ver: MutationBatchVersion, Seq: 3, Ops: []RowOp{{Kind: OpPut, Pre: 1, Post: 2, Parent: 0, Blob: []byte{9, 9}}}}
	journal, err := EncodeBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if wire := b.AppendWire(nil); !bytes.Equal(wire, journal) {
		t.Fatalf("wire % x != journal % x", wire, journal)
	}
	leased := LeasedBatch{LeaseID: 5, B: b}.AppendWire(nil)
	if !bytes.HasSuffix(leased, journal) || len(leased) != len(journal)+2 {
		t.Fatalf("leased batch % x does not end in the journal bytes % x", leased, journal)
	}
}

// TestWireHostileCounts: a count or length far beyond the bytes that
// follow is refused before anything is allocated for it.
func TestWireHostileCounts(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	for _, m := range wireSamples() {
		for _, b := range [][]byte{huge, append(append([]byte{}, huge...), 1, 2, 3)} {
			// TotalAlloc is process-wide and other goroutines only ever
			// add to a delta, so the least of five runs is the decode's.
			var err error
			n := ^uint64(0)
			for i := 0; i < 5; i++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err = fresh(m).DecodeWire(b, false)
				runtime.ReadMemStats(&after)
				n = min(n, after.TotalAlloc-before.TotalAlloc)
			}
			if err == nil {
				continue // a lone uvarint is a valid scalar message
			}
			if n > 4<<10 {
				t.Fatalf("%T: refusing a hostile count allocated %d bytes", m, n)
			}
		}
	}
}

// FuzzWireMessages: for any bytes and any message type, decoding never
// panics, never allocates more than a small multiple of its input, and
// whatever decodes re-encodes to bytes that decode to the same value
// and encode again to the same bytes.
func FuzzWireMessages(f *testing.F) {
	samples := wireSamples()
	for i, m := range samples {
		f.Add(uint8(i), m.AppendWire(nil))
	}
	f.Add(uint8(13), []byte{0xff, 0xff, 0xff, 0xff, 0x0f, 1, 1})
	f.Fuzz(func(t *testing.T, sel uint8, b []byte) {
		m := fresh(samples[int(sel)%len(samples)])
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := m.DecodeWire(b, false)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 64*uint64(len(b))+64<<10 {
			t.Fatalf("%T: decoding %d bytes allocated %d", m, len(b), n)
		}
		if err != nil {
			return
		}
		e1 := m.AppendWire(nil)
		m2 := fresh(m)
		if err := m2.DecodeWire(e1, false); err != nil {
			t.Fatalf("%T: re-encoding refused: %v", m, err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("%T: value changed across a round trip:\n%+v\n%+v", m, m, m2)
		}
		if e2 := m2.AppendWire(nil); !bytes.Equal(e1, e2) {
			t.Fatalf("%T: encoding not a fixed point:\n% x\n% x", m, e1, e2)
		}
	})
}

// TestWireCorpusTargets: FuzzWireMessages picks its message type by
// index into wireSamples, so its committed corpus is only as good as
// those indices. Each hostile-* file must hit the type it was written
// for, and each seed-NN file must select sample NN and decode as it —
// a reordered or shortened sample list fails here instead of silently
// fuzzing the wrong decoder.
func TestWireCorpusTargets(t *testing.T) {
	hostile := map[string]string{
		"hostile-count-bundles":   "*filter.bundlePage[encshare/internal/filter.NodePolys]",
		"hostile-count-metalists": "*filter.metaLists",
		"hostile-length-blob":     "*filter.PolyRow",
		"hostile-ops-batch":       "*filter.MutationBatch",
	}
	samples := wireSamples()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzWireMessages", "*"))
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, f := range files {
		name := filepath.Base(f)
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		var sel int
		if len(lines) != 3 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a two-value corpus file", name)
		}
		if _, err := fmt.Sscanf(lines[1], "byte(%d)", &sel); err != nil {
			t.Fatalf("%s: selector %q: %v", name, lines[1], err)
		}
		body, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[2], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: body %q: %v", name, lines[2], err)
		}
		m := samples[sel%len(samples)]
		if want, ok := hostile[name]; ok {
			seen++
			if got := fmt.Sprintf("%T", m); got != want {
				t.Errorf("%s: selector %d hits %s, want %s", name, sel, got, want)
			}
			continue
		}
		var n int
		if _, err := fmt.Sscanf(name, "seed-%d", &n); err != nil {
			t.Errorf("%s: neither a hostile-* nor a seed-NN file", name)
			continue
		}
		if sel != n {
			t.Errorf("%s: selector %d", name, sel)
		}
		if err := fresh(m).DecodeWire([]byte(body), false); err != nil {
			t.Errorf("%s: does not decode as %T: %v", name, m, err)
		}
	}
	if seen != len(hostile) {
		t.Fatalf("found %d of the %d hostile-* corpus files", seen, len(hostile))
	}
}

// TestWireSizeBounds: the paged-reply size estimates bound the real
// encodings even at the widest values, so no page outgrows its budget.
func TestWireSizeBounds(t *testing.T) {
	wide := NodeMeta{Pre: math.MinInt64, Post: math.MaxInt64, Parent: math.MinInt64}
	if n := len(wide.AppendWire(nil)); n > metaWireBytes {
		t.Fatalf("NodeMeta encodes to %d bytes, bound %d", n, metaWireBytes)
	}
	row := PolyRow{Pre: math.MinInt64, Poly: make([]byte, 300)}
	if n := len(row.AppendWire(nil)); n > polyRowWireBytes(row) {
		t.Fatalf("PolyRow encodes to %d bytes, bound %d", n, polyRowWireBytes(row))
	}
	bundle := PartialNodePolys{Has: true, Node: row, Children: []PolyRow{row, row}, Err: "some error"}
	if n := len(bundlePage[PartialNodePolys]{Bundles: []PartialNodePolys{bundle}}.AppendWire(nil)); n > partialNodePolysWire(bundle)+binary.MaxVarintLen64+1 {
		t.Fatalf("bundle page encodes to %d bytes, bound %d", n, partialNodePolysWire(bundle))
	}

	// A real page: the encoded parts stay within the budget plus the
	// page's fixed trailer.
	spans, api := fuzzMembers(5, 6)
	old := ReplyByteBudget
	ReplyByteBudget = 2000
	t.Cleanup(func() { ReplyByteBudget = old })
	rep, err := pageDescendants(api, descPageArgs{Spans: spans})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rep.AppendWire(nil)); n > ReplyByteBudget+4*binary.MaxVarintLen64 {
		t.Fatalf("descendants page of %d bytes under a %d-byte budget", n, ReplyByteBudget)
	}
}

// TestBundleWireBytesExact: a bundle page's computed size is its
// encoded length, for both bundle kinds, at varint-length edges of
// every field (pres, blob and error lengths, bundle and child counts).
func TestBundleWireBytesExact(t *testing.T) {
	pres := []int64{0, -1, 63, 64, -65, 1 << 20, math.MinInt64, math.MaxInt64}
	sizes := []int{0, 1, 127, 128, 300, 16384}
	errs := []string{"", "store: node 7: store: node not found", strings.Repeat("e", 200)}
	for _, tc := range []struct {
		seed            int64
		bundles, kidMax int
	}{
		{1, 0, 0}, {2, 1, 0}, {3, 1, 3}, {4, 5, 140}, {5, 127, 2}, {6, 128, 2}, {7, 300, 1},
	} {
		rng := rand.New(rand.NewSource(tc.seed))
		row := func() PolyRow {
			return PolyRow{Pre: pres[rng.Intn(len(pres))], Poly: make([]byte, sizes[rng.Intn(len(sizes))])}
		}
		var whole bundlePage[NodePolys]
		var partial bundlePage[PartialNodePolys]
		for i := 0; i < tc.bundles; i++ {
			b := PartialNodePolys{Has: rng.Intn(2) == 0, Node: row(), Err: errs[rng.Intn(len(errs))]}
			for k := rng.Intn(tc.kidMax + 1); k > 0; k-- {
				b.Children = append(b.Children, row())
			}
			partial.Bundles = append(partial.Bundles, b)
			whole.Bundles = append(whole.Bundles, NodePolys{Node: b.Node, Children: b.Children, Err: b.Err})
		}
		whole.Done, partial.Done = tc.seed%2 == 0, tc.seed%2 == 1
		if got, want := len(whole.AppendWire(nil)), bundlePageWireBytes(whole); got != want {
			t.Errorf("seed %d: NodePolys page encodes to %d bytes, computed %d", tc.seed, got, want)
		}
		if got, want := len(partial.AppendWire(nil)), bundlePageWireBytes(partial); got != want {
			t.Errorf("seed %d: PartialNodePolys page encodes to %d bytes, computed %d", tc.seed, got, want)
		}
		for i, b := range whole.Bundles {
			one := bundlePage[NodePolys]{Bundles: []NodePolys{b}}
			if got, want := len(one.AppendWire(nil)), 3+nodePolysWire(b); got != want {
				t.Errorf("seed %d bundle %d: encodes to %d bytes, sized %d", tc.seed, i, got, want)
			}
			half := bundlePage[PartialNodePolys]{Bundles: partial.Bundles[i : i+1]}
			if got, want := len(half.AppendWire(nil)), 3+partialNodePolysWire(partial.Bundles[i]); got != want {
				t.Errorf("seed %d partial bundle %d: encodes to %d bytes, sized %d", tc.seed, i, got, want)
			}
		}
	}
}

// TestReplyBlobsDoNotAlias: share blobs returned by one call are not
// overwritten by the next call on the same connection, whose reply
// reuses the connection's read buffer.
func TestReplyBlobsDoNotAlias(t *testing.T) {
	fx := newFixture(t, testXML)
	rem := NewRemote(fx.rmiCli)
	clone := func(b []byte) []byte { return append([]byte(nil), b...) }

	row, err := rem.Poly(2)
	if err != nil {
		t.Fatal(err)
	}
	bundles, err := rem.NodePolysBatch([]int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := rem.AggregateBatch(AggregateRequest{Ver: AggregateFrameVersion, Kind: wireAggSum, Pres: PackPres([]int64{2, 3})})
	if err != nil {
		t.Fatal(err)
	}
	keep := [][]byte{clone(row.Poly), clone(bundles[1].Node.Poly), clone(bundles[0].Children[0].Poly), clone(agg.Chunks[0].Sum)}

	// Different rows of the same sizes through the same buffers.
	for _, pre := range []int64{3, 4, 5, 6} {
		if _, err := rem.Poly(pre); err != nil {
			t.Fatal(err)
		}
		if _, err := rem.NodePolysBatch([]int64{pre, pre + 1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rem.AggregateBatch(AggregateRequest{Ver: AggregateFrameVersion, Kind: wireAggSum, Pres: PackPres([]int64{5, 7})}); err != nil {
		t.Fatal(err)
	}
	now := [][]byte{row.Poly, bundles[1].Node.Poly, bundles[0].Children[0].Poly, agg.Chunks[0].Sum}
	for i := range keep {
		if !bytes.Equal(keep[i], now[i]) {
			t.Fatalf("blob %d changed after later calls on the connection", i)
		}
	}

	// A reply larger than the 64 KiB a connection keeps is handed to its
	// decoder, whose blobs alias it: later large replies get buffers of
	// their own, and small ones the connection's buffer, so neither may
	// touch it.
	large := func(shift int64) []int64 {
		pres := make([]int64, 2000)
		for i := range pres {
			pres[i] = (int64(i)+shift)%fx.doc.Count + 1
		}
		return pres
	}
	in := fx.rmiCli.Stats().BytesIn
	big, err := rem.NodePolysBatch(large(0))
	if err != nil {
		t.Fatal(err)
	}
	if n := fx.rmiCli.Stats().BytesIn - in; n <= 64<<10 {
		t.Fatalf("large NodePolysBatch reply is %d bytes, want over 64 KiB", n)
	}
	blobs := func(bs []NodePolys) (out [][]byte) {
		for _, b := range bs {
			out = append(out, b.Node.Poly)
			for _, k := range b.Children {
				out = append(out, k.Poly)
			}
		}
		return out
	}
	var bigKeep [][]byte
	for _, b := range blobs(big) {
		bigKeep = append(bigKeep, clone(b))
	}
	for shift := int64(1); shift <= 3; shift++ {
		if _, err := rem.NodePolysBatch(large(shift)); err != nil {
			t.Fatal(err)
		}
		if _, err := rem.Poly(shift + 1); err != nil {
			t.Fatal(err)
		}
		if _, err := rem.NodePolysBatch([]int64{shift + 2, shift + 3}); err != nil {
			t.Fatal(err)
		}
	}
	for i, b := range blobs(big) {
		if !bytes.Equal(bigKeep[i], b) {
			t.Fatalf("large reply blob %d changed after later calls on the connection", i)
		}
	}
}

// TestChildrenBatchAllocs pins the per-frame cost of the transport: a
// ChildrenBatch-shaped round trip over rmi.Pipe — request encode,
// header parse, dispatch, reply encode and decode, both sides together
// — stays within 20 heap allocations.
func TestChildrenBatchAllocs(t *testing.T) {
	lists := metaLists{
		{{Pre: 2, Post: 1, Parent: 1}, {Pre: 3, Post: 2, Parent: 1}, {Pre: 4, Post: 3, Parent: 1}},
		{{Pre: 6, Post: 5, Parent: 5}, {Pre: 7, Post: 6, Parent: 5}},
		nil,
		{{Pre: 12, Post: 11, Parent: 11}, {Pre: 13, Post: 12, Parent: 11}, {Pre: 14, Post: 13, Parent: 11}},
	}
	srv := rmi.NewServer()
	rmi.HandleFunc(srv, methodChildrenBatch, func(presList) (metaLists, error) { return lists, nil })
	cli := rmi.Pipe(srv)
	t.Cleanup(func() { cli.Close() })
	rem := NewRemote(cli)
	pres := []int64{1, 5, 9, 11}
	call := func() {
		out, err := rem.ChildrenBatch(pres)
		if err != nil || len(out) != len(lists) {
			t.Fatalf("ChildrenBatch = %d lists, %v", len(out), err)
		}
	}
	call() // size the connection buffers
	allocs := testing.AllocsPerRun(200, call)
	if allocs > 20 {
		t.Fatalf("ChildrenBatch round trip: %.1f allocations, want at most 20", allocs)
	}
	t.Logf("ChildrenBatch round trip: %.1f allocations", allocs)
}
