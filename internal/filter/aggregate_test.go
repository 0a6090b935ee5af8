package filter

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"encshare/internal/gf"
	"encshare/internal/ring"
	"encshare/internal/xmldoc"
)

// --- row-list codec ----------------------------------------------------

func TestPackPresRoundTrip(t *testing.T) {
	cases := [][]int64{
		nil,
		{0},
		{5},
		{0, 1, 2, 3},
		{1, 2, 5, 100, 10_000, 1 << 40},
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var pres []int64
		p := int64(rng.Intn(5))
		for k := 0; k < rng.Intn(200); k++ {
			pres = append(pres, p)
			p += 1 + int64(rng.Intn(50))
		}
		cases = append(cases, pres)
	}
	for _, pres := range cases {
		got, err := UnpackPres(PackPres(pres))
		if err != nil {
			t.Fatalf("UnpackPres(PackPres(%v)): %v", pres, err)
		}
		if len(got) != len(pres) {
			t.Fatalf("round trip changed length: %d -> %d", len(pres), len(got))
		}
		for i := range pres {
			if got[i] != pres[i] {
				t.Fatalf("round trip changed pres[%d]: %d -> %d", i, pres[i], got[i])
			}
		}
	}
}

func TestUnpackPresRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty input":       {},
		"oversized count":   {0xff, 0xff, 0xff, 0xff, 0x7f}, // ~34 billion rows
		"bytes cannot hold": {5, 1, 1},                      // claims 5 rows, two deltas
		"truncated delta":   append([]byte{2, 1}, 0x80),     // second delta never ends
		"zero delta":        {2, 1, 0},                      // positions not strictly increasing
		"trailing bytes":    append(PackPres([]int64{1, 2}), 0x01),
		"overflow": func() []byte {
			b := []byte{2}
			// first delta lands near MaxInt64, second pushes past it
			b = append(b, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
			b = append(b, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
			return b
		}(),
	}
	for name, b := range cases {
		if _, err := UnpackPres(b); err == nil {
			t.Errorf("%s: UnpackPres accepted malformed input % x", name, b)
		}
	}
}

// --- fixtures ----------------------------------------------------------

// presNamed returns the sorted pre positions of every node named name.
func (fx *fixture) presNamed(name string) []int64 {
	var out []int64
	fx.doc.Walk(func(n *xmldoc.Node) bool {
		if n.Name == name {
			out = append(out, n.Pre)
		}
		return true
	})
	return out
}

// oracleSum reconstructs every row client-side and sums — the
// pre-aggregate protocol, used as the ground truth for every fold.
func oracleSum(t *testing.T, cli *Client, pres []int64) ring.Poly {
	t.Helper()
	r := cli.r
	total := r.NewPoly()
	for _, pre := range pres {
		p, err := cli.Reconstruct(pre)
		if err != nil {
			t.Fatal(err)
		}
		r.AddInPlace(total, p)
	}
	return total
}

// --- fold parity -------------------------------------------------------

// TestAggregateFoldParity is the core parity grid at the filter layer:
// local and remote backends, verified and unverified, several chunk
// bounds, COUNT and SUM against the client-reconstruct oracle.
func TestAggregateFoldParity(t *testing.T) {
	fx := newFixture(t, testXML)
	itemPoint := fx.val(t, "item")
	rowSets := map[string][]int64{
		"items":    fx.presNamed("item"),
		"names":    fx.presNamed("name"),
		"everyone": fx.presNamed("item"), // reused below with all rows appended
	}
	fx.doc.Walk(func(n *xmldoc.Node) bool {
		rowSets["everyone"] = append(rowSets["everyone"], n.Pre)
		return true
	})

	for cliName, cli := range map[string]*Client{"local": fx.local, "remote": fx.remote} {
		for setName, pres := range rowSets {
			want := oracleSum(t, cli, sortedDedup(pres))
			for _, opts := range []AggregateOptions{
				{},
				{NoVerify: true},
				{ChunkRows: 1},
				{ChunkRows: 2},
				{ChunkRows: 3, NoVerify: true},
			} {
				if setName == "items" {
					// all rows share the name, so the known-root check applies
					opts.CheckPoint = itemPoint
				}
				agg, err := cli.AggregateFold(pres, AggSum, opts)
				if err != nil {
					t.Fatalf("%s/%s/%+v: %v", cliName, setName, opts, err)
				}
				if !cli.r.Equal(agg.Sum, want) {
					t.Fatalf("%s/%s/%+v: folded sum != reconstruct oracle", cliName, setName, opts)
				}
				if !agg.Folded {
					t.Fatalf("%s/%s: fold fell back to reconstruction", cliName, setName)
				}
				if agg.Verified != !opts.NoVerify {
					t.Fatalf("%s/%s/%+v: Verified = %v", cliName, setName, opts, agg.Verified)
				}
				cnt, err := cli.AggregateFold(pres, AggCount, opts)
				if err != nil {
					t.Fatal(err)
				}
				if cnt.Count != int64(len(sortedDedup(pres))) {
					t.Fatalf("%s/%s: COUNT = %d, want %d", cliName, setName, cnt.Count, len(sortedDedup(pres)))
				}
				if cnt.Sum != nil {
					t.Fatalf("%s/%s: COUNT carried a sum polynomial", cliName, setName)
				}
			}
		}
	}
}

// TestAggregateFoldUnsortedInput: the fold must accept rows in any order
// with duplicates and still agree with the set semantics.
func TestAggregateFoldUnsortedInput(t *testing.T) {
	fx := newFixture(t, testXML)
	pres := fx.presNamed("item")
	shuffled := []int64{pres[1], pres[0], pres[1], pres[0], pres[0]}
	want := oracleSum(t, fx.local, pres)
	agg, err := fx.local.AggregateFold(shuffled, AggSum, AggregateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count != int64(len(pres)) {
		t.Fatalf("Count = %d, want %d (duplicates not collapsed)", agg.Count, len(pres))
	}
	if !fx.r.Equal(agg.Sum, want) {
		t.Fatal("fold over shuffled duplicate input != set oracle")
	}
}

func TestAggregateFoldEmpty(t *testing.T) {
	fx := newFixture(t, testXML)
	agg, err := fx.local.AggregateFold(nil, AggSum, AggregateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count != 0 || !fx.r.IsZero(agg.Sum) || !agg.Folded {
		t.Fatalf("empty fold: count=%d, zero=%v, folded=%v", agg.Count, fx.r.IsZero(agg.Sum), agg.Folded)
	}
	if _, err := fx.local.AggregateFold(nil, AggAvg, AggregateOptions{}); !errors.As(err, new(*AvgUndefinedError)) {
		t.Fatalf("AVG over zero rows: err = %v, want AvgUndefinedError", err)
	}
}

// TestAggregateWraparound drives row counts past q: the fold must chunk
// below q rows so the exact count survives, for every chunk bound.
func TestAggregateWraparound(t *testing.T) {
	const rows = 180 // > 2q for q = 83
	fx := newFixture(t, wideXML(rows))
	pres := fx.presNamed("item")
	if len(pres) != rows {
		t.Fatalf("fixture has %d items, want %d", len(pres), rows)
	}
	want := oracleSum(t, fx.local, pres)
	for _, chunkRows := range []int{0, 1, 41, 82, 5000} {
		for _, cli := range []*Client{fx.local, fx.remote} {
			agg, err := cli.AggregateFold(pres, AggSum, AggregateOptions{
				ChunkRows:  chunkRows,
				CheckPoint: fx.val(t, "item"),
			})
			if err != nil {
				t.Fatalf("chunkRows=%d: %v", chunkRows, err)
			}
			if agg.Count != rows {
				t.Fatalf("chunkRows=%d: Count = %d, want %d (wraparound leaked)", chunkRows, agg.Count, rows)
			}
			if !cli.r.Equal(agg.Sum, want) {
				t.Fatalf("chunkRows=%d: folded sum != oracle", chunkRows)
			}
		}
	}
	// 180 mod 83 = 14: a fold that trusted field counts would report 14.
	if rows%83 == int(rows) {
		t.Fatal("test misconfigured: row count does not wrap")
	}
}

// TestAggregateMultiFrame shrinks the request window so one fold spans
// several request frames, which must still tile and verify.
func TestAggregateMultiFrame(t *testing.T) {
	old := aggReqChunkSize
	aggReqChunkSize = 16
	defer func() { aggReqChunkSize = old }()

	fx := newFixture(t, wideXML(100))
	pres := fx.presNamed("item")
	want := oracleSum(t, fx.remote, pres)
	agg, err := fx.remote.AggregateFold(pres, AggSum, AggregateOptions{CheckPoint: fx.val(t, "item")})
	if err != nil {
		t.Fatal(err)
	}
	if !fx.r.Equal(agg.Sum, want) || agg.Count != 100 || !agg.Verified {
		t.Fatalf("multi-frame fold: count=%d verified=%v parity=%v",
			agg.Count, agg.Verified, fx.r.Equal(agg.Sum, want))
	}
}

func TestAggregateAvg(t *testing.T) {
	fx := newFixture(t, testXML)
	pres := fx.presNamed("item") // 2 rows
	agg, err := fx.local.AggregateFold(pres, AggAvg, AggregateOptions{CheckPoint: fx.val(t, "item")})
	if err != nil {
		t.Fatal(err)
	}
	f := fx.r.Field()
	want := fx.r.AddScaledInPlace(fx.r.NewPoly(), oracleSum(t, fx.local, pres), f.Inv(gf.Elem(len(pres))))
	if !fx.r.Equal(agg.Avg, want) {
		t.Fatal("AVG != SUM · count⁻¹")
	}

	// 83 rows ≡ 0 (mod 83): the divisor vanishes even though rows > 0.
	wide := newFixture(t, wideXML(83))
	var ue *AvgUndefinedError
	if _, err := wide.local.AggregateFold(wide.presNamed("item"), AggAvg, AggregateOptions{}); !errors.As(err, &ue) {
		t.Fatalf("AVG over q rows: err = %v, want AvgUndefinedError", err)
	} else if ue.Count != 83 || ue.Q != 83 {
		t.Fatalf("AvgUndefinedError carries %d/%d, want 83/83", ue.Count, ue.Q)
	}
}

// --- server-side frame validation --------------------------------------

func TestAggregateBatchRejectsBadFrames(t *testing.T) {
	fx := newFixture(t, testXML)
	good := AggregateRequest{
		Ver:  AggregateFrameVersion,
		Kind: wireAggSum,
		Pres: PackPres(fx.presNamed("item")),
	}
	cases := map[string]func(r *AggregateRequest){
		"future version": func(r *AggregateRequest) { r.Ver = AggregateFrameVersion + 1 },
		"zero version":   func(r *AggregateRequest) { r.Ver = 0 },
		"unknown kind":   func(r *AggregateRequest) { r.Kind = 99 },
		"garbage rows":   func(r *AggregateRequest) { r.Pres = []byte{0xff} },
		"short mask":     func(r *AggregateRequest) { r.Mask = []gf.Elem{1} },
		"zero mask elem": func(r *AggregateRequest) { r.Mask = []gf.Elem{1, 0} },
		"mask elem >= q": func(r *AggregateRequest) { r.Mask = []gf.Elem{1, 83} },
	}
	for name, mutate := range cases {
		req := good
		mutate(&req)
		if _, err := fx.server.AggregateBatch(req); err == nil {
			t.Errorf("%s: server accepted the frame", name)
		}
	}
	// The unmutated frame is fine — the cases above fail for their own
	// reasons, not because the fixture is broken.
	if _, err := fx.server.AggregateBatch(good); err != nil {
		t.Fatalf("control frame rejected: %v", err)
	}
}

func TestAggregateBatchMissingRow(t *testing.T) {
	fx := newFixture(t, testXML)
	for _, kind := range []uint8{wireAggCount, wireAggSum} {
		req := AggregateRequest{
			Ver:  AggregateFrameVersion,
			Kind: kind,
			Pres: PackPres([]int64{1, 1 << 40}), // second row does not exist
		}
		if _, err := fx.server.AggregateBatch(req); err == nil {
			t.Errorf("kind %d: fold over a missing row succeeded", kind)
		}
	}
}

// TestAggregateBatchPure: shares are immutable, so replaying the same
// frame must reproduce the same reply byte for byte — the property that
// makes duplicated (hedged/retried) frames safe.
func TestAggregateBatchPure(t *testing.T) {
	fx := newFixture(t, wideXML(50))
	req := AggregateRequest{
		Ver:       AggregateFrameVersion,
		Kind:      wireAggSum,
		Pres:      PackPres(fx.presNamed("item")),
		Mask:      make([]gf.Elem, 50),
		ChunkRows: 7,
	}
	for i := range req.Mask {
		req.Mask[i] = gf.Elem(1 + i%82)
	}
	first, err := fx.server.AggregateBatch(req)
	if err != nil {
		t.Fatal(err)
	}
	for replay := 0; replay < 3; replay++ {
		again, err := fx.server.AggregateBatch(req)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%+v", again) != fmt.Sprintf("%+v", first) {
			t.Fatalf("replay %d produced a different reply", replay)
		}
	}
}

// --- tamper detection --------------------------------------------------

// tamperAPI wraps the in-process server and lets each test corrupt the
// aggregate reply in flight — the deterministic stand-in for a
// malicious or buggy shard.
type tamperAPI struct {
	ServerAPI
	inner  AggregateAPI
	mutate func(*AggregateReply)
}

func (a *tamperAPI) AggregateBatch(req AggregateRequest) (AggregateReply, error) {
	reply, err := a.inner.AggregateBatch(req)
	if err != nil {
		return reply, err
	}
	a.mutate(&reply)
	return reply, nil
}

func TestAggregateTamperDetection(t *testing.T) {
	fx := newFixture(t, wideXML(60))
	pres := fx.presNamed("item")
	point := fx.val(t, "item")

	cases := map[string]func(*AggregateReply){
		"corrupt sum blob": func(r *AggregateReply) {
			r.Chunks[0].Sum[0] ^= 1
		},
		"corrupt verification blob": func(r *AggregateReply) {
			r.Chunks[1].MaskSum[3] ^= 0x40
		},
		"swap chunk sums": func(r *AggregateReply) {
			r.Chunks[0].Sum, r.Chunks[1].Sum = r.Chunks[1].Sum, r.Chunks[0].Sum
		},
		"inflate count": func(r *AggregateReply) {
			r.Chunks[0].Count++
		},
		"inflate masked count": func(r *AggregateReply) {
			r.Chunks[0].MaskCnt = fx.r.Field().Add(r.Chunks[0].MaskCnt, 1)
		},
		"drop chunk": func(r *AggregateReply) {
			r.Chunks = r.Chunks[:len(r.Chunks)-1]
		},
		"merge rows": func(r *AggregateReply) {
			r.Chunks[0].Rows += r.Chunks[1].Rows
		},
		"shift bounds": func(r *AggregateReply) {
			r.Chunks[0].FirstPre++
		},
	}
	for name, mutate := range cases {
		cli := NewClient(&tamperAPI{ServerAPI: fx.server, inner: fx.server, mutate: mutate}, fx.scheme)
		_, err := cli.AggregateFold(pres, AggSum, AggregateOptions{ChunkRows: 20, CheckPoint: point})
		var ie *IntegrityError
		if !errors.As(err, &ie) {
			t.Errorf("%s: err = %v, want IntegrityError", name, err)
			continue
		}
		// Integrity failures are evidence, not transient faults.
		if Retryable(err) {
			t.Errorf("%s: IntegrityError classified retryable", name)
		}
	}

	// Control: the identity mutation passes every check.
	cli := NewClient(&tamperAPI{ServerAPI: fx.server, inner: fx.server, mutate: func(*AggregateReply) {}}, fx.scheme)
	agg, err := cli.AggregateFold(pres, AggSum, AggregateOptions{ChunkRows: 20, CheckPoint: point})
	if err != nil {
		t.Fatalf("untampered reply rejected: %v", err)
	}
	if !agg.Verified {
		t.Fatal("untampered fold not marked verified")
	}
}

// TestAggregateTamperNeedsCheckPoint documents the detection boundary:
// without a known root to check against (CheckPoint == 0), a corrupted
// but well-formed sum blob is NOT detectable — the count and tiling
// checks still run, but value integrity needs the root invariant.
func TestAggregateTamperNeedsCheckPoint(t *testing.T) {
	fx := newFixture(t, wideXML(30))
	pres := fx.presNamed("item")
	evil := func(r *AggregateReply) {
		// Re-encode a valid but wrong polynomial, so the decode succeeds.
		fake := fx.r.Linear(5)
		r.Chunks[0].Sum = fx.r.AppendBytes(nil, fake)
	}
	cli := NewClient(&tamperAPI{ServerAPI: fx.server, inner: fx.server, mutate: evil}, fx.scheme)
	if _, err := cli.AggregateFold(pres, AggSum, AggregateOptions{}); err != nil {
		t.Fatalf("expected undetected tamper without CheckPoint, got %v", err)
	}
	if _, err := cli.AggregateFold(pres, AggSum, AggregateOptions{CheckPoint: fx.val(t, "item")}); err == nil {
		t.Fatal("tamper with CheckPoint set went undetected")
	}
}

// TestAggregateRemoteCheap pins the whole point of the fold frames: a
// SUM over n rows must cost O(chunks) exchanges, not O(rows).
func TestAggregateRemoteCheap(t *testing.T) {
	fx := newFixture(t, wideXML(164)) // exactly 2 max-size chunks for q=83
	pres := fx.presNamed("item")
	before := fx.rmiCli.Stats().Calls
	agg, err := fx.remote.AggregateFold(pres, AggSum, AggregateOptions{CheckPoint: fx.val(t, "item")})
	if err != nil {
		t.Fatal(err)
	}
	if calls := fx.rmiCli.Stats().Calls - before; calls != 1 {
		t.Fatalf("fold cost %d exchanges for %d rows, want 1", calls, len(pres))
	}
	if agg.Count != 164 || !agg.Verified {
		t.Fatalf("count=%d verified=%v", agg.Count, agg.Verified)
	}
}
