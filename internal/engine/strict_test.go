package engine

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"encshare/internal/cluster"
	"encshare/internal/encoder"
	"encshare/internal/filter"
	"encshare/internal/gf"
	"encshare/internal/mapping"
	"encshare/internal/prg"
	"encshare/internal/ring"
	"encshare/internal/rmi"
	"encshare/internal/secshare"
	"encshare/internal/store"
	"encshare/internal/xmark"
	"encshare/internal/xmldoc"
	"encshare/internal/xpath"
)

// paperQueries are the paper's Tables 1 and 2 (experiment.Table1Queries
// and Table2Queries; that package imports this one).
var paperQueries = []string{
	"/site",
	"/site/regions",
	"/site/regions/europe",
	"/site/regions/europe/item",
	"/site/regions/europe/item/description",
	"/site/regions/europe/item/description/parlist",
	"/site/regions/europe/item/description/parlist/listitem",
	"/site/regions/europe/item/description/parlist/listitem/text",
	"/site/regions/europe/item/description/parlist/listitem/text/keyword",
	"/site//europe/item",
	"/site//europe//item",
	"/site/*/person//city",
	"/*/*/open_auction/bidder/date",
	"//bidder/date",
}

// gateWire is the batched transport with every strict batch run twice:
// at the map's free points, whose answer the engine gets, and from
// share bundles, the paper's reconstruction. It counts the checks and
// the members on which the two disagree.
type gateWire struct {
	*filter.Client
	checks, disagreements int
}

func (g *gateWire) EqualsBatch(checks []filter.Check, points []gf.Elem) ([]bool, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("gate: the map leaves no free point")
	}
	recons := g.Counters.Reconstructions.Load()
	at, err := g.Client.EqualsBatch(checks, points)
	if err != nil {
		return nil, err
	}
	if g.Counters.Reconstructions.Load() != recons {
		// Both runs took the bundle path: the gate would compare it
		// with itself.
		return nil, fmt.Errorf("gate: the backend did not answer at the free points")
	}
	full, err := g.Client.EqualsBatch(checks, nil)
	if err != nil {
		return nil, err
	}
	for i := range checks {
		if at[i] != full[i] {
			g.disagreements++
		}
	}
	g.checks += len(checks)
	return at, nil
}

// strictBackends are the backends a session runs over, all holding
// st's rows: what OpenLocal builds (a Mutable over the server filter),
// the same over an rmi.Pipe, and a two-shard in-process cluster.
func strictBackends(t testing.TB, st *store.Store, r *ring.Ring) map[string]filter.ServerAPI {
	t.Helper()
	local := filter.NewMutable(filter.NewServerFilter(st, r, 1024), 0, nil, nil)
	srv := rmi.NewServer()
	filter.RegisterServer(srv, local)
	pipe := rmi.Pipe(srv)
	t.Cleanup(func() { pipe.Close() })

	n, err := st.Count()
	if err != nil {
		t.Fatal(err)
	}
	ranges := []cluster.Range{{Lo: 1, Hi: n / 2}, {Lo: n/2 + 1, Hi: n}}
	parts, cleanup, err := cluster.SplitStore(st, ranges)
	t.Cleanup(cleanup)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]cluster.Shard, len(parts))
	for i, part := range parts {
		shards[i] = cluster.Shard{Addr: fmt.Sprintf("shard%d", i), Range: ranges[i], Conn: filter.NewServerFilter(part, r, 1024)}
	}
	cf, err := cluster.New(shards)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]filter.ServerAPI{"local": local, "pipe": filter.NewRemote(pipe), "cluster": cf}
}

// encodeAt encodes doc under a fresh map of its names over F_p, with
// client shares drawn from key.
func encodeAt(t testing.TB, doc *xmldoc.Doc, p uint32, key string) (*store.Store, *mapping.Map, *ring.Ring, *secshare.Scheme) {
	t.Helper()
	f := gf.MustNew(p, 1)
	m, err := mapping.Generate(f, doc.Names())
	if err != nil {
		t.Fatal(err)
	}
	r := ring.MustNew(f)
	scheme := secshare.New(r, prg.New([]byte(key)))
	dsn := store.FreshDSN()
	st, err := store.Open(dsn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		st.Close()
		store.Drop(dsn)
	})
	if err := st.Init(); err != nil {
		t.Fatal(err)
	}
	if _, err := encoder.EncodeDoc(doc, encoder.Options{Map: m, Scheme: scheme}, st); err != nil {
		t.Fatal(err)
	}
	return st, m, r, scheme
}

// TestStrictPointsGate holds the strict test at the map's free points
// to the paper's reconstruction: on seeded XMark documents encoded over
// the paper's F_83, for the queries of Tables 1–2 and predQueries, both
// engines over a local, a piped and a two-shard backend run every
// strict batch both ways. The two must never disagree, and every answer
// must be the plaintext oracle's.
func TestStrictPointsGate(t *testing.T) {
	queries := append(append([]string(nil), paperQueries...), predQueries...)
	total := 0
	for _, seed := range []int64{7, 11, 12} {
		doc := xmark.Generate(xmark.Config{Scale: 0.02, Seed: seed})
		st, m, r, scheme := encodeAt(t, doc, 83, "strict-gate")
		if len(m.FreePoints()) == 0 {
			t.Fatalf("seed %d: %d names fill F_83", seed, m.Len())
		}
		oracle := xpath.NewOracle(doc)
		for name, api := range strictBackends(t, st, r) {
			gate := &gateWire{Client: filter.NewClient(api, scheme)}
			engines := []Engine{
				&Simple{base{cli: gate.Client, m: m, wire: gate}},
				&Advanced{base{cli: gate.Client, m: m, wire: gate}},
			}
			for _, qs := range queries {
				q := xpath.MustParse(qs)
				want := xpath.Pres(oracle.Eval(q, xpath.MatchEqual))
				for _, e := range engines {
					res, err := e.Run(q, Equality)
					if err != nil {
						t.Fatalf("seed %d %s %s %s: %v", seed, name, e.Name(), qs, err)
					}
					if !equalPres(res.Pres, want) {
						t.Errorf("seed %d %s %s %s: %v, oracle %v", seed, name, e.Name(), qs, res.Pres, want)
					}
				}
			}
			if gate.disagreements != 0 {
				t.Errorf("seed %d %s: the free-point test disagreed with the reconstruction on %d of %d checks",
					seed, name, gate.disagreements, gate.checks)
			}
			total += gate.checks
		}
	}
	if total == 0 {
		t.Fatal("the gate saw no strict check")
	}
	t.Logf("%d strict checks, 0 disagreements", total)
}

// bundlesOnly forwards ServerAPI alone, hiding every optional interface
// of its backend — FamilyEvalAPI among them — as a decorator that knows
// only ServerAPI does.
type bundlesOnly struct{ filter.ServerAPI }

// TestStrictFallbacks: the batched strict test takes the bundle path
// when the backend does not serve FamilyEvalAPI, and when the map's
// names fill F_q^* so no point is free. Either way the answers are the
// oracle's and the work is the per-call reference's exactly: the same
// evaluations and reconstructions, as before the free-point test.
func TestStrictFallbacks(t *testing.T) {
	hidden := buildXML(t, smallXML)
	hiddenCli := filter.NewClient(bundlesOnly{hidden.server}, hidden.scheme)

	doc, err := xmldoc.ParseString(smallXML)
	if err != nil {
		t.Fatal(err)
	}
	var fill []string
	for i := len(doc.Names()); i < 250; i++ {
		fill = append(fill, fmt.Sprintf("filler%d", i))
	}
	full := build(t, doc, fill) // F_251: 250 names leave no point free
	if pts := full.m.FreePoints(); len(pts) != 0 {
		t.Fatalf("map of %d names over F_251 has free points %v", full.m.Len(), pts)
	}

	for _, tc := range []struct {
		name string
		fx   *fixture
		cli  *filter.Client
	}{
		{"hidden FamilyEvalAPI", hidden, hiddenCli},
		{"no free point", full, full.cli},
	} {
		simpleRef, advancedRef := seqEngines(tc.fx)
		for i, qs := range append(append([]string(nil), testQueries...), predQueries...) {
			q := xpath.MustParse(qs)
			want := xpath.Pres(tc.fx.oracle.Eval(q, xpath.MatchEqual))
			for _, pair := range [][2]Engine{{NewSimple(tc.cli, tc.fx.m), simpleRef}, {NewAdvanced(tc.cli, tc.fx.m), advancedRef}} {
				res, err := pair[0].Run(q, Equality)
				if err != nil {
					t.Fatalf("%s %s %s: %v", tc.name, pair[0].Name(), qs, err)
				}
				if !equalPres(res.Pres, want) {
					t.Errorf("%s %s %s: %v, oracle %v", tc.name, pair[0].Name(), qs, res.Pres, want)
				}
				if i >= len(testQueries) {
					continue // the references do not share the predicate walk's work
				}
				ref, err := pair[1].Run(q, Equality)
				if err != nil {
					t.Fatal(err)
				}
				if !sameWork(res.Stats, ref.Stats, 0) {
					t.Errorf("%s %s %s: batched work %+v != reference %+v", tc.name, pair[0].Name(), qs, res.Stats, ref.Stats)
				}
			}
		}
	}
}

// familyRecorder is a server filter that logs every FamilyEvals request
// it serves: the pres and the points, which is all the method tells the
// server beyond the share rows it already holds.
type familyRecorder struct {
	*filter.ServerFilter
	log *bytes.Buffer
}

func (f familyRecorder) FamilyEvals(pres []int64, points []gf.Elem) ([]filter.FamilyEval, error) {
	fmt.Fprintf(f.log, "FamilyEvals %v at %v\n", pres, points)
	return f.ServerFilter.FamilyEvals(pres, points)
}

// TestStrictTranscriptKeyIndependent pins what the server learns from
// the free-point strict test (DESIGN.md, "What the server learns"):
// over the paper's Tables 1–2, both engines' Batched strict runs send
// the same FamilyEvals requests under two key seeds with one map —
// byte-identical transcripts — and every request's points are the
// map's free points.
func TestStrictTranscriptKeyIndependent(t *testing.T) {
	doc := xmark.Generate(xmark.Config{Scale: 0.02, Seed: 7})
	var transcripts [2]bytes.Buffer
	for i, key := range []string{"first key", "second key"} {
		st, m, r, scheme := encodeAt(t, doc, 83, key)
		srv := rmi.NewServer()
		filter.RegisterServer(srv, familyRecorder{filter.NewServerFilter(st, r, 1024), &transcripts[i]})
		pipe := rmi.Pipe(srv)
		t.Cleanup(func() { pipe.Close() })
		cli := filter.NewClient(filter.NewRemote(pipe), scheme)
		for _, qs := range paperQueries {
			for _, e := range []Engine{NewSimple(cli, m), NewAdvanced(cli, m)} {
				if _, err := e.Run(xpath.MustParse(qs), Equality); err != nil {
					t.Fatalf("%s %s: %v", e.Name(), qs, err)
				}
			}
		}
		at := fmt.Sprintf(" at %v\n", m.FreePoints())
		for _, line := range strings.SplitAfter(transcripts[i].String(), "\n") {
			if line != "" && !strings.HasSuffix(line, at) {
				t.Fatalf("request %q is not at the free points %v", line, m.FreePoints())
			}
		}
	}
	if transcripts[0].Len() == 0 {
		t.Fatal("no FamilyEvals request reached the server")
	}
	if !bytes.Equal(transcripts[0].Bytes(), transcripts[1].Bytes()) {
		t.Fatalf("FamilyEvals transcripts differ between key seeds:\n%s\n---\n%s", transcripts[0].String(), transcripts[1].String())
	}
}
