package experiment

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"encshare/internal/engine"
	"encshare/internal/xpath"
)

// Aliases keep the strictness test terse.
var (
	parseQuery      = xpath.Parse
	containmentTest = engine.Containment
)

// testEnv is shared across the query experiments (building one takes a
// noticeable fraction of a second).
func testEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewEnv(0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.Close)
	return env
}

func cell(t *testing.T, tb *Table, row, col int) string {
	t.Helper()
	if row >= len(tb.Rows) || col >= len(tb.Rows[row]) {
		t.Fatalf("table %q has no cell (%d,%d)", tb.Title, row, col)
	}
	return tb.Rows[row][col]
}

func cellF(t *testing.T, tb *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell(t, tb, row, col), "x"), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric", row, col, cell(t, tb, row, col))
	}
	return v
}

func TestEncodingLinear(t *testing.T) {
	tb, err := Encoding([]float64{0.05, 0.1, 0.2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Output/input ratio roughly constant (linearity) and > 1 (overhead).
	r0, r2 := cellF(t, tb, 0, 5), cellF(t, tb, 2, 5)
	if r0 < 1.0 || r2 < 1.0 {
		t.Errorf("output smaller than input: ratios %.2f %.2f", r0, r2)
	}
	if r2/r0 > 1.3 || r0/r2 > 1.3 {
		t.Errorf("output/input ratio drifts: %.2f vs %.2f (not linear)", r0, r2)
	}
	// Meta share near the paper's 17%.
	meta := cellF(t, tb, 1, 4)
	if meta < 5 || meta > 35 {
		t.Errorf("meta overhead %.1f%% far from paper's ~17%%", meta)
	}
}

func TestQueryLengthShape(t *testing.T) {
	env := testEnv(t)
	tb, err := QueryLength(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 9 {
		t.Fatalf("rows = %d, want 9 (Table 1)", len(tb.Rows))
	}
	for i := range tb.Rows {
		simple := cellF(t, tb, i, 3)
		advanced := cellF(t, tb, i, 4)
		if simple <= 0 || advanced <= 0 {
			t.Fatalf("query %d: zero evaluations", i+1)
		}
		// Paper: "differ by at most a constant factor" — advanced does
		// more work on these chain queries but within a small multiple.
		if advanced < simple {
			t.Errorf("query %d: advanced (%v) cheaper than simple (%v) on its worst case", i+1, advanced, simple)
		}
		if advanced > 8*simple {
			t.Errorf("query %d: ratio %v not a small constant", i+1, advanced/simple)
		}
	}
	// Output size for query 1 (/site) is exactly 1.
	if got := cell(t, tb, 0, 2); got != "1" {
		t.Errorf("output size of /site = %s", got)
	}
}

func TestStrictnessShape(t *testing.T) {
	env := testEnv(t)
	tb, err := Strictness(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 (Table 2)", len(tb.Rows))
	}
	// Paper: "for all queries the advanced algorithm outperforms the
	// simple algorithm". Per-query wall-clock is too noisy under CI load,
	// so assert the deterministic mechanism behind it — the advanced
	// engine prunes, visiting no more nodes than simple on every query —
	// plus the aggregate time win with a wide margin.
	var sumSimple, sumAdv float64
	for i, qs := range Table2Queries {
		sumSimple += cellF(t, tb, i, 2)
		sumAdv += cellF(t, tb, i, 4)
		q, err := parseQuery(qs)
		if err != nil {
			t.Fatal(err)
		}
		s, err := env.Simple.Run(q, containmentTest)
		if err != nil {
			t.Fatal(err)
		}
		a, err := env.Advanced.Run(q, containmentTest)
		if err != nil {
			t.Fatal(err)
		}
		if a.Stats.NodesVisited > s.Stats.NodesVisited {
			t.Errorf("query %d: advanced visited %d nodes, simple %d — pruning lost",
				i+1, a.Stats.NodesVisited, s.Stats.NodesVisited)
		}
	}
	if sumAdv > sumSimple {
		t.Errorf("aggregate non-strict time: advanced %.1fms > simple %.1fms", sumAdv, sumSimple)
	}
}

func TestStrictnessWorkCounts(t *testing.T) {
	env := testEnv(t)
	tb, err := StrictnessWork(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Strict columns must mention reconstructions ("ev+rec" format), and
	// each batched strict cell is its per-call cell with every
	// reconstruction evaluated at each free point instead.
	points := int64(len(env.Map.FreePoints()))
	for i := range tb.Rows {
		if !strings.Contains(cell(t, tb, i, 3), "+") {
			t.Errorf("row %d strict/simple cell lacks reconstruction count", i)
		}
		for _, cols := range [][2]int{{3, 6}, {5, 7}} {
			var ev, rec, bev, brec int64
			if _, err := fmt.Sscanf(cell(t, tb, i, cols[0]), "%d+%d", &ev, &rec); err != nil {
				t.Fatal(err)
			}
			if _, err := fmt.Sscanf(cell(t, tb, i, cols[1]), "%d+%d", &bev, &brec); err != nil {
				t.Fatal(err)
			}
			if rec == 0 || bev != ev+points*rec || brec != 0 {
				t.Errorf("row %d: batched %s against per-call %s at %d free points",
					i, cell(t, tb, i, cols[1]), cell(t, tb, i, cols[0]), points)
			}
		}
	}
}

func TestAccuracyShape(t *testing.T) {
	env := testEnv(t)
	tb, err := Accuracy(env)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tb.Rows {
		acc := cellF(t, tb, i, 4)
		if acc < 0 || acc > 100 {
			t.Fatalf("query %d: accuracy %.1f out of range", i+1, acc)
		}
		e, c := cellF(t, tb, i, 2), cellF(t, tb, i, 3)
		if e > c {
			t.Fatalf("query %d: E=%v > C=%v", i+1, e, c)
		}
	}
	// Queries with // must lose accuracy (paper: "accuracy drops for each
	// // in the query"); all five Table 2 queries contain //.
	below := 0
	for i := range tb.Rows {
		if cellF(t, tb, i, 4) < 100 {
			below++
		}
	}
	if below == 0 {
		t.Error("no query lost accuracy despite // steps")
	}
}

func TestTrieStorageClaims(t *testing.T) {
	tb, err := TrieStorage(7)
	if err != nil {
		t.Fatal(err)
	}
	byMetric := map[string]string{}
	for _, row := range tb.Rows {
		byMetric[row[0]] = row[1]
	}
	dedup, _ := strconv.ParseFloat(byMetric["dedup saving %"], 64)
	if dedup < 20 {
		t.Errorf("dedup saving %.1f%% too low (paper ~50%%)", dedup)
	}
	trieSave, _ := strconv.ParseFloat(byMetric["trie compression saving %"], 64)
	if trieSave < 40 {
		t.Errorf("trie compression saving %.1f%% too low (paper 75-80%%)", trieSave)
	}
	bpc, _ := strconv.ParseFloat(byMetric["bytes per source character"], 64)
	if bpc <= 0 || bpc > 20 {
		t.Errorf("bytes per character %.2f implausible", bpc)
	}
}

func TestAblations(t *testing.T) {
	env := testEnv(t)
	if _, err := AblationDescendants(env); err != nil {
		t.Fatal(err)
	}
	tb, err := AblationIndexes(2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatal("index ablation missing rows")
	}
	ser, err := AblationSerialization()
	if err != nil {
		t.Fatal(err)
	}
	// F_83 packed must be 66 bytes vs 82 naive.
	found := false
	for _, row := range ser.Rows {
		if row[0] == "GF(83)" {
			found = true
			if row[2] != "66" || row[3] != "82" {
				t.Errorf("GF(83) serialization row = %v", row)
			}
		}
	}
	if !found {
		t.Error("GF(83) missing from serialization ablation")
	}
	if _, err := AblationMulStrategy(); err != nil {
		t.Fatal(err)
	}
}

func TestTableFprint(t *testing.T) {
	tb := &Table{
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"hello"},
	}
	var sb strings.Builder
	if err := tb.Fprint(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== demo ==", "333", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// A wrong answer of the right size must fail the oracle check, which a
// comparison of sizes alone would pass.
func TestCheckAnswerRejectsSwappedPre(t *testing.T) {
	env := testEnv(t)
	q, err := parseQuery(Table2Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := env.Simple.Run(q, engine.Equality)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAnswer(env, env.Simple, q, engine.Equality, res); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	if len(res.Pres) == 0 {
		t.Fatal("query has an empty answer; nothing to swap")
	}
	// Swap one pre for the root's, which this query never selects.
	bad := engine.Result{Pres: append([]int64{}, res.Pres...)}
	bad.Pres[len(bad.Pres)-1] = env.Doc.Root.Pre
	if err := checkAnswer(env, env.Simple, q, engine.Equality, bad); err == nil {
		t.Fatal("same-size answer with one pre swapped passed the oracle check")
	}
}
