package experiment

import (
	"fmt"
	"io"

	"encshare/internal/encoder"
	"encshare/internal/engine"
	"encshare/internal/gf"
	"encshare/internal/mapping"
	"encshare/internal/prg"
	"encshare/internal/ring"
	"encshare/internal/secshare"
	"encshare/internal/store"
	"encshare/internal/trie"
	"encshare/internal/xmark"
	"encshare/internal/xmldoc"
	"encshare/internal/xpath"
)

// Encoding reproduces Fig. 4: encoded database size, index size and
// encoding time against the input XML size, for XMark documents generated
// at the given scales. The paper reports output ≈ 1.5× input plus ~17%
// pre/post/parent overhead within the output, all strictly linear.
func Encoding(scales []float64, seed int64) (*Table, error) {
	t := &Table{
		Title: "Fig. 4 — Encoding: size and time vs input size (p=83, e=1)",
		Header: []string{"scale", "input MB", "output MB", "index MB (est)",
			"meta %", "output/input", "encode s", "nodes"},
	}
	f, err := gf.New(83, 1)
	if err != nil {
		return nil, err
	}
	r, err := ring.New(f)
	if err != nil {
		return nil, err
	}
	for _, scale := range scales {
		cfg := xmark.Config{Scale: scale, Seed: seed}
		var xmlBytes int64
		if xmlBytes, err = xmark.WriteXML(io.Discard, cfg); err != nil {
			return nil, err
		}
		doc := xmark.Generate(cfg)
		m, err := mapping.Generate(f, doc.Names())
		if err != nil {
			return nil, err
		}
		scheme := secshare.New(r, prg.New([]byte(fmt.Sprintf("fig4-%d", seed))))
		dsn := store.FreshDSN()
		st, err := store.Open(dsn)
		if err != nil {
			return nil, err
		}
		if err := st.Init(); err != nil {
			st.Close()
			store.Drop(dsn)
			return nil, err
		}
		stats, err := encoder.EncodeDoc(doc, encoder.Options{Map: m, Scheme: scheme}, st)
		st.Close()
		store.Drop(dsn)
		if err != nil {
			return nil, err
		}
		// Three B-tree indexes (pre, post, parent), ~24 bytes per entry
		// ((key,rowid) pair plus amortized node overhead).
		indexBytes := 3 * stats.Nodes * 24
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", scale),
			mb(xmlBytes),
			mb(stats.OutputBytes()),
			mb(indexBytes),
			fmt.Sprintf("%.1f", 100*float64(stats.MetaBytes)/float64(stats.OutputBytes())),
			fmt.Sprintf("%.2f", float64(stats.OutputBytes())/float64(xmlBytes)),
			sec(stats.Elapsed),
			fmt.Sprintf("%d", stats.Nodes),
		})
	}
	t.Notes = append(t.Notes,
		"paper: output ≈ 1.5x input, ~17% of output is pre/post/parent, both size and time strictly linear")
	return t, nil
}

// QueryLength reproduces Fig. 5 / Table 1: number of evaluations for the
// simple and advanced engines (containment test) on the nine queries of
// increasing length, plus the result-set size.
func QueryLength(env *Env) (*Table, error) {
	t := &Table{
		Title:  "Fig. 5 / Table 1 — evaluations vs query length (containment test)",
		Header: []string{"#", "query", "output size", "evals simple", "evals advanced", "ratio"},
	}
	for i, qs := range Table1Queries {
		q, err := xpath.Parse(qs)
		if err != nil {
			return nil, err
		}
		s, err := env.Simple.Run(q, engine.Containment)
		if err != nil {
			return nil, err
		}
		if err := checkAnswer(env, env.Simple, q, engine.Containment, s); err != nil {
			return nil, err
		}
		a, err := env.Advanced.Run(q, engine.Containment)
		if err != nil {
			return nil, err
		}
		if err := checkAnswer(env, env.Advanced, q, engine.Containment, a); err != nil {
			return nil, err
		}
		ratio := float64(a.Stats.Evaluations) / float64(max64(1, s.Stats.Evaluations))
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", i+1),
			qs,
			fmt.Sprintf("%d", len(s.Pres)),
			fmt.Sprintf("%d", s.Stats.Evaluations),
			fmt.Sprintf("%d", a.Stats.Evaluations),
			fmt.Sprintf("%.2f", ratio),
		})
	}
	t.Notes = append(t.Notes,
		"paper: the two algorithms are comparable, differing by at most a constant factor (worst case for advanced)")
	return t, nil
}

// Strictness reproduces Fig. 6 / Table 2: execution time of
// {simple, advanced} × {non-strict (containment), strict (equality)} on
// the five // and * queries.
func Strictness(env *Env) (*Table, error) {
	t := &Table{
		Title: "Fig. 6 / Table 2 — strictness: execution time (ms)",
		Header: []string{"#", "query",
			"non-strict/simple", "strict/simple",
			"non-strict/advanced", "strict/advanced"},
	}
	type combo struct {
		eng  engine.Engine
		test engine.Test
	}
	for i, qs := range Table2Queries {
		q, err := xpath.Parse(qs)
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%d", i+1), qs}
		for _, c := range []combo{
			{env.Simple, engine.Containment},
			{env.Simple, engine.Equality},
			{env.Advanced, engine.Containment},
			{env.Advanced, engine.Equality},
		} {
			res, err := c.eng.Run(q, c.test)
			if err != nil {
				return nil, err
			}
			if err := checkAnswer(env, c.eng, q, c.test, res); err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.1f", float64(res.Stats.Elapsed.Microseconds())/1000))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper: advanced outperforms simple on all five queries; strict checking sometimes pays off, sometimes not")
	return t, nil
}

// StrictnessWork is the counting companion to Strictness: evaluations and
// reconstructions instead of wall-clock (hardware-independent shape).
func StrictnessWork(env *Env) (*Table, error) {
	t := &Table{
		Title: "Fig. 6 companion — work counts per configuration (evals+reconstructions)",
		Header: []string{"#", "query",
			"ns/simple ev", "s/simple ev+rec",
			"ns/adv ev", "s/adv ev+rec"},
	}
	for i, qs := range Table2Queries {
		q, err := xpath.Parse(qs)
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%d", i+1), qs}
		for _, c := range []struct {
			eng  engine.Engine
			test engine.Test
		}{
			{env.Simple, engine.Containment},
			{env.Simple, engine.Equality},
			{env.Advanced, engine.Containment},
			{env.Advanced, engine.Equality},
		} {
			res, err := c.eng.Run(q, c.test)
			if err != nil {
				return nil, err
			}
			if err := checkAnswer(env, c.eng, q, c.test, res); err != nil {
				return nil, err
			}
			if c.test == engine.Containment {
				row = append(row, fmt.Sprintf("%d", res.Stats.Evaluations))
			} else {
				row = append(row, fmt.Sprintf("%d+%d", res.Stats.Evaluations, res.Stats.Reconstructions))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Accuracy reproduces Fig. 7: the containment test's accuracy E/C per
// Table 2 query, where E is the equality result size and C the
// containment result size. Both results are checked against the
// plaintext oracle.
func Accuracy(env *Env) (*Table, error) {
	t := &Table{
		Title:  "Fig. 7 — accuracy of the containment test (E/C %)",
		Header: []string{"#", "query", "E (equality)", "C (containment)", "accuracy %"},
	}
	for i, qs := range Table2Queries {
		q, err := xpath.Parse(qs)
		if err != nil {
			return nil, err
		}
		eq, err := env.Simple.Run(q, engine.Equality)
		if err != nil {
			return nil, err
		}
		if err := checkAnswer(env, env.Simple, q, engine.Equality, eq); err != nil {
			return nil, err
		}
		co, err := env.Simple.Run(q, engine.Containment)
		if err != nil {
			return nil, err
		}
		if err := checkAnswer(env, env.Simple, q, engine.Containment, co); err != nil {
			return nil, err
		}
		acc := 100.0
		if len(co.Pres) > 0 {
			acc = 100 * float64(len(eq.Pres)) / float64(len(co.Pres))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", i+1),
			qs,
			fmt.Sprintf("%d", len(eq.Pres)),
			fmt.Sprintf("%d", len(co.Pres)),
			fmt.Sprintf("%.1f", acc),
		})
	}
	t.Notes = append(t.Notes,
		"paper: accuracy drops for each // in the query; 100% for absolute queries without //")
	return t, nil
}

// TrieStorage reproduces the §4 in-text claims: removing duplicate words
// saves ~50% on running text, the compressed trie representation 75–80%,
// and one encoded character costs ~3.5–4.5 bytes with p=29 (the paper
// rounds the polynomial to 17 bytes; exact packing needs 18).
func TrieStorage(seed int64) (*Table, error) {
	doc := xmark.Generate(xmark.Config{Scale: 0.3, Seed: seed})
	var sb []byte
	doc.Walk(func(n *xmldoc.Node) bool {
		if n.Text != "" {
			sb = append(sb, n.Text...)
			sb = append(sb, ' ')
		}
		return true
	})
	corpus := string(sb)
	st := trie.Measure(corpus)

	f29, err := gf.New(29, 1)
	if err != nil {
		return nil, err
	}
	r29, err := ring.New(f29)
	if err != nil {
		return nil, err
	}
	polyBytes := r29.PolyBytes()

	dedupSave := 100 * (1 - float64(st.DistinctWords)/float64(st.TotalWords))
	trieSave := 100 * (1 - float64(st.CompressedNodes)/float64(st.UncompressedNode))
	bytesPerChar := float64(st.CompressedNodes*polyBytes) / float64(st.Chars)

	t := &Table{
		Title:  "§4 — trie storage claims (XMark text corpus, p=29)",
		Header: []string{"metric", "measured", "paper"},
		Rows: [][]string{
			{"total words", fmt.Sprintf("%d", st.TotalWords), ""},
			{"distinct words", fmt.Sprintf("%d", st.DistinctWords), ""},
			{"dedup saving %", fmt.Sprintf("%.1f", dedupSave), "~50%"},
			{"uncompressed trie nodes", fmt.Sprintf("%d", st.UncompressedNode), ""},
			{"compressed trie nodes", fmt.Sprintf("%d", st.CompressedNodes), ""},
			{"trie compression saving %", fmt.Sprintf("%.1f", trieSave), "75-80%"},
			{"poly bytes (p=29)", fmt.Sprintf("%d", polyBytes), "17 (rounded; 18 exact)"},
			{"bytes per source character", fmt.Sprintf("%.2f", bytesPerChar), "3.5-4.5"},
		},
	}
	return t, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
