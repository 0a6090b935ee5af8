// Package experiment regenerates every table and figure of the paper's
// evaluation (§6) plus the in-text claims of §4, against the same XMark
// workload (Appendix A DTD, p = 83, e = 1). Each experiment returns a
// Table that prints like the paper's figures, and every query answer
// behind a figure is checked against the plaintext oracle by answer set.
// EXPERIMENTS.md records a reference run next to the paper's numbers.
package experiment

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"encshare/internal/encoder"
	"encshare/internal/engine"
	"encshare/internal/filter"
	"encshare/internal/gf"
	"encshare/internal/mapping"
	"encshare/internal/prg"
	"encshare/internal/ring"
	"encshare/internal/secshare"
	"encshare/internal/server"
	"encshare/internal/store"
	"encshare/internal/xmark"
	"encshare/internal/xmldoc"
	"encshare/internal/xpath"
)

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	sb.WriteString("== " + t.Title + " ==\n")
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if pad := widths[i] - len(c); pad > 0 && i < len(cells)-1 {
				sb.WriteString(strings.Repeat(" ", pad))
			}
		}
		sb.WriteString("\n")
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		sb.WriteString("note: " + n + "\n")
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// Env is a ready encrypted database over an XMark document, shared by the
// query experiments.
type Env struct {
	Doc      *xmldoc.Doc
	Map      *mapping.Map
	Ring     *ring.Ring
	Scheme   *secshare.Scheme
	Store    *store.Store
	Client   *filter.Client
	Simple   *engine.Simple
	Advanced *engine.Advanced
	Oracle   *xpath.Oracle

	dsn string
}

// NewEnv generates an XMark document at the given scale, encodes it with
// the paper's parameters (p=83, e=1), and wires up both engines.
func NewEnv(scale float64, seed int64) (*Env, error) {
	doc := xmark.Generate(xmark.Config{Scale: scale, Seed: seed})
	f, err := gf.New(83, 1)
	if err != nil {
		return nil, err
	}
	m, err := mapping.Generate(f, doc.Names())
	if err != nil {
		return nil, err
	}
	r, err := ring.New(f)
	if err != nil {
		return nil, err
	}
	scheme := secshare.New(r, prg.New([]byte(fmt.Sprintf("experiment-%d", seed))))

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
	if _, err := encoder.EncodeDoc(doc, encoder.Options{Map: m, Scheme: scheme}, st); err != nil {
		st.Close()
		store.Drop(dsn)
		return nil, err
	}
	cli := filter.NewClient(filter.NewServerFilter(st, r, server.DefaultCacheEntries), scheme)
	return &Env{
		Doc:      doc,
		Map:      m,
		Ring:     r,
		Scheme:   scheme,
		Store:    st,
		Client:   cli,
		Simple:   engine.NewSimple(cli, m),
		Advanced: engine.NewAdvanced(cli, m),
		Oracle:   xpath.NewOracle(doc),
		dsn:      dsn,
	}, nil
}

// Close releases the environment's database.
func (e *Env) Close() {
	e.Store.Close()
	store.Drop(e.dsn)
}

// Table1Queries are the nine queries of increasing length (paper Table 1).
var Table1Queries = []string{
	"/site",
	"/site/regions",
	"/site/regions/europe",
	"/site/regions/europe/item",
	"/site/regions/europe/item/description",
	"/site/regions/europe/item/description/parlist",
	"/site/regions/europe/item/description/parlist/listitem",
	"/site/regions/europe/item/description/parlist/listitem/text",
	"/site/regions/europe/item/description/parlist/listitem/text/keyword",
}

// Table2Queries are the five strictness-check queries (paper Table 2).
var Table2Queries = []string{
	"/site//europe/item",
	"/site//europe//item",
	"/site/*/person//city",
	"/*/*/open_auction/bidder/date",
	"//bidder/date",
}

// checkAnswer fails unless res, eng's answer to q under test, is
// exactly the plaintext oracle's answer set: equality matches a node's
// own tag, containment a tag anywhere in its subtree.
func checkAnswer(env *Env, eng engine.Engine, q *xpath.Query, test engine.Test, res engine.Result) error {
	mode := xpath.MatchContain
	if test == engine.Equality {
		mode = xpath.MatchEqual
	}
	got := slices.Clone(res.Pres)
	slices.Sort(got)
	if want := xpath.Pres(env.Oracle.Eval(q, mode)); !slices.Equal(got, want) {
		return fmt.Errorf("experiment: %s engine, %s test, %s: answer (%d nodes) differs from the oracle's (%d nodes)",
			eng.Name(), test, q, len(got), len(want))
	}
	return nil
}

func mb(b int64) string { return fmt.Sprintf("%.2f", float64(b)/1e6) }
func sec(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}
