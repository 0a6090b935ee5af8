package experiment

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"encshare/internal/engine"
	"encshare/internal/filter"
	"encshare/internal/rmi"
	"encshare/internal/xpath"
)

var update = flag.Bool("update", false, "rewrite testdata/percall.golden from the current engines")

// TestPerCallGolden pins the paper's per-call protocol (§5.2), where every
// check is its own server exchange. For each Table 1 and Table 2 query,
// both engines and both tests, it runs the per-call engine over the RMI
// transport on XMark 0.1 (seed 42) and compares the exchanges issued per
// RMI method and the work counters with testdata/percall.golden.
// Regenerate the file with
//
//	go test ./internal/experiment -run TestPerCallGolden -update
func TestPerCallGolden(t *testing.T) {
	env, err := NewEnv(0.1, 42)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	srv := rmi.NewServer()
	filter.RegisterServer(srv, filter.NewServerFilter(env.Store, env.Ring, 4096))
	rc := rmi.Pipe(srv)
	defer rc.Close()
	rem := filter.NewRemote(rc)
	cli := filter.NewClient(rem, env.Scheme)
	engines := []engine.Engine{
		engine.NewSimplePerCall(cli, env.Map),
		engine.NewAdvancedPerCall(cli, env.Map),
	}

	var got bytes.Buffer
	got.WriteString("# Per-call exchanges per RMI method and work counters of the paper's\n" +
		"# protocol, XMark 0.1 seed 42 (see TestPerCallGolden).\n")
	for _, qs := range append(append([]string(nil), Table1Queries...), Table2Queries...) {
		q := xpath.MustParse(qs)
		for _, eng := range engines {
			for _, test := range []engine.Test{engine.Containment, engine.Equality} {
				before := rem.CallCounts()
				res, err := eng.Run(q, test)
				if err != nil {
					t.Fatalf("%s %s %s: %v", eng.Name(), test, qs, err)
				}
				if err := checkAnswer(env, eng, q, test, res); err != nil {
					t.Error(err)
				}
				var calls []string
				var total int64
				for m, n := range rem.CallCounts() {
					if d := n - before[m]; d > 0 {
						calls = append(calls, fmt.Sprintf("%s=%d", strings.TrimPrefix(m, "filter."), d))
						total += d
					}
				}
				sort.Strings(calls)
				st := res.Stats
				fmt.Fprintf(&got, "%s %s %s: exchanges=%d [%s] results=%d evals=%d recons=%d fetched=%d visited=%d decodes=%d\n",
					qs, eng.Name(), test, total, strings.Join(calls, " "), len(res.Pres),
					st.Evaluations, st.Reconstructions, st.NodesFetched, st.NodesVisited, st.Decodes)
			}
		}
	}

	path := filepath.Join("testdata", "percall.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d:\n got %s\nwant %s", i+1, g, w)
			}
		}
	}
}
