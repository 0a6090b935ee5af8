package experiment

import (
	"fmt"
	"slices"
	"time"

	"encshare/internal/gf"
	"encshare/internal/prg"
	"encshare/internal/ring"
	"encshare/internal/store"
)

// AblationDescendants compares the boundary-optimized descendant scan
// against the naive post-filter variant (DESIGN.md §6) on the same
// encrypted database.
func AblationDescendants(env *Env) (*Table, error) {
	t := &Table{
		Title:  "Ablation — descendant query: boundary scan vs naive post-filter",
		Header: []string{"node", "subtree size", "boundary µs", "naive µs", "speedup"},
	}
	root, err := env.Store.Root()
	if err != nil {
		return nil, err
	}
	// Probe the root plus a few mid-tree nodes of decreasing subtree size.
	probes := []int64{root.Pre}
	kids, err := env.Store.Children(root.Pre)
	if err != nil {
		return nil, err
	}
	for _, k := range kids[:min(3, len(kids))] {
		probes = append(probes, k.Pre)
	}
	for _, pre := range probes {
		n, err := env.Store.Node(pre)
		if err != nil {
			return nil, err
		}
		const reps = 5
		var optDur, naiveDur time.Duration
		var size int
		for i := 0; i < reps; i++ {
			start := time.Now()
			rows, err := env.Store.Descendants(n.Pre, n.Post)
			if err != nil {
				return nil, err
			}
			optDur += time.Since(start)
			size = len(rows)

			start = time.Now()
			nrows, err := env.Store.DescendantsNaive(n.Pre, n.Post)
			if err != nil {
				return nil, err
			}
			naiveDur += time.Since(start)
			if len(nrows) != len(rows) {
				return nil, fmt.Errorf("experiment: naive/optimized descendant counts differ at %d", pre)
			}
		}
		speedup := float64(naiveDur) / float64(optDur)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("pre=%d", pre),
			fmt.Sprintf("%d", size),
			fmt.Sprintf("%.0f", float64(optDur.Microseconds())/reps),
			fmt.Sprintf("%.0f", float64(naiveDur.Microseconds())/reps),
			fmt.Sprintf("%.2fx", speedup),
		})
	}
	t.Notes = append(t.Notes,
		"small subtrees benefit most: the naive variant scans to the end of the pre index regardless")
	return t, nil
}

// AblationIndexes measures why the paper indexes parent: child lookups
// through the store's (parent, pre) B⁺-tree against one full pre-range
// scan filtered on parent, over the same rows. Both arms must return
// the same children.
func AblationIndexes(rows int64) (*Table, error) {
	dsn := store.FreshDSN()
	st, err := store.Open(dsn)
	if err != nil {
		return nil, err
	}
	defer func() { st.Close(); store.Drop(dsn) }()
	if err := st.Init(); err != nil {
		return nil, err
	}
	blob := make([]byte, 66)
	for i := int64(1); i <= rows; i++ {
		if err := st.InsertNode(store.NodeRow{Pre: i, Post: rows - i + 1, Parent: i / 2, Poly: blob}); err != nil {
			return nil, err
		}
	}
	scan := func(parent int64) ([]int64, error) {
		all, err := st.Range(1, rows)
		if err != nil {
			return nil, err
		}
		var pres []int64
		for _, r := range all {
			if r.Parent == parent {
				pres = append(pres, r.Pre)
			}
		}
		return pres, nil
	}
	indexed := func(parent int64) ([]int64, error) {
		kids, err := st.Children(parent)
		if err != nil {
			return nil, err
		}
		var pres []int64
		for _, r := range kids {
			pres = append(pres, r.Pre)
		}
		return pres, nil
	}
	const lookups = 200
	measure := func(arm func(int64) ([]int64, error)) (time.Duration, [][]int64, error) {
		answers := make([][]int64, lookups)
		start := time.Now()
		for i := range answers {
			pres, err := arm(int64(i) % (rows/2 + 1))
			if err != nil {
				return 0, nil, err
			}
			answers[i] = pres
		}
		return time.Since(start) / lookups, answers, nil
	}
	di, want, err := measure(indexed)
	if err != nil {
		return nil, err
	}
	dn, got, err := measure(scan)
	if err != nil {
		return nil, err
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			return nil, fmt.Errorf("experiment: children of %d: index %v, scan %v", int64(i)%(rows/2+1), want[i], got[i])
		}
	}
	t := &Table{
		Title:  fmt.Sprintf("Ablation — B⁺-tree index on parent (%d rows, per child lookup)", rows),
		Header: []string{"variant", "µs/lookup"},
		Rows: [][]string{
			{"indexed (paper §5.1)", fmt.Sprintf("%.1f", float64(di.Nanoseconds())/1000)},
			{"full scan", fmt.Sprintf("%.1f", float64(dn.Nanoseconds())/1000)},
		},
	}
	return t, nil
}

// AblationSerialization compares the paper-accurate radix-q packing
// against naive one-byte-per-coefficient storage across field sizes.
func AblationSerialization() (*Table, error) {
	t := &Table{
		Title:  "Ablation — polynomial serialization: radix-q packing vs byte-per-coefficient",
		Header: []string{"field", "coeffs", "packed B", "naive B", "saving %"},
	}
	for _, p := range []uint32{29, 83, 151, 251} {
		f, err := gf.New(p, 1)
		if err != nil {
			return nil, err
		}
		r, err := ring.New(f)
		if err != nil {
			return nil, err
		}
		naive := r.N() // one byte per coefficient (q < 256)
		packed := r.PolyBytes()
		t.Rows = append(t.Rows, []string{
			f.String(),
			fmt.Sprintf("%d", r.N()),
			fmt.Sprintf("%d", packed),
			fmt.Sprintf("%d", naive),
			fmt.Sprintf("%.1f", 100*(1-float64(packed)/float64(naive))),
		})
	}
	t.Notes = append(t.Notes, "the paper's (q-1)·log2(q)-bit cost model corresponds to the packed column")
	return t, nil
}

// AblationMulStrategy compares the encoder's incremental linear-factor
// multiply against generic ring multiplication for building node
// polynomials from k roots.
func AblationMulStrategy() (*Table, error) {
	f, err := gf.New(83, 1)
	if err != nil {
		return nil, err
	}
	r, err := ring.New(f)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation — building Π(x−t_i): MulLinear chain vs generic Mul",
		Header: []string{"k roots", "MulLinear ns", "generic Mul ns", "speedup"},
	}
	gen := prg.New([]byte("ablation")).Stream("roots", 0)
	for _, k := range []int{4, 16, 64} {
		roots := make([]gf.Elem, k)
		for i := range roots {
			roots[i] = gen.Uniform(f.Q()-1) + 1
		}
		const reps = 200
		start := time.Now()
		for i := 0; i < reps; i++ {
			p := r.One()
			for _, root := range roots {
				p = r.MulLinear(p, root)
			}
		}
		linDur := time.Since(start) / reps

		start = time.Now()
		for i := 0; i < reps; i++ {
			p := r.One()
			for _, root := range roots {
				p = r.Mul(p, r.Linear(root))
			}
		}
		genDur := time.Since(start) / reps

		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%d", linDur.Nanoseconds()),
			fmt.Sprintf("%d", genDur.Nanoseconds()),
			fmt.Sprintf("%.1fx", float64(genDur)/float64(linDur)),
		})
	}
	return t, nil
}
