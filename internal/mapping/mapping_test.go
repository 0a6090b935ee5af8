package mapping

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"encshare/internal/gf"
)

func TestGenerateAssignsSequential(t *testing.T) {
	f := gf.MustNew(5, 1)
	m, err := Generate(f, []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range []string{"a", "b", "c"} {
		v, err := m.Value(n)
		if err != nil {
			t.Fatal(err)
		}
		if v != gf.Elem(i+1) {
			t.Errorf("Value(%q) = %d, want %d", n, v, i+1)
		}
	}
	if m.Len() != 3 {
		t.Errorf("Len = %d, want 3", m.Len())
	}
}

func TestGenerateDeduplicates(t *testing.T) {
	f := gf.MustNew(5, 1)
	m, err := Generate(f, []string{"a", "b", "a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 2 {
		t.Errorf("Len = %d, want 2", m.Len())
	}
}

func TestGenerateOverflow(t *testing.T) {
	f := gf.MustNew(5, 1) // only 4 nonzero values
	_, err := Generate(f, []string{"a", "b", "c", "d", "e"})
	if err == nil {
		t.Fatal("expected capacity error")
	}
}

func TestGenerateRejectsEmptyName(t *testing.T) {
	if _, err := Generate(gf.MustNew(5, 1), []string{""}); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestPaperDTDFitsF83(t *testing.T) {
	// The paper chooses p = 83 for the XMark DTD's 77 elements.
	names := make([]string, 77)
	for i := range names {
		names[i] = strings.Repeat("x", i+1)
	}
	if _, err := Generate(gf.MustNew(83, 1), names); err != nil {
		t.Fatalf("77 names should fit in F_83^*: %v", err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	f := gf.MustNew(83, 1)
	m, err := Generate(f, []string{"site", "regions", "europe", "item"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(f, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Len() != m.Len() {
		t.Fatalf("round-trip Len %d != %d", m2.Len(), m.Len())
	}
	for _, n := range m.Names() {
		v1, _ := m.Value(n)
		v2, err := m2.Value(n)
		if err != nil || v1 != v2 {
			t.Errorf("round-trip Value(%q): %d vs %d (%v)", n, v1, v2, err)
		}
	}
}

func TestLoadFormat(t *testing.T) {
	f := gf.MustNew(83, 1)
	src := `# comment line
site = 1

regions=2
  europe   =   3
`
	m, err := Load(f, strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	for n, want := range map[string]gf.Elem{"site": 1, "regions": 2, "europe": 3} {
		if v, _ := m.Value(n); v != want {
			t.Errorf("Value(%q) = %d, want %d", n, v, want)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	f := gf.MustNew(5, 1)
	cases := map[string]string{
		"missing equals":  "site 1\n",
		"empty name":      "= 3\n",
		"bad value":       "a = xyz\n",
		"zero value":      "a = 0\n",
		"value too large": "a = 5\n",
		"duplicate name":  "a = 1\na = 2\n",
		"duplicate value": "a = 1\nb = 1\n",
		"negative value":  "a = -1\n",
	}
	for what, src := range cases {
		if _, err := Load(f, strings.NewReader(src)); err == nil {
			t.Errorf("%s: Load accepted %q", what, src)
		}
	}
}

func TestUnknownName(t *testing.T) {
	m, _ := Generate(gf.MustNew(5, 1), []string{"a"})
	_, err := m.Value("nope")
	if err == nil {
		t.Fatal("expected error for unknown name")
	}
	var une *UnknownNameError
	if !errorsAs(err, &une) || une.Name != "nope" {
		t.Fatalf("error %v is not UnknownNameError(nope)", err)
	}
	if m.Has("nope") {
		t.Error("Has(nope) = true")
	}
	if !m.Has("a") {
		t.Error("Has(a) = false")
	}
}

// errorsAs is a tiny local wrapper to avoid importing errors just for one
// assertion site.
func errorsAs(err error, target **UnknownNameError) bool {
	u, ok := err.(*UnknownNameError)
	if ok {
		*target = u
	}
	return ok
}

func TestReverseLookup(t *testing.T) {
	m, _ := Generate(gf.MustNew(5, 1), []string{"a", "b"})
	if n, ok := m.Name(1); !ok || n != "a" {
		t.Errorf("Name(1) = %q,%v", n, ok)
	}
	if _, ok := m.Name(4); ok {
		t.Error("Name(4) found a mapping that should not exist")
	}
}

func TestNamesSorted(t *testing.T) {
	m, _ := Generate(gf.MustNew(83, 1), []string{"zebra", "apple", "mango"})
	names := m.Names()
	want := []string{"apple", "mango", "zebra"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
}

func TestInjectivityInvariant(t *testing.T) {
	// Generated maps must be injective with all values nonzero — the
	// precondition for containment exactness.
	names := []string{"q", "w", "e", "r", "t", "y", "u", "i", "o", "p"}
	m, err := Generate(gf.MustNew(29, 1), names)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[gf.Elem]bool{}
	for _, n := range names {
		v, err := m.Value(n)
		if err != nil {
			t.Fatal(err)
		}
		if v == 0 {
			t.Fatalf("Value(%q) = 0", n)
		}
		if seen[v] {
			t.Fatalf("value %d assigned twice", v)
		}
		seen[v] = true
	}
}

// TestFreePoints: the strict test's points are the smallest values of
// F_q^* outside the map's image, at most two, a function of the map
// alone — the same after a save and load.
func TestFreePoints(t *testing.T) {
	f := gf.MustNew(7, 1)
	for _, tc := range []struct {
		file string
		want []gf.Elem
	}{
		{"a = 1\nb = 2\n", []gf.Elem{3, 4}},
		{"a = 2\nb = 5\nc = 1\n", []gf.Elem{3, 4}},
		{"a = 1\nb = 2\nc = 3\nd = 4\ne = 6\n", []gf.Elem{5}},
		{"a = 1\nb = 2\nc = 3\nd = 4\ne = 5\nf = 6\n", nil},
		{"", []gf.Elem{1, 2}},
	} {
		m, err := Load(f, strings.NewReader(tc.file))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := Load(f, &buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range [][]gf.Elem{m.FreePoints(), m.FreePoints(), again.FreePoints()} {
			if !slices.Equal(got, tc.want) {
				t.Errorf("map %q: free points %v, want %v", tc.file, got, tc.want)
			}
		}
	}
	m, err := Generate(gf.MustNew(83, 1), []string{"x", "y", "z"})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.FreePoints(); !slices.Equal(got, []gf.Elem{4, 5}) {
		t.Errorf("generated map of 3 names: free points %v, want [4 5]", got)
	}
}
