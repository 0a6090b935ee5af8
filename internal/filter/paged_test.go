package filter

import (
	"strings"
	"testing"
)

// wideXML builds a document with one deliberately wide node: a root with
// n children, so the root's descendant list and equality bundle dwarf
// any member-count chunk bound — the shape that could blow the rmi
// frame before byte-aware paging.
func wideXML(n int) string {
	var sb strings.Builder
	sb.WriteString("<site>")
	for i := 0; i < n; i++ {
		sb.WriteString("<item/>")
	}
	sb.WriteString("</site>")
	return sb.String()
}

// TestPagedDescendantsWideNode: with a tiny reply budget, a single wide
// member must stream out over several pages — same rows, same order, no
// frame error.
func TestPagedDescendantsWideNode(t *testing.T) {
	fx := newFixture(t, wideXML(3000))
	oldBudget := ReplyByteBudget
	ReplyByteBudget = 4096
	t.Cleanup(func() { ReplyByteBudget = oldBudget })

	rem := NewRemote(fx.rmiCli)
	root, err := rem.Root()
	if err != nil {
		t.Fatal(err)
	}
	spans := []Span{{Pre: root.Pre, Post: root.Post}}
	got, err := rem.DescendantsBatch(spans)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fx.server.DescendantsBatch(spans)
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0]) != len(want[0]) {
		t.Fatalf("paged descendants returned %d rows, want %d", len(got[0]), len(want[0]))
	}
	for i := range want[0] {
		if got[0][i] != want[0][i] {
			t.Fatalf("row %d = %+v, want %+v (within-member split must preserve order)", i, got[0][i], want[0][i])
		}
	}
	if pages := rem.CallCounts()[methodDescendantsPage]; pages < 2 {
		t.Fatalf("wide member under a %d-byte budget used %d page(s), expected several", ReplyByteBudget, pages)
	}
}

// TestPagedNodePolysManyMembers: bundle batches split between bundles by
// byte size; every member still comes back, in order.
func TestPagedNodePolysManyMembers(t *testing.T) {
	fx := newFixture(t, wideXML(500))
	oldBudget := ReplyByteBudget
	ReplyByteBudget = 4096
	t.Cleanup(func() { ReplyByteBudget = oldBudget })

	rem := NewRemote(fx.rmiCli)
	var pres []int64
	for pre := int64(1); pre <= fx.doc.Count; pre++ {
		pres = append(pres, pre)
	}
	got, err := rem.NodePolysBatch(pres)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fx.server.NodePolysBatch(pres)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Err != want[i].Err || got[i].Node.Pre != want[i].Node.Pre ||
			len(got[i].Children) != len(want[i].Children) {
			t.Fatalf("bundle %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if pages := rem.CallCounts()[methodNodePolysPage]; pages < 2 {
		t.Fatalf("%d bundles under a %d-byte budget used %d page(s), expected several", len(pres), ReplyByteBudget, pages)
	}

	// The root bundle alone exceeds the budget (500 child share rows):
	// the progress guarantee must still deliver it in one oversized page
	// rather than loop forever.
	one, err := rem.NodePolysPartial([]int64{1})
	if err != nil {
		t.Fatal(err)
	}
	if !one[0].Has || len(one[0].Children) != 500 {
		t.Fatalf("oversized single bundle = has=%v children=%d", one[0].Has, len(one[0].Children))
	}
}

// TestPagedNormalBudgetOnePage: under the default budget a normal batch
// costs exactly one exchange — paging must not change the round-trip
// economics the batch pipeline is built on.
func TestPagedNormalBudgetOnePage(t *testing.T) {
	fx := newFixture(t, testXML)
	rem := NewRemote(fx.rmiCli)
	root, err := rem.Root()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rem.DescendantsBatch([]Span{{Pre: root.Pre, Post: root.Post}}); err != nil {
		t.Fatal(err)
	}
	if _, err := rem.NodePolysBatch([]int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	counts := rem.CallCounts()
	if counts[methodDescendantsPage] != 1 || counts[methodNodePolysPage] != 1 {
		t.Fatalf("normal batches cost %d/%d pages, want 1/1",
			counts[methodDescendantsPage], counts[methodNodePolysPage])
	}
}
