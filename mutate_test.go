package encshare

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sort"
	"strings"
	"testing"

	"encshare/internal/cluster"
	"encshare/internal/filter"
	"encshare/internal/rmi"
	"encshare/internal/store"
)

// encodeFresh encodes xml into a fresh database with the given keys.
// Shares are deterministic in (keys, pre), so two encodes of the same
// document with the same keys are byte-identical — which makes a fresh
// encode of the post-mutation document a gold oracle for the whole
// share table, polynomials included.
func encodeFresh(t *testing.T, keys *Keys, xml string) *Database {
	t.Helper()
	db, err := CreateDatabase(store.FreshDSN())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.EncodeXML(keys, strings.NewReader(xml)); err != nil {
		t.Fatal(err)
	}
	return db
}

// assertSameTable compares the two databases' full node tables row by
// row: numbering, structure pointers, and share blobs byte for byte.
func assertSameTable(t *testing.T, step string, got, want *Database) {
	t.Helper()
	ng, err := got.NodeCount()
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	nw, err := want.NodeCount()
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	if ng != nw {
		t.Fatalf("%s: table holds %d nodes, oracle %d", step, ng, nw)
	}
	rg, err := got.st.Range(1, ng)
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	rw, err := want.st.Range(1, nw)
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	sort.Slice(rg, func(i, j int) bool { return rg[i].Pre < rg[j].Pre })
	sort.Slice(rw, func(i, j int) bool { return rw[i].Pre < rw[j].Pre })
	for i := range rw {
		g, w := rg[i], rw[i]
		if g.Pre != w.Pre || g.Post != w.Post || g.Parent != w.Parent {
			t.Fatalf("%s: row %d is (pre %d, post %d, parent %d), oracle (%d, %d, %d)",
				step, i, g.Pre, g.Post, g.Parent, w.Pre, w.Post, w.Parent)
		}
		if !bytes.Equal(g.Poly, w.Poly) {
			t.Fatalf("%s: share blob of pre %d differs from the oracle encode", step, g.Pre)
		}
	}
}

// TestMutateGoldOracle drives every mutation kind through a local
// session and, after each step, requires the mutated table to be
// BYTE-IDENTICAL to a fresh encode of the equivalent XML document with
// the same keys — numbering, parent pointers, and every share blob.
func TestMutateGoldOracle(t *testing.T) {
	keys, err := GenerateKeys(Params{P: 83}, testNames(t))
	if err != nil {
		t.Fatal(err)
	}
	db := encodeFresh(t, keys, testXML)
	s := OpenLocal(keys, db)
	defer s.Close()

	// Base numbering: 1 site, 2 regions, 3 europe, 4 item, 5 name,
	// 6 people, 7 person, 8 name, 9 address, 10 city.
	steps := []struct {
		name   string
		mutate func() error
		xml    string // expected document after this step
	}{
		{
			// Mid-document insert: tail rows 6–10 shift up, ancestors
			// europe/regions/site gain the (x − item) factor.
			name: "insert item under europe",
			mutate: func() error {
				pre, err := s.Insert(3, "item")
				if err == nil && pre != 6 {
					t.Fatalf("Insert under europe landed at pre %d, want 6", pre)
				}
				return err
			},
			xml: `<site><regions><europe><item><name>lamp</name></item><item/></europe></regions><people><person><name>Joan Johnson</name><address><city>Enschede</city></address></person></people></site>`,
		},
		{
			// Rename in place: no renumbering, ancestors rebuilt around
			// the changed child with algebraically recovered tags.
			name:   "rename the new item to city",
			mutate: func() error { return s.Update(6, "city") },
			xml:    `<site><regions><europe><item><name>lamp</name></item><city/></europe></regions><people><person><name>Joan Johnson</name><address><city>Enschede</city></address></person></people></site>`,
		},
		{
			// Mid-document leaf delete: tail shifts down, the parent
			// loses the child's factor.
			name:   "delete person's name",
			mutate: func() error { return s.Delete(9) },
			xml:    `<site><regions><europe><item><name>lamp</name></item><city/></europe></regions><people><person><address><city>Enschede</city></address></person></people></site>`,
		},
		{
			// Append at the document end: no tail to shift.
			name: "append regions under the root",
			mutate: func() error {
				pre, err := s.Insert(1, "regions")
				if err == nil && pre != 11 {
					t.Fatalf("append landed at pre %d, want 11", pre)
				}
				return err
			},
			xml: `<site><regions><europe><item><name>lamp</name></item><city/></europe></regions><people><person><address><city>Enschede</city></address></person></people><regions/></site>`,
		},
		{
			// Delete early in the document: the whole tail, the fresh
			// append included, shifts down past it.
			name:   "delete the lamp name",
			mutate: func() error { return s.Delete(5) },
			xml:    `<site><regions><europe><item/><city/></europe></regions><people><person><address><city>Enschede</city></address></person></people><regions/></site>`,
		},
	}
	for _, step := range steps {
		if err := step.mutate(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		oracle := encodeFresh(t, keys, step.xml)
		assertSameTable(t, step.name, db, oracle)

		// The engines must see the mutated document exactly as they
		// would a fresh encode of it.
		os := OpenLocal(keys, oracle)
		for _, q := range []string{"//item", "//city", "//name", "//regions", "/site/regions/europe/*"} {
			want, err := os.Query(q)
			if err != nil {
				t.Fatalf("%s: oracle %s: %v", step.name, q, err)
			}
			got, err := s.Query(q)
			if err != nil {
				t.Fatalf("%s: %s: %v", step.name, q, err)
			}
			if len(got.Pres) != len(want.Pres) {
				t.Fatalf("%s: %s = %v, oracle %v", step.name, q, got.Pres, want.Pres)
			}
			for i := range want.Pres {
				if got.Pres[i] != want.Pres[i] {
					t.Fatalf("%s: %s = %v, oracle %v", step.name, q, got.Pres, want.Pres)
				}
			}
		}
		os.Close()
	}
}

// TestEngineV2ReplicaDumpIdentity: two replicas hydrated from one dump
// and driven through the same mutation sequence via the full pipeline
// must produce byte-identical dump files — the property that lets
// replicated shards skip a consistency protocol.
func TestEngineV2ReplicaDumpIdentity(t *testing.T) {
	keys, err := GenerateKeys(Params{P: 83}, testNames(t))
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := encodeFresh(t, keys, testXML).DumpTo(&img); err != nil {
		t.Fatal(err)
	}

	mutate := func(which string) []byte {
		db, err := CreateDatabase(store.FreshDSN())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		if err := db.LoadFrom(bytes.NewReader(img.Bytes())); err != nil {
			t.Fatal(err)
		}
		s := OpenLocal(keys, db)
		defer s.Close()
		if _, err := s.Insert(3, "item"); err != nil {
			t.Fatalf("%s: insert: %v", which, err)
		}
		if err := s.Update(6, "city"); err != nil {
			t.Fatalf("%s: update: %v", which, err)
		}
		if err := s.Delete(9); err != nil {
			t.Fatalf("%s: delete: %v", which, err)
		}
		var out bytes.Buffer
		if err := db.DumpTo(&out); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}

	a := mutate("replica a")
	b := mutate("replica b")
	if !bytes.Equal(a, b) {
		t.Fatalf("replica dumps differ after identical mutations: %d vs %d bytes", len(a), len(b))
	}
}

// TestMutateErrors pins the typed refusals — and that a refused
// mutation leaves the table untouched.
func TestMutateErrors(t *testing.T) {
	keys, err := GenerateKeys(Params{P: 83}, testNames(t))
	if err != nil {
		t.Fatal(err)
	}
	db := encodeFresh(t, keys, testXML)
	s := OpenLocal(keys, db)
	defer s.Close()

	if err := s.Delete(1); !errors.Is(err, ErrDeleteRoot) {
		t.Errorf("Delete(root) = %v, want ErrDeleteRoot", err)
	}
	if err := s.Delete(2); !errors.Is(err, ErrHasChildren) {
		t.Errorf("Delete(interior) = %v, want ErrHasChildren", err)
	}
	if _, err := s.Insert(1, "no-such-tag"); err == nil {
		t.Error("Insert with an unmapped name succeeded")
	}
	if err := s.Update(4, "no-such-tag"); err == nil {
		t.Error("Update with an unmapped name succeeded")
	}
	if _, err := s.Insert(99, "item"); err == nil {
		t.Error("Insert under a missing node succeeded")
	}
	if err := s.Delete(99); err == nil {
		t.Error("Delete of a missing node succeeded")
	}
	assertSameTable(t, "after refused mutations", db, encodeFresh(t, keys, testXML))

	// A server that registers no mutation frames refuses at the lease.
	ro := rmi.NewServer()
	filter.RegisterServer(ro, filter.NewServerFilter(db.st, keys.ring, 0))
	if _, err := pipeSession(t, keys, ro).Insert(1, "item"); !errors.Is(err, ErrReadOnly) {
		t.Errorf("Insert against a read-only server = %v, want ErrReadOnly", err)
	}
}

// editDeltas runs edit and returns the wire methods it sent, by count.
func editDeltas(t *testing.T, s *Session, edit func() error) map[string]int64 {
	t.Helper()
	before := s.remote.CallCounts()
	if err := edit(); err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for m, n := range s.remote.CallCounts() {
		if d := n - before[m]; d != 0 {
			got[m] = d
		}
	}
	return got
}

// TestEditPlanExchanges pins each edit class's exchanges on a chain of
// five nodes (a new child of address). Update and delete walk the
// chain's metadata with one Node call per level, then read every chain
// node's bundle in a single NodePolysBatch exchange; insert reads each
// ancestor's own polynomial with a Poly call.
func TestEditPlanExchanges(t *testing.T) {
	keys, err := GenerateKeys(Params{P: 83}, testNames(t))
	if err != nil {
		t.Fatal(err)
	}
	db := encodeFresh(t, keys, testXML)
	srv := rmi.NewServer()
	filter.RegisterServer(srv, filter.NewMutable(filter.NewServerFilter(db.st, keys.ring, 1024), 0, nil, nil))
	s := pipeSession(t, keys, srv)

	const address = 9 // site/people/person/address
	var pre int64
	got := editDeltas(t, s, func() (err error) { pre, err = s.Insert(address, "item"); return err })
	want := map[string]int64{"filter.AcquireLease": 1, "filter.Node": 4, "filter.Descendants": 1,
		"filter.Count": 1, "filter.Poly": 4, "filter.MutateLeased": 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("insert sent %v, want %v", got, want)
	}
	got = editDeltas(t, s, func() error { return s.Update(pre, "city") })
	want = map[string]int64{"filter.AcquireLease": 1, "filter.Node": 5, "filter.NodePolysBatchPage": 1,
		"filter.MutateLeased": 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("update sent %v, want %v", got, want)
	}
	got = editDeltas(t, s, func() error { return s.Delete(pre) })
	want["filter.Count"] = 1
	if !reflect.DeepEqual(got, want) {
		t.Errorf("delete sent %v, want %v", got, want)
	}
	assertSameTable(t, "insert, update, delete", db, encodeFresh(t, keys, testXML))
}

// tamperServer serves a Mutable whose Node and NodePolysBatch replies
// pass through node and bundle (when set) before they leave the
// server: an untrusted server lying about an edit chain. With
// maxNodes set, every Node call past that many fails, so a walk that
// trusts a lie fails instead of looping.
type tamperServer struct {
	*filter.Mutable
	node     func(m *filter.NodeMeta)
	bundle   func(b *filter.NodePolys)
	maxNodes int
	nodes    int
}

func (m *tamperServer) Node(pre int64) (filter.NodeMeta, error) {
	if m.nodes++; m.maxNodes > 0 && m.nodes > m.maxNodes {
		return filter.NodeMeta{}, fmt.Errorf("tamper: Node call %d past the limit of %d", m.nodes, m.maxNodes)
	}
	meta, err := m.Mutable.Node(pre)
	if m.node != nil {
		m.node(&meta)
	}
	return meta, err
}

func (m *tamperServer) NodePolysBatch(pres []int64) ([]filter.NodePolys, error) {
	out, err := m.Mutable.NodePolysBatch(pres)
	for i := range out {
		if m.bundle != nil {
			m.bundle(&out[i])
		}
	}
	return out, err
}

// TestEditPlanRejectsTamperedChain: a parent pointer that does not
// precede its child, a bundle that omits a child row, or a bundle with
// an undecodable blob fails the plan before any batch is sent, and the
// table is left untouched. A parent cycle also fails an insert below
// it.
func TestEditPlanRejectsTamperedChain(t *testing.T) {
	keys, err := GenerateKeys(Params{P: 83}, testNames(t))
	if err != nil {
		t.Fatal(err)
	}
	const person, name, city = 7, 8, 10 // city's chain runs through person, whose children are name and address
	for _, tc := range []struct {
		label, want string
		srv         tamperServer
	}{
		{"parent cycle", "does not precede it", tamperServer{maxNodes: 64, node: func(m *filter.NodeMeta) {
			if m.Pre == person {
				m.Parent = city
			}
		}}},
		{"dropped child", "cannot recover a node's tag", tamperServer{bundle: func(b *filter.NodePolys) {
			if b.Node.Pre == person {
				b.Children = b.Children[1:] // name
			}
		}}},
		{"short blob", fmt.Sprintf("filter: decoding poly of %d: ", name), tamperServer{bundle: func(b *filter.NodePolys) {
			if b.Node.Pre == person {
				b.Children = append([]filter.PolyRow{{Pre: name, Poly: b.Children[0].Poly[1:]}}, b.Children[1:]...)
			}
		}}},
	} {
		t.Run(tc.label, func(t *testing.T) {
			db := encodeFresh(t, keys, testXML)
			tc.srv.Mutable = filter.NewMutable(filter.NewServerFilter(db.st, keys.ring, 1024), 0, nil, nil)
			srv := rmi.NewServer()
			filter.RegisterServer(srv, &tc.srv)
			s := pipeSession(t, keys, srv)
			err := s.Update(city, "name")
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("update over a tampered chain = %v, want an error containing %q", err, tc.want)
			}
			if tc.srv.node != nil {
				const address = 9 // person's child, city's parent
				if _, err := s.Insert(address, "item"); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("insert below a tampered chain = %v, want an error containing %q", err, tc.want)
				}
			}
			if n := s.remote.CallCounts()["filter.MutateLeased"]; n != 0 {
				t.Fatalf("%d MutateLeased frames sent for a plan that failed", n)
			}
			assertSameTable(t, tc.label, db, encodeFresh(t, keys, testXML))
		})
	}
}

// TestMutateRemote covers the single-server write path over TCP: the
// writer sees its own write, a session dialed afterwards sees it, a
// second writer interleaves (the server sequences both writers'
// batches under the lease), and a session pinned to the
// pre-mutation epoch gets fenced into a transparent re-pin — never a
// stale answer.
func TestMutateRemote(t *testing.T) {
	keys, err := GenerateKeys(Params{P: 83}, testNames(t))
	if err != nil {
		t.Fatal(err)
	}
	db := encodeFresh(t, keys, testXML)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go db.Serve(l, keys.Params())
	defer l.Close()
	addr := l.Addr().String()

	a, err := Dial(keys, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// stale dials before any mutation: its epoch pin predates them all.
	stale, err := Dial(keys, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()

	if _, err := a.Insert(3, "item"); err != nil {
		t.Fatalf("remote insert: %v", err)
	}
	res, err := a.Query("//item")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pres) != 2 {
		t.Fatalf("writer sees //item = %v, want 2 nodes", res.Pres)
	}

	// A second writer session, interleaved with the first: each write
	// plans against the other's last one.
	b, err := Dial(keys, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Update(6, "city"); err != nil {
		t.Fatalf("second writer: %v", err)
	}
	if _, err := a.Insert(1, "regions"); err != nil {
		t.Fatalf("first writer after interleave: %v", err)
	}
	if err := b.Delete(9); err != nil {
		t.Fatalf("second writer after interleave: %v", err)
	}

	// The stale session was pinned three epochs ago; the server must
	// fence its reads and the session must re-pin and answer from the
	// current state.
	res, err = stale.Query("//city")
	if err != nil {
		t.Fatalf("stale-pinned session: %v", err)
	}
	if len(res.Pres) != 2 {
		t.Fatalf("stale-pinned session sees //city = %v, want 2 nodes", res.Pres)
	}

	// End state matches the oracle encode of the equivalent document.
	assertSameTable(t, "remote end state", db, encodeFresh(t, keys,
		`<site><regions><europe><item><name>lamp</name></item><city/></europe></regions><people><person><address><city>Enschede</city></address></person></people><regions/></site>`))
}

// consumeSeqMutable applies batches normally but fails the reply for
// the first `failures` successful applies — modeling a server whose
// apply or compact hook errors (or whose reply is lost) AFTER the
// sequence is consumed. Mutate is the cluster's client-sequenced path,
// MutateLeased the single-server one.
type consumeSeqMutable struct {
	*filter.Mutable
	failures int
}

func (m *consumeSeqMutable) Mutate(b filter.MutationBatch) (filter.MutateReply, error) {
	return m.failReply(m.Mutable.Mutate(b))
}

func (m *consumeSeqMutable) MutateLeased(lb filter.LeasedBatch) (filter.MutateReply, error) {
	return m.failReply(m.Mutable.MutateLeased(lb))
}

func (m *consumeSeqMutable) failReply(reply filter.MutateReply, err error) (filter.MutateReply, error) {
	if err == nil && m.failures > 0 {
		m.failures--
		return reply, errors.New("chaos: compact hook failed after apply")
	}
	return reply, err
}

// TestWriterRecoversAfterConsumedSeq pins the false-idempotent-ack fix:
// when a batch's sequence is consumed server-side but the writer gets
// an error back, the next batch must not reuse that sequence — the
// server would acknowledge it without applying it, a silently lost
// update. A single server assigns leased batches their sequence, so it
// holds by construction there. A cluster session assigns sequences
// itself and must count the consumed one; its second shard turns the
// failure into a PartialMutationError, so the session cannot paper
// over a reused sequence by re-planning.
func TestWriterRecoversAfterConsumedSeq(t *testing.T) {
	keys, err := GenerateKeys(Params{P: 83}, testNames(t))
	if err != nil {
		t.Fatal(err)
	}
	// recovers inserts a //regions twice: the first insert is applied
	// but reports an error, the second must apply exactly once.
	recovers := func(t *testing.T, s *Session) {
		if _, err := s.Insert(1, "regions"); err == nil {
			t.Fatal("insert against the failing server reported success")
		}
		res, err := s.Query("//regions")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Pres) != 2 {
			t.Fatalf("//regions = %v after failed-reply insert, want 2 nodes (batch was applied)", res.Pres)
		}
		if _, err := s.Insert(1, "regions"); err != nil {
			t.Fatalf("insert after consumed sequence: %v", err)
		}
		if res, err = s.Query("//regions"); err != nil {
			t.Fatal(err)
		}
		if len(res.Pres) != 3 {
			t.Fatalf("//regions = %v after recovery insert, want 3 nodes", res.Pres)
		}
	}

	t.Run("single-server", func(t *testing.T) {
		db := encodeFresh(t, keys, testXML)
		mut := filter.NewMutable(filter.NewServerFilter(db.st, keys.ring, 1024), 0, nil, nil)
		srv := rmi.NewServer()
		filter.RegisterServer(srv, &consumeSeqMutable{Mutable: mut, failures: 1})
		recovers(t, pipeSession(t, keys, srv))
	})
	t.Run("cluster", func(t *testing.T) {
		// Inserting a last child of the root patches the root on shard 0
		// and puts the new row on shard 1; shard 0 fails the reply.
		s := localClusterSession(t, keys, encodeFresh(t, keys, testXML), func(i int, m *filter.Mutable) cluster.Conn {
			if i == 0 {
				return &consumeSeqMutable{Mutable: m, failures: 1}
			}
			return m
		})
		recovers(t, s)
	})
}

// TestMutateCluster runs the write path against a live 2-shard TCP
// cluster: ops are routed to the owning shard, renumbering re-tiles the
// shard ranges, and both the writing session and a session dialed
// afterwards agree with a local session that applied the same edits.
func TestMutateCluster(t *testing.T) {
	keys, err := GenerateKeys(Params{P: 83}, testNames(t))
	if err != nil {
		t.Fatal(err)
	}
	db := encodeFresh(t, keys, testXML)
	plan, err := db.ShardPlan(2)
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for _, r := range plan {
		var dump bytes.Buffer
		if err := db.DumpShard(&dump, r); err != nil {
			t.Fatal(err)
		}
		shardDB, err := CreateDatabase(store.FreshDSN())
		if err != nil {
			t.Fatal(err)
		}
		defer shardDB.Close()
		if err := shardDB.LoadFrom(&dump); err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go shardDB.Serve(l, keys.Params())
		addrs = append(addrs, l.Addr().String())
	}

	session, err := DialCluster(keys, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()

	// The same edits applied to the unsharded copy are the oracle.
	local := OpenLocal(keys, db)
	defer local.Close()
	if _, err := session.Insert(3, "item"); err != nil {
		t.Fatalf("cluster insert: %v", err)
	}
	if _, err := local.Insert(3, "item"); err != nil {
		t.Fatal(err)
	}
	// The insert puts its row at pre 6, shard 1's first pre, so shard 1
	// takes it (cluster.putOwner) and grows by one. Then the update's
	// chain holds europe (3) and the delete's holds the root, and each
	// has children on both shards: both plans read bundles merged from
	// NodePolysPartial fragments.
	if plan[1].Lo != 6 {
		t.Fatalf("shard plan %v: the insert no longer lands at shard 1's first pre", plan)
	}
	ranges := []ShardRange{plan[0], {Lo: plan[1].Lo, Hi: plan[1].Hi + 1}}
	for _, anc := range []int64{3, 1} {
		kids, err := local.cli.Children(anc)
		if err != nil {
			t.Fatal(err)
		}
		var onShard [2]bool
		for _, k := range kids {
			for si, r := range ranges {
				onShard[si] = onShard[si] || (r.Lo <= k.Pre && k.Pre <= r.Hi)
			}
		}
		if !onShard[0] || !onShard[1] {
			t.Fatalf("children %v of %d do not span both shards %v", kids, anc, ranges)
		}
	}
	if err := session.Update(6, "city"); err != nil {
		t.Fatalf("cluster update: %v", err)
	}
	if err := local.Update(6, "city"); err != nil {
		t.Fatal(err)
	}
	if err := session.Delete(9); err != nil {
		t.Fatalf("cluster delete: %v", err)
	}
	if err := local.Delete(9); err != nil {
		t.Fatal(err)
	}

	fresh, err := DialCluster(keys, addrs)
	if err != nil {
		t.Fatalf("re-dial after mutations (ranges must still tile): %v", err)
	}
	defer fresh.Close()
	for _, q := range []string{"//item", "//city", "//name", "/site/regions/europe/*", "/site//person"} {
		want, err := local.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		for who, cs := range map[string]*Session{"writer": session, "fresh": fresh} {
			got, err := cs.Query(q)
			if err != nil {
				t.Fatalf("%s session %s: %v", who, q, err)
			}
			if len(got.Pres) != len(want.Pres) {
				t.Fatalf("%s session %s = %v, local %v", who, q, got.Pres, want.Pres)
			}
			for i := range want.Pres {
				if got.Pres[i] != want.Pres[i] {
					t.Fatalf("%s session %s = %v, local %v", who, q, got.Pres, want.Pres)
				}
			}
		}
	}
}

// failOnceConn drops the first `fails` mutation deliveries to an
// in-process shard at the "transport": the coordinator gets a
// TransportError and cannot know whether the batch landed. The batch
// in fact never reached the server, which is the harder half of the
// unknown-delivery outcome (redelivery must really apply, not just be
// acked idempotently).
type failOnceConn struct {
	*filter.Mutable
	fails int
}

func (c *failOnceConn) Mutate(b filter.MutationBatch) (filter.MutateReply, error) {
	if c.fails > 0 {
		c.fails--
		return filter.MutateReply{}, &rmi.TransportError{Method: "Filter.Mutate", Err: errors.New("chaos: connection dropped mid-delivery")}
	}
	return c.Mutable.Mutate(b)
}

// TestPartialCommitParksAndRepairs pins the torn multi-shard commit
// contract: when a cross-shard mutation commits on one shard and the
// other shard's delivery is unknown, the session surfaces a
// PartialMutationError, refuses further writes (ErrPendingMutation)
// while the numbering is torn, and one SyncReplicas flushes the parked
// batch — after which the document matches a local oracle that applied
// the same edit once.
func TestPartialCommitParksAndRepairs(t *testing.T) {
	keys, err := GenerateKeys(Params{P: 83}, testNames(t))
	if err != nil {
		t.Fatal(err)
	}
	db := encodeFresh(t, keys, testXML)
	s := localClusterSession(t, keys, db, func(i int, m *filter.Mutable) cluster.Conn {
		if i == 1 {
			return &failOnceConn{Mutable: m, fails: 1}
		}
		return m
	})
	f := s.shardF

	// Insert under pre 3: renumbering patches land on shard 0, the new
	// row and the tail shifts on shard 1 — whose delivery fails. Shard 0
	// commits its slice, so the outcome is a partial commit naming the
	// torn shard.
	_, err = s.Insert(3, "item")
	var pe *cluster.PartialMutationError
	if !errors.As(err, &pe) {
		t.Fatalf("insert with one shard unreachable = %v, want PartialMutationError", err)
	}
	if len(pe.Applied) != 1 || pe.Applied[0] != 0 || len(pe.Failed) != 1 || pe.Failed[0] != 1 {
		t.Fatalf("partial commit applied=%v failed=%v, want applied=[0] failed=[1]", pe.Applied, pe.Failed)
	}

	// The numbering is torn across shards; further writes must be
	// refused until the parked batch is flushed.
	if _, err := s.Insert(1, "regions"); !errors.Is(err, cluster.ErrPendingMutation) {
		t.Fatalf("write against torn numbering = %v, want ErrPendingMutation", err)
	}

	// One sync flushes the parked batch (the transport healed: fails is
	// spent) and re-tiles the ranges.
	if pending, err := f.SyncReplicas(); err != nil || pending != 0 {
		t.Fatalf("SyncReplicas after partial commit = (%d, %v), want (0, nil)", pending, err)
	}

	// The logical insert happened exactly once; subsequent writes work.
	local := OpenLocal(keys, db)
	defer local.Close()
	if _, err := local.Insert(3, "item"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(1, "regions"); err != nil {
		t.Fatalf("insert after repair: %v", err)
	}
	if _, err := local.Insert(1, "regions"); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"//item", "//regions", "//name", "/site/regions/europe/*"} {
		want, err := local.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Query(q)
		if err != nil {
			t.Fatalf("query %s after repair: %v", q, err)
		}
		if len(got.Pres) != len(want.Pres) {
			t.Fatalf("%s = %v after repair, local %v", q, got.Pres, want.Pres)
		}
		for i := range want.Pres {
			if got.Pres[i] != want.Pres[i] {
				t.Fatalf("%s = %v after repair, local %v", q, got.Pres, want.Pres)
			}
		}
	}
}

// localClusterSession splits db into two in-process shards and opens a
// cluster session over them; conn builds shard i's connection around
// its Mutable.
func localClusterSession(t *testing.T, keys *Keys, db *Database, conn func(i int, m *filter.Mutable) cluster.Conn) *Session {
	t.Helper()
	plan, err := db.ShardPlan(2)
	if err != nil {
		t.Fatal(err)
	}
	var shards []cluster.Shard
	for i, r := range plan {
		var dump bytes.Buffer
		if err := db.DumpShard(&dump, r); err != nil {
			t.Fatal(err)
		}
		sdb, err := CreateDatabase(store.FreshDSN())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sdb.Close() })
		if err := sdb.LoadFrom(&dump); err != nil {
			t.Fatal(err)
		}
		mut := filter.NewMutable(filter.NewServerFilter(sdb.st, keys.ring, 1024), 0, nil, nil)
		shards = append(shards, cluster.Shard{
			Addr:  fmt.Sprintf("shard%d", i),
			Range: r,
			Conn:  conn(i, mut),
		})
	}
	f, err := cluster.NewWith(shards, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := newSession(keys, f, f)
	s.shardF = f
	t.Cleanup(func() { s.Close() })
	return s
}
