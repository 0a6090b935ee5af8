package encshare

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"encshare/internal/server"
	"encshare/internal/store"
	"encshare/internal/xmldoc"
)

// buildTenant encodes a fresh random document under its own keys and
// returns the pair — one tenant's world.
func buildTenant(t *testing.T, seed int64, nodes int) (*Keys, *Database) {
	t.Helper()
	xml := randomDocXML(rand.New(rand.NewSource(seed)), nodes)
	doc, err := xmldoc.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := GenerateKeys(Params{P: 83}, doc.Names())
	if err != nil {
		t.Fatal(err)
	}
	db, err := CreateDatabase(store.FreshDSN())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.EncodeXML(keys, strings.NewReader(xml)); err != nil {
		t.Fatal(err)
	}
	return keys, db
}

// TestEndToEndMultiTenant pins the acceptance criteria of the
// multi-tenant runtime: a single server process serves two tenants
// concurrently with isolated caches and stats, and a tenantless client
// — wire-identical to a pre-tenant binary — still queries the default
// tenant unmodified.
func TestEndToEndMultiTenant(t *testing.T) {
	aKeys, aDB := buildTenant(t, 101, 400)
	bKeys, bDB := buildTenant(t, 202, 300)

	rt := server.New(server.Config{Default: "auction"})
	if err := rt.AttachStore(server.Tenant{Name: "auction", P: 83}, aDB.st); err != nil {
		t.Fatal(err)
	}
	if err := rt.AttachStore(server.Tenant{Name: "books", P: 83}, bDB.st); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go rt.Serve(l)
	addr := l.Addr().String()

	aLocal, bLocal := OpenLocal(aKeys, aDB), OpenLocal(bKeys, bDB)
	queries := []string{"/site", "//item", "//person//city"}

	aSess, err := DialWith(aKeys, addr, DialOptions{Tenant: "auction"})
	if err != nil {
		t.Fatal(err)
	}
	defer aSess.Close()
	bSess, err := DialWith(bKeys, addr, DialOptions{Tenant: "books"})
	if err != nil {
		t.Fatal(err)
	}
	defer bSess.Close()
	if aSess.Tenant() != "auction" || bSess.Tenant() != "books" {
		t.Fatalf("session tenants %q/%q", aSess.Tenant(), bSess.Tenant())
	}

	// Concurrent load on both tenants through ONE process: every
	// answer must match the tenant's own local session.
	var wg sync.WaitGroup
	errc := make(chan error, 2*len(queries))
	run := func(sess, local *Session, label string) {
		defer wg.Done()
		for _, qs := range queries {
			want, err := local.Query(qs)
			if err != nil {
				errc <- err
				return
			}
			got, err := sess.Query(qs)
			if err != nil {
				errc <- fmt.Errorf("%s %s: %v", label, qs, err)
				return
			}
			if !reflect.DeepEqual(got.Pres, want.Pres) {
				errc <- fmt.Errorf("%s %s: got %v want %v", label, qs, got.Pres, want.Pres)
				return
			}
		}
	}
	wg.Add(2)
	go run(aSess, aLocal, "auction")
	go run(bSess, bLocal, "books")
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Per-tenant stats are isolated: each session's counters move only
	// with its own traffic, and evals sum to the runtime's totals.
	aStats, err := aSess.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	bStats, err := bSess.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if aStats.Evals == 0 || bStats.Evals == 0 {
		t.Fatalf("missing per-tenant eval counts: %+v %+v", aStats, bStats)
	}
	rtStats := rt.Stats()
	if rtStats["auction"] != aStats || rtStats["books"] != bStats {
		t.Fatalf("wire stats diverge from runtime stats: %+v vs %+v / %+v vs %+v",
			aStats, rtStats["auction"], bStats, rtStats["books"])
	}

	// A client that never names a tenant sends an empty tenant field:
	// it must land on the default tenant and see exactly the
	// single-tenant behavior.
	legacy, err := Dial(aKeys, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	before := rt.Stats()["books"]
	for _, qs := range queries {
		want, _ := aLocal.Query(qs)
		got, err := legacy.Query(qs)
		if err != nil {
			t.Fatalf("legacy client %s: %v", qs, err)
		}
		if !reflect.DeepEqual(got.Pres, want.Pres) {
			t.Fatalf("legacy client %s: got %v want %v", qs, got.Pres, want.Pres)
		}
	}
	if after := rt.Stats()["books"]; after != before {
		t.Fatalf("legacy (default-tenant) traffic moved another tenant's counters: %+v -> %+v", before, after)
	}

	// Dialing a tenant the server does not host fails loudly.
	if _, err := DialWith(aKeys, addr, DialOptions{Tenant: "nobody"}); err == nil {
		t.Fatal("dial with unknown tenant succeeded")
	}
}

// TestEndToEndLiveReplicaJoin pins the live-topology criterion: a
// replica added to a running cluster session via Session.AddReplica
// serves traffic without a redial — proven by killing the original
// replica of its shard and watching the session keep answering through
// the join.
func TestEndToEndLiveReplicaJoin(t *testing.T) {
	keys, db := buildTenant(t, 77, 500)
	plan, err := db.ShardPlan(2)
	if err != nil {
		t.Fatal(err)
	}

	dumps := make([]*bytes.Buffer, len(plan))
	var addrs []string
	var listeners []*killableListener
	serveShard := func(si int) *killableListener {
		shardDB, err := CreateDatabase(store.FreshDSN())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { shardDB.Close() })
		if err := shardDB.LoadFrom(bytes.NewReader(dumps[si].Bytes())); err != nil {
			t.Fatal(err)
		}
		raw, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		l := &killableListener{Listener: raw}
		t.Cleanup(l.Kill)
		go shardDB.Serve(l, keys.Params())
		return l
	}
	for si, r := range plan {
		dumps[si] = &bytes.Buffer{}
		if err := db.DumpShard(dumps[si], r); err != nil {
			t.Fatal(err)
		}
		l := serveShard(si)
		listeners = append(listeners, l)
		addrs = append(addrs, l.Addr().String())
	}

	session, err := DialCluster(keys, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()
	local := OpenLocal(keys, db)
	const q = "//item"
	want, err := local.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string) {
		t.Helper()
		got, err := session.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !reflect.DeepEqual(got.Pres, want.Pres) {
			t.Fatalf("%s: got %v want %v", label, got.Pres, want.Pres)
		}
	}
	check("before join")

	// AddReplica on a non-cluster session is a clear error.
	if _, err := local.AddReplica("127.0.0.1:1"); err == nil {
		t.Fatal("AddReplica on local session succeeded")
	}

	// Provision a new replica of shard 0 and join it to the LIVE
	// session — no redial.
	joined := serveShard(0)
	si, err := session.AddReplica(joined.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if si != 0 {
		t.Fatalf("joined shard %d, want 0", si)
	}
	if got := session.Replicas(); !reflect.DeepEqual(got, []int{2, 1}) {
		t.Fatalf("Replicas after join = %v, want [2 1]", got)
	}
	check("after join")

	// Kill the ORIGINAL shard-0 replica: only the joined one can
	// answer shard 0 now. The session must keep returning identical
	// results, with failovers counted and no redial.
	listeners[0].Kill()
	check("after original replica died")
	if session.Failovers() == 0 {
		t.Fatal("original replica killed but Failovers() = 0")
	}
}

// TestClientWorkerPoolParity pins the client-side worker pool: any
// GOMAXPROCS computes identical results and identical work counters —
// one worker degenerates to the sequential loop, N workers just spread
// the same per-node PRG stream passes over cores.
func TestClientWorkerPoolParity(t *testing.T) {
	keys, db := buildTenant(t, 55, 400)
	queries := []string{"/site", "//item", "//person//city", "//bidder/date"}
	type outcome struct {
		pres  [][]int64
		evals []int64
		recon []int64
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runAll := func(procs int, opts QueryOptions) outcome {
		runtime.GOMAXPROCS(procs)
		sess := OpenLocal(keys, db)
		var o outcome
		for _, qs := range queries {
			res, err := sess.QueryWith(qs, opts)
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d %s: %v", procs, qs, err)
			}
			o.pres = append(o.pres, res.Pres)
			o.evals = append(o.evals, res.Stats.Evaluations)
			o.recon = append(o.recon, res.Stats.Reconstructions)
		}
		return o
	}
	for _, opts := range []QueryOptions{{}, {Test: TestContainment}, {Engine: Simple}} {
		base := runAll(1, opts)
		for _, procs := range []int{2, 8} {
			got := runAll(procs, opts)
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("opts %+v: GOMAXPROCS=%d diverged from the single-worker run:\n%+v\n%+v",
					opts, procs, got, base)
			}
		}
	}
}
