package encshare

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"encshare/internal/cluster"
	"encshare/internal/filter"
	"encshare/internal/rmi"
	"encshare/internal/server"
)

// appendItemsXML is testXML with n extra <item/> elements appended as
// last children of the root — the oracle document for concurrent
// append-at-root writers, whose end state is interleave-independent.
func appendItemsXML(n int) string {
	return strings.TrimSuffix(testXML, "</site>") + strings.Repeat("<item/>", n) + "</site>"
}

// TestConcurrentWritersLease runs two writer sessions against one
// WAL-backed TCP server at the same time. Under the writer lease the
// server assigns every batch's sequence, so the sessions interleave
// without ever colliding on one — and the end state must be
// byte-identical to the gold oracle encode.
func TestConcurrentWritersLease(t *testing.T) {
	keys, err := GenerateKeys(Params{P: 83}, testNames(t))
	if err != nil {
		t.Fatal(err)
	}
	db := encodeFresh(t, keys, testXML)

	rt := server.New(server.Config{})
	if err := rt.AttachStore(server.Tenant{P: 83, WALDir: t.TempDir()}, db.st); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go rt.Serve(l)

	const perWriter = 6
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := 0; w < 2; w++ {
		s, err := Dial(keys, l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		wg.Add(1)
		go func(w int, s *Session) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := s.Insert(1, "item"); err != nil {
					errs[w] = fmt.Errorf("writer %d insert %d: %w", w, i, err)
					return
				}
			}
		}(w, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Both writers took the lease, and the server sequenced every batch
	// exactly once.
	dw := rt.WALStats()[""]
	if dw.LeaseAcquires == 0 {
		t.Fatal("no lease acquisitions: writers fell back to optimistic sequencing")
	}
	if dw.Appends != 2*perWriter {
		t.Fatalf("journaled %d batches, want %d", dw.Appends, 2*perWriter)
	}

	assertSameTable(t, "two leased writers", db, encodeFresh(t, keys, appendItemsXML(2*perWriter)))
}

// pipeSession opens a single-server session over an in-memory pipe to
// srv. Unlike Dial it takes no epoch pin at open.
func pipeSession(t *testing.T, keys *Keys, srv *rmi.Server) *Session {
	cConn, sConn := net.Pipe()
	go srv.ServeConn(sConn)
	cli := rmi.NewClient(cConn)
	rem := filter.NewRemote(cli)
	s := newSession(keys, rem, cli)
	s.rmiCli, s.remote, s.writer = cli, rem, rem
	t.Cleanup(func() { s.Close() })
	return s
}

// TestHeldLeaseFailsWrite: a single-server or local session never
// writes without the writer lease. While another owner holds it past
// the session's wait deadline (the lease clock is frozen, so it never
// expires), Insert fails with the server's lease-held error, and no
// batch reaches the server.
func TestHeldLeaseFailsWrite(t *testing.T) {
	keys, err := GenerateKeys(Params{P: 83}, testNames(t))
	if err != nil {
		t.Fatal(err)
	}
	hold := func(t *testing.T, mut *filter.Mutable) {
		mut.SetLeaseClock(func() int64 { return 0 })
		if _, err := mut.AcquireLease(filter.LeaseRequest{Owner: "other", TTLMillis: 1000}); err != nil {
			t.Fatal(err)
		}
	}
	insertRefused := func(t *testing.T, s *Session, mut *filter.Mutable) error {
		s.leaseTTL = 20 * time.Millisecond
		_, err := s.Insert(1, "item")
		if !filter.IsLeaseHeld(err) {
			t.Fatalf("insert under another writer's lease = %v, want a lease-held error", err)
		}
		if got := mut.LastSeq(); got != 0 {
			t.Fatalf("server sequence moved to %d under another writer's lease", got)
		}
		return err
	}

	t.Run("remote", func(t *testing.T) {
		db := encodeFresh(t, keys, testXML)
		mut := filter.NewMutable(filter.NewServerFilter(db.st, keys.ring, 1024), 0, nil, nil)
		hold(t, mut)
		srv := rmi.NewServer()
		filter.RegisterServer(srv, mut)
		s := pipeSession(t, keys, srv)
		insertRefused(t, s, mut)
		calls := s.remote.CallCounts()
		if calls["filter.Mutate"] != 0 || calls["filter.MutateLeased"] != 0 {
			t.Fatalf("mutation frames sent under another writer's lease: %v", calls)
		}
	})
	t.Run("local", func(t *testing.T) {
		s := OpenLocal(keys, encodeFresh(t, keys, testXML))
		defer s.Close()
		mut := s.writer.(*filter.Mutable)
		hold(t, mut)
		var held *filter.LeaseHeldError
		if err := insertRefused(t, s, mut); !errors.As(err, &held) || held.Holder != "other" {
			t.Fatalf("local insert error = %v, want *filter.LeaseHeldError naming the holder", err)
		}
	})
}

// TestLeaseExpiryMidBatch is the lease chaos drill: writer A's lease
// expires between planning and applying (a second writer takes the
// lease and commits meanwhile). A's apply must be fenced with a typed
// LeaseExpiredError — never applied — and the session must re-acquire,
// re-plan against the other writer's state, and land the edit, with the
// end state matching the gold oracle.
func TestLeaseExpiryMidBatch(t *testing.T) {
	keys, err := GenerateKeys(Params{P: 83}, testNames(t))
	if err != nil {
		t.Fatal(err)
	}
	db := encodeFresh(t, keys, testXML)
	mut := filter.NewMutable(filter.NewServerFilter(db.st, keys.ring, 1024), 0, nil, nil)
	var clock atomic.Int64
	mut.SetLeaseClock(clock.Load)
	srv := rmi.NewServer()
	filter.RegisterServer(srv, mut)

	a, b := pipeSession(t, keys, srv), pipeSession(t, keys, srv)
	a.leaseTTL = 500 * time.Millisecond

	// Between A's plan and its apply: A's lease TTL lapses and B takes
	// the lease and commits an insert. The takeover bumps the fencing
	// ID, so A's staged batch must be refused.
	fired := false
	a.testHookAfterPlan = func() {
		if fired {
			return
		}
		fired = true
		clock.Add(int64(time.Second))
		if _, err := b.Insert(1, "item"); err != nil {
			t.Errorf("intruding writer: %v", err)
		}
	}
	if _, err := a.Insert(1, "item"); err != nil {
		t.Fatalf("writer A after lease expiry: %v", err)
	}
	if !fired {
		t.Fatal("chaos hook never ran")
	}
	st := mut.LeaseStatsNow()
	if st.Expirations == 0 {
		t.Fatal("lease takeover did not count an expiration")
	}
	if got := mut.LastSeq(); got != 2 {
		t.Fatalf("server applied %d batches, want 2 (fenced batch must not count)", got)
	}

	assertSameTable(t, "lease expiry mid-batch", db, encodeFresh(t, keys, appendItemsXML(2)))
}

// TestClusterWritersLease runs two concurrent writer sessions against a
// 2-shard TCP cluster. The cluster lease (held on shard 0's designated
// replica) makes the writers take turns planning, so cross-shard
// batches interleave cleanly; the per-shard sequence and digest checks
// stay on as the backstop. End state must match the gold oracle.
func TestClusterWritersLease(t *testing.T) {
	keys, err := GenerateKeys(Params{P: 83}, testNames(t))
	if err != nil {
		t.Fatal(err)
	}
	db := encodeFresh(t, keys, testXML)
	total, err := db.NodeCount()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := cluster.PartitionEven(1, total, 2)
	if err != nil {
		t.Fatal(err)
	}
	stores, cleanup, err := cluster.SplitStore(db.st, plan)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cleanup)

	var addrs []string
	var rts []*server.Runtime
	for _, st := range stores {
		rt := server.New(server.Config{})
		if err := rt.AttachStore(server.Tenant{P: 83}, st); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Shutdown)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go rt.Serve(l)
		addrs = append(addrs, l.Addr().String())
		rts = append(rts, rt)
	}

	const perWriter = 4
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := 0; w < 2; w++ {
		s, err := DialCluster(keys, addrs)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		wg.Add(1)
		go func(w int, s *Session) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := s.Insert(1, "item"); err != nil {
					errs[w] = fmt.Errorf("writer %d insert %d: %w", w, i, err)
					return
				}
			}
		}(w, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// The lease lives on exactly one of the runtimes (the lowest
	// address of shard 0); the writers must have used it.
	var acquires uint64
	for _, rt := range rts {
		acquires += rt.WALStats()[""].LeaseAcquires
	}
	if acquires == 0 {
		t.Fatal("no lease acquisitions on any replica: cluster writers ran unleased")
	}

	// Verify through a fresh session + the gold oracle: every row of
	// the re-tiled shards agrees with a fresh encode.
	verify, err := DialCluster(keys, addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { verify.Close() })
	oracle := OpenLocal(keys, encodeFresh(t, keys, appendItemsXML(2*perWriter)))
	t.Cleanup(func() { oracle.Close() })
	for _, q := range []string{"//item", "//city", "/site/*"} {
		want, err := oracle.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := verify.Query(q)
		if err != nil {
			t.Fatalf("cluster %s: %v", q, err)
		}
		if len(got.Pres) != len(want.Pres) {
			t.Fatalf("%s: cluster %v, oracle %v", q, got.Pres, want.Pres)
		}
		for i := range want.Pres {
			if got.Pres[i] != want.Pres[i] {
				t.Fatalf("%s: cluster %v, oracle %v", q, got.Pres, want.Pres)
			}
		}
	}
}
