package cluster_test

import (
	"errors"
	"net"
	"strings"
	"testing"

	"encshare/internal/cluster"
	"encshare/internal/filter"
	"encshare/internal/rmi"
	"encshare/internal/server"
	"encshare/internal/store"
)

// shardedTCP serves each store over its own TCP listener and returns
// the addresses plus a per-server shutdown hook.
func shardedTCP(t *testing.T, fx *fixture, stores []*store.Store) (addrs []string, stop []func()) {
	t.Helper()
	for _, st := range stores {
		srv := rmi.NewServer()
		filter.RegisterServer(srv, filter.NewServerFilter(st, fx.r, 256))
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go srv.Serve(l)
		addrs = append(addrs, l.Addr().String())
		stop = append(stop, func() { l.Close(); srv.Shutdown() })
	}
	return addrs, stop
}

// TestAddReplicaLiveSession pins the live-topology seam: a session
// dialed against one replica per shard gains a second replica of shard
// 0 via AddReplica, the new replica serves traffic without a redial,
// and after the ORIGINAL shard-0 server dies the session still answers
// — only the added replica can be serving that shard then.
func TestAddReplicaLiveSession(t *testing.T) {
	fx := xmarkFixture(t, 0.02, 11)
	lo, hi, err := fx.st.MinMaxPre()
	if err != nil {
		t.Fatal(err)
	}
	ranges, err := cluster.PartitionEven(lo, hi, 2)
	if err != nil {
		t.Fatal(err)
	}
	stores, cleanup, err := cluster.SplitStore(fx.st, ranges)
	if err != nil {
		cleanup()
		t.Fatal(err)
	}
	t.Cleanup(cleanup)

	addrs, stop := shardedTCP(t, fx, stores)
	f, err := cluster.Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	before, err := f.Count()
	if err != nil {
		t.Fatal(err)
	}

	// A replica whose range matches no shard group is rejected.
	wholeAddrs, _ := shardedTCP(t, fx, []*store.Store{fx.st})
	if _, err := f.AddReplica(wholeAddrs[0]); err == nil || !strings.Contains(err.Error(), "matches no shard group") {
		t.Fatalf("mismatched range: got %v", err)
	}

	// Provision a second replica of shard 0 (same slice, new listener)
	// and join it live.
	newAddrs, _ := shardedTCP(t, fx, stores[:1])
	si, err := f.AddReplica(newAddrs[0])
	if err != nil {
		t.Fatal(err)
	}
	if si != 0 {
		t.Fatalf("joined shard %d, want 0", si)
	}
	if got := f.Replicas(); got[0] != 2 || got[1] != 1 {
		t.Fatalf("Replicas = %v, want [2 1]", got)
	}

	// Round-robin now spreads shard-0 frames over both replicas: after
	// a few queries the new connection must have carried traffic.
	for i := 0; i < 4; i++ {
		if n, err := f.Count(); err != nil || n != before {
			t.Fatalf("count after join: %d, %v", n, err)
		}
	}

	// Kill the original shard-0 server: the session keeps answering
	// through the added replica, without redial.
	stop[0]()
	var after int64
	for i := 0; i < 3; i++ { // retries may trip the breaker first
		after, err = f.Count()
		if err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("count after original replica died: %v", err)
	}
	if after != before {
		t.Fatalf("count changed after failover to added replica: %d != %d", after, before)
	}
}

// TestDialTenantAgainstPreTenantServer: naming a tenant at dial time
// against bare filter servers, which have no tenant table, fails loudly
// (even with TolerateUnreachable — the server is up, the config is
// wrong), instead of silently querying the default table.
func TestDialTenantAgainstPreTenantServer(t *testing.T) {
	fx := xmarkFixture(t, 0.02, 11)
	addrs, _ := shardedTCP(t, fx, []*store.Store{fx.st})
	for _, tolerate := range []bool{false, true} {
		_, err := cluster.DialWith(addrs, cluster.Options{Tenant: "alpha", TolerateUnreachable: tolerate})
		// The single-tenant layout answers unknown-tenant, which the
		// dial reports as a TenantError.
		var te *server.TenantError
		if !errors.As(err, &te) {
			t.Fatalf("tolerate=%v: got %v, want TenantError", tolerate, err)
		}
	}
	// Without a tenant the same servers dial fine.
	f, err := cluster.DialWith(addrs, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// TestDialTenantRuntime dials a multi-tenant runtime by tenant name
// and checks tenant routing end to end over TCP, including the
// unknown-tenant rejection.
func TestDialTenantRuntime(t *testing.T) {
	fx := xmarkFixture(t, 0.02, 11)
	rt := server.New(server.Config{})
	if err := rt.AttachStore(server.Tenant{Name: "auction", P: 251}, fx.st); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go rt.Serve(l)
	addr := l.Addr().String()

	f, err := cluster.DialWith([]string{addr}, cluster.Options{Tenant: "auction"})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want, _ := fx.st.Count()
	if n, err := f.Count(); err != nil || n != want {
		t.Fatalf("tenant-routed count = %d, %v; want %d", n, err, want)
	}

	if _, err := cluster.DialWith([]string{addr}, cluster.Options{Tenant: "nobody"}); err == nil {
		t.Fatal("dial with unknown tenant succeeded")
	}
}
