package rmi

import (
	"net"
	"sync"
	"testing"
	"time"
)

// tenantServer registers an echo-style method under two tenants plus a
// global method, mirroring how the runtime lays out handler sets.
func tenantServer() *Server {
	srv := NewServer()
	HandleFuncAt(srv, "alpha", "t.Who", func([]byte) ([]byte, error) { return []byte("alpha"), nil })
	HandleFuncAt(srv, "beta", "t.Who", func([]byte) ([]byte, error) { return []byte("beta"), nil })
	HandleFunc(srv, "t.Global", func([]byte) ([]byte, error) { return []byte("global"), nil })
	return srv
}

func TestTenantDispatch(t *testing.T) {
	srv := tenantServer()
	for _, tenant := range []string{"alpha", "beta"} {
		cli := Pipe(srv)
		cli.SetTenant(tenant)
		var who []byte
		if err := cli.Call("t.Who", []byte(nil), &who); err != nil {
			t.Fatalf("Call(%s): %v", tenant, err)
		}
		if string(who) != tenant {
			t.Errorf("tenant %s answered by %s", tenant, who)
		}
		var g []byte
		if err := cli.Call("t.Global", []byte(nil), &g); err != nil || string(g) != "global" {
			t.Errorf("global method under tenant %s: %q, %v", tenant, g, err)
		}
		cli.Close()
	}
}

func TestUnknownTenant(t *testing.T) {
	srv := tenantServer()
	cli := Pipe(srv)
	defer cli.Close()
	cli.SetTenant("gamma")
	err := cli.Call("t.Who", []byte(nil), new([]byte))
	if !IsUnknownTenant(err, "gamma") {
		t.Fatalf("want unknown-tenant error, got %v", err)
	}
	// The global set still answers under an unknown tenant: protocol
	// negotiation must work before the tenant is validated.
	var g []byte
	if err := cli.Call("t.Global", []byte(nil), &g); err != nil || string(g) != "global" {
		t.Fatalf("global method under unknown tenant: %q, %v", g, err)
	}
}

func TestDefaultTenantMapping(t *testing.T) {
	srv := tenantServer()
	cli := Pipe(srv)
	defer cli.Close()
	// No default designated: a bare client finds only the global set.
	err := cli.Call("t.Who", []byte(nil), new([]byte))
	if !IsUnknownMethod(err, "t.Who") {
		t.Fatalf("want unknown-method before default set, got %v", err)
	}
	srv.SetDefaultTenant("beta")
	var who []byte
	if err := cli.Call("t.Who", []byte(nil), &who); err != nil || string(who) != "beta" {
		t.Fatalf("default-tenant call: %q, %v", who, err)
	}
	// A method the tenant does not expose stays unknown-method (the
	// tenant itself is known).
	err = cli.Call("t.Missing", []byte(nil), nil)
	if !IsUnknownMethod(err, "t.Missing") {
		t.Fatalf("want unknown-method, got %v", err)
	}
}

func TestDropTenant(t *testing.T) {
	srv := tenantServer()
	cli := Pipe(srv)
	defer cli.Close()
	cli.SetTenant("alpha")
	if err := cli.Call("t.Who", []byte(nil), new([]byte)); err != nil {
		t.Fatalf("before drop: %v", err)
	}
	if !srv.DropTenant("alpha") {
		t.Fatal("DropTenant(alpha) = false")
	}
	if srv.DropTenant("alpha") {
		t.Fatal("second DropTenant(alpha) = true")
	}
	err := cli.Call("t.Who", []byte(nil), new([]byte))
	if !IsUnknownTenant(err, "alpha") {
		t.Fatalf("after drop: want unknown-tenant, got %v", err)
	}
	if got := srv.Tenants(); len(got) != 1 || got[0] != "beta" {
		t.Fatalf("Tenants() = %v, want [beta]", got)
	}
}

// TestShutdownDrainsInFlightFrame pins graceful shutdown: a frame being
// handled when Shutdown is called still gets its reply, and Shutdown
// does not return before that reply is written.
func TestShutdownDrainsInFlightFrame(t *testing.T) {
	srv := NewServer()
	entered := make(chan struct{})
	release := make(chan struct{})
	HandleFunc(srv, "slow", func([]byte) ([]byte, error) {
		close(entered)
		<-release
		return []byte("done"), nil
	})
	cli := Pipe(srv)
	defer cli.Close()

	callErr := make(chan error, 1)
	var reply []byte
	go func() { callErr <- cli.Call("slow", []byte(nil), &reply) }()
	<-entered

	shutdownDone := make(chan struct{})
	go func() { srv.Shutdown(); close(shutdownDone) }()
	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned while a frame was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-callErr; err != nil {
		t.Fatalf("in-flight call failed across shutdown: %v", err)
	}
	if string(reply) != "done" {
		t.Fatalf("reply = %q", reply)
	}
	select {
	case <-shutdownDone:
	case <-time.After(2 * time.Second):
		t.Fatal("Shutdown did not return after the frame drained")
	}
	// The connection is closed now: the next call fails with a
	// transport error, not a hang.
	if err := cli.Call("slow", []byte(nil), nil); err == nil {
		t.Fatal("call after shutdown succeeded")
	}
}

// TestShutdownSurvivesStuckPeer: a peer that requested a reply and then
// stopped reading leaves its ServeConn goroutine blocked mid-write;
// Shutdown must cut that write at the drain deadline instead of
// hanging forever.
func TestShutdownSurvivesStuckPeer(t *testing.T) {
	old := drainTimeout
	drainTimeout = 100 * time.Millisecond
	defer func() { drainTimeout = old }()

	srv := NewServer()
	big := make([]byte, 1<<20)
	HandleFunc(srv, "big", func([]byte) ([]byte, error) { return big, nil })
	cConn, sConn := net.Pipe() // unbuffered: the reply write blocks until read
	go srv.ServeConn(sConn)
	defer cConn.Close()
	if err := writeFrame(cConn, appendRequest([]byte{0, 0, 0, 0}, 1, "big", "", TraceContext{}, 0)); err != nil {
		t.Fatal(err)
	}
	// Never read the reply; give the server a moment to block in the
	// write.
	time.Sleep(20 * time.Millisecond)

	done := make(chan struct{})
	go func() { srv.Shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown hung on a peer that stopped reading")
	}
}

// TestShutdownStopsNewConnections verifies a TCP server exits cleanly:
// Serve returns nil after the listener closes and Shutdown drains.
func TestShutdownStopsNewConnections(t *testing.T) {
	srv := NewServer()
	HandleFunc(srv, "ping", func([]byte) ([]byte, error) { return nil, nil })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	cli, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Call("ping", []byte(nil), nil); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); srv.Shutdown() }()
	l.Close()
	wg.Wait()
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("Serve returned %v after graceful shutdown", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return")
	}
	cli.Close()
}
