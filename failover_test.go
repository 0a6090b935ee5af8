package encshare

import (
	"bytes"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"

	"encshare/internal/store"
	"encshare/internal/xmldoc"
)

// killableListener tracks accepted connections so a test can kill a
// replica server the way a crashed process dies: no more accepts AND
// every established connection severed.
type killableListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *killableListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *killableListener) Kill() {
	l.Listener.Close()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
}

// TestEndToEndFailover exercises replica failover through the public
// API: a 3-shard × 2-replica TCP deployment, dialed as a flat address
// list, keeps answering queries identically after one replica of every
// shard is killed mid-session, with Session.Failovers counting the
// rerouted frames and no client-visible errors.
func TestEndToEndFailover(t *testing.T) {
	xml := randomDocXML(rand.New(rand.NewSource(33)), 500)
	doc, _ := xmldoc.ParseString(xml)
	keys, err := GenerateKeys(Params{P: 83}, doc.Names())
	if err != nil {
		t.Fatal(err)
	}
	db, err := CreateDatabase(store.FreshDSN())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.EncodeXML(keys, strings.NewReader(xml)); err != nil {
		t.Fatal(err)
	}

	plan, err := db.ShardPlan(3)
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	var primaries []*killableListener
	for _, r := range plan {
		var dump bytes.Buffer
		if err := db.DumpShard(&dump, r); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2; j++ {
			shardDB, err := CreateDatabase(store.FreshDSN())
			if err != nil {
				t.Fatal(err)
			}
			defer shardDB.Close()
			if err := shardDB.LoadFrom(bytes.NewReader(dump.Bytes())); err != nil {
				t.Fatal(err)
			}
			raw, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			l := &killableListener{Listener: raw}
			defer l.Kill()
			if j == 0 {
				primaries = append(primaries, l)
			}
			go shardDB.Serve(l, keys.Params())
			addrs = append(addrs, l.Addr().String())
		}
	}

	session, err := DialCluster(keys, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()
	if session.Shards() != 3 {
		t.Fatalf("Shards() = %d, want 3 (6 servers grouped into replica sets)", session.Shards())
	}
	for si, n := range session.Replicas() {
		if n != 2 {
			t.Fatalf("shard %d has %d replicas, want 2", si, n)
		}
	}

	local := OpenLocal(keys, db)
	queries := []string{"/site", "//item", "//person//city", "//bidder/date"}
	for _, qs := range queries {
		want, err := local.Query(qs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := session.Query(qs)
		if err != nil {
			t.Fatalf("healthy cluster %s: %v", qs, err)
		}
		if len(got.Pres) != len(want.Pres) {
			t.Fatalf("healthy %s: cluster %v != local %v", qs, got.Pres, want.Pres)
		}
	}
	if session.Failovers() != 0 {
		t.Fatalf("healthy run recorded %d failovers", session.Failovers())
	}

	// Kill replica 0 of every shard and repeat: identical answers, no
	// errors, a positive failover count.
	for _, l := range primaries {
		l.Kill()
	}
	for _, opt := range []QueryOptions{{}, {Engine: Simple}, {Batch: PerCall}, {Test: TestContainment}} {
		for _, qs := range queries {
			want, err := local.QueryWith(qs, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := session.QueryWith(qs, opt)
			if err != nil {
				t.Fatalf("degraded cluster %s %+v: client-visible error: %v", qs, opt, err)
			}
			if len(got.Pres) != len(want.Pres) {
				t.Fatalf("degraded %s %+v: cluster %v != local %v", qs, opt, got.Pres, want.Pres)
			}
			for i := range want.Pres {
				if got.Pres[i] != want.Pres[i] {
					t.Fatalf("degraded %s %+v: cluster %v != local %v", qs, opt, got.Pres, want.Pres)
				}
			}
			if got.Stats.Evaluations != want.Stats.Evaluations ||
				got.Stats.Reconstructions != want.Stats.Reconstructions {
				t.Fatalf("degraded %s %+v: cluster work %+v != local %+v", qs, opt, got.Stats, want.Stats)
			}
			if err := strictIdentity(local, keys, qs, opt, got.Stats); err != nil {
				t.Fatalf("degraded cluster: %v", err)
			}
		}
	}
	if session.Failovers() == 0 {
		t.Fatal("killed one replica per shard but Session.Failovers() = 0")
	}
}
