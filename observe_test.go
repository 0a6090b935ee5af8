package encshare

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"encshare/internal/obs"
	"encshare/internal/server"
	"encshare/internal/store"
	"encshare/internal/xmldoc"
)

// tracedCluster builds a shards×replicas TCP deployment of one
// database and returns a dialed session plus the source database for
// answer checking. Cleanup runs via t.Cleanup.
func tracedCluster(t *testing.T, shards, replicas int) (*Session, *Session) {
	t.Helper()
	xml := randomDocXML(rand.New(rand.NewSource(77)), 400)
	doc, _ := xmldoc.ParseString(xml)
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
	plan, err := db.ShardPlan(shards)
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for _, r := range plan {
		var dump bytes.Buffer
		if err := db.DumpShard(&dump, r); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < replicas; j++ {
			shardDB, err := CreateDatabase(store.FreshDSN())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { shardDB.Close() })
			if err := shardDB.LoadFrom(bytes.NewReader(dump.Bytes())); err != nil {
				t.Fatal(err)
			}
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { l.Close() })
			go shardDB.Serve(l, keys.Params())
			addrs = append(addrs, l.Addr().String())
		}
	}
	session, err := DialCluster(keys, addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { session.Close() })
	return session, OpenLocal(keys, db)
}

// TestTraceFrameInvariant pins the tracing contract on a 3×2 replicated
// TCP cluster: every traced query's span tree records exactly one frame
// span per server exchange of its capture window — total and per shard —
// for both engines, both batching modes, and aggregates.
func TestTraceFrameInvariant(t *testing.T) {
	session, local := tracedCluster(t, 3, 2)
	session.SetTracing(true)

	queries := []string{"/site", "//item", "//person//city", "//bidder/date"}
	for _, opt := range []QueryOptions{{}, {Engine: Simple}, {Batch: PerCall}} {
		for _, qs := range queries {
			want, err := local.QueryWith(qs, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := session.QueryWith(qs, opt)
			if err != nil {
				t.Fatalf("%s %+v: %v", qs, opt, err)
			}
			if len(got.Pres) != len(want.Pres) {
				t.Fatalf("%s %+v: traced cluster answered %v, local %v", qs, opt, got.Pres, want.Pres)
			}
			tr := session.Trace()
			if tr == nil {
				t.Fatalf("%s %+v: tracing on but Trace() == nil", qs, opt)
			}
			checkTraceInvariant(t, tr, session.Shards(), fmt.Sprintf("%s %+v", qs, opt))
		}
	}

	// Aggregates trace through the same window.
	if _, err := session.Aggregate("//item", AggSum); err != nil {
		t.Fatal(err)
	}
	tr := session.Trace()
	if tr == nil || !strings.HasPrefix(tr.Query, "aggregate(sum)") {
		t.Fatalf("aggregate trace = %+v", tr)
	}
	checkTraceInvariant(t, tr, session.Shards(), "aggregate(sum) //item")

	// The rendered report carries the tree.
	var buf bytes.Buffer
	if err := tr.Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"trace aggregate(sum) //item", "frame ", "server work:"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("rendered trace missing %q:\n%s", want, buf.String())
		}
	}

	// Turning tracing off stops recording without clearing the last trace.
	session.SetTracing(false)
	if _, err := session.Query("/site"); err != nil {
		t.Fatal(err)
	}
	if session.Trace() != tr {
		t.Fatal("query after SetTracing(false) replaced the last trace")
	}
}

func checkTraceInvariant(t *testing.T, tr *Trace, shards int, label string) {
	t.Helper()
	if tr.Frames() != tr.RoundTrips {
		t.Fatalf("%s: trace has %d frame spans but window saw %d round trips", label, tr.Frames(), tr.RoundTrips)
	}
	if len(tr.ShardRoundTrips) != shards {
		t.Fatalf("%s: ShardRoundTrips = %v, want %d entries", label, tr.ShardRoundTrips, shards)
	}
	perShard := map[int]int64{}
	tr.Root.ShardFrames(perShard)
	var sum int64
	for si, want := range tr.ShardRoundTrips {
		if perShard[si] != want {
			t.Fatalf("%s: shard %d has %d frame spans but %d round trips (%v vs %v)",
				label, si, perShard[si], want, perShard, tr.ShardRoundTrips)
		}
		sum += want
	}
	if sum != tr.RoundTrips {
		t.Fatalf("%s: per-shard round trips %v do not sum to %d", label, tr.ShardRoundTrips, tr.RoundTrips)
	}
}

// promLine matches one Prometheus text-format sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-+]?[0-9].*$`)

// TestMetricsExposition serves a runtime registry merged with a client
// cluster registry over the real HTTP mux and checks the scrape: valid
// Prometheus text, the promised metric families present (RMI totals,
// per-method latency histogram, per-tenant cache counters, breaker
// state), counters that actually moved, and a JSON twin.
func TestMetricsExposition(t *testing.T) {
	xml := randomDocXML(rand.New(rand.NewSource(78)), 300)
	doc, _ := xmldoc.ParseString(xml)
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

	plan, err := db.ShardPlan(2)
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	var firstReg *obs.Registry
	for i, r := range plan {
		var dump bytes.Buffer
		if err := db.DumpShard(&dump, r); err != nil {
			t.Fatal(err)
		}
		shardDB, err := CreateDatabase(store.FreshDSN())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { shardDB.Close() })
		if err := shardDB.LoadFrom(bytes.NewReader(dump.Bytes())); err != nil {
			t.Fatal(err)
		}
		rt := server.New(server.Config{Default: "auction"})
		// The first shard journals to a WAL so the scrape exercises the
		// durability and lease families with real (moving) values.
		tn := server.Tenant{Name: "auction", P: 83, CacheEntries: 4096}
		if i == 0 {
			tn.WALDir = t.TempDir()
		}
		if err := rt.AttachStore(tn, shardDB.st); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Shutdown)
		if i == 0 {
			firstReg = rt.Metrics()
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go rt.Serve(l)
		addrs = append(addrs, l.Addr().String())
	}

	session, err := DialCluster(keys, addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { session.Close() })
	clientReg := obs.NewRegistry()
	session.shardF.RegisterMetrics(clientReg)

	web := httptest.NewServer(obs.NewMux(firstReg, clientReg))
	t.Cleanup(web.Close)

	scrapeCalls := func() int64 {
		body := httpGet(t, web.URL+"/metrics")
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, "rmi_server_calls_total ") {
				n, err := strconv.ParseInt(strings.Fields(line)[1], 10, 64)
				if err != nil {
					t.Fatalf("unparseable counter line %q: %v", line, err)
				}
				return n
			}
		}
		t.Fatal("rmi_server_calls_total missing from scrape")
		return 0
	}

	if _, err := session.Query("//item"); err != nil {
		t.Fatal(err)
	}
	// One mutation: journals a batch on shard 0 (appends, an fsync, the
	// latency histogram) and takes the writer lease (acquire counters).
	doc2, _ := xmldoc.ParseString(xml)
	if _, err := session.Insert(1, doc2.Names()[0]); err != nil {
		t.Fatalf("insert for durability metrics: %v", err)
	}
	before := scrapeCalls()
	if before == 0 {
		t.Fatal("rmi_server_calls_total still 0 after a query")
	}
	if _, err := session.Query("//person//city"); err != nil {
		t.Fatal(err)
	}
	if after := scrapeCalls(); after <= before {
		t.Fatalf("rmi_server_calls_total did not move: %d -> %d", before, after)
	}

	body := httpGet(t, web.URL+"/metrics")
	for _, want := range []string{
		"# TYPE rmi_server_calls_total counter",
		"rmi_server_bytes_in_total ",
		"rmi_server_bytes_out_total ",
		"# TYPE rmi_server_call_seconds histogram",
		`rmi_server_call_seconds_bucket{method="filter.EvalBatch",le="+Inf"}`,
		"rmi_server_call_seconds_count{",
		`encshare_tenant_cache_hits_total{tenant="auction"}`,
		`encshare_tenant_cache_misses_total{tenant="auction"}`,
		`encshare_tenant_evals_total{tenant="auction"}`,
		"encshare_tenants ",
		"# TYPE cluster_breaker_open gauge",
		`cluster_breaker_open{addr=`,
		"cluster_failovers_total 0",
		"cluster_hedges_total 0",
		`cluster_replicas{shard="0"} 1`,
		"# TYPE encshare_wal_fsync_seconds histogram",
		`encshare_wal_fsync_seconds_bucket{le="+Inf"}`,
		"encshare_wal_fsync_seconds_count",
		`encshare_wal_appends_total{tenant="auction"}`,
		`encshare_wal_fsyncs_total{tenant="auction"}`,
		`encshare_wal_fsync_failures_total{tenant="auction"} 0`,
		`encshare_wal_sticky_trips_total{tenant="auction"} 0`,
		`encshare_wal_failed{tenant="auction"} 0`,
		`encshare_lease_acquires_total{tenant="auction"}`,
		`encshare_lease_expirations_total{tenant="auction"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	// The insert really moved the durability counters on shard 0.
	walLine := regexp.MustCompile(`encshare_wal_appends_total\{tenant="auction"\} ([0-9]+)`).FindStringSubmatch(body)
	if walLine == nil || walLine[1] == "0" {
		t.Errorf("encshare_wal_appends_total did not move after the insert (%v)", walLine)
	}
	leaseLine := regexp.MustCompile(`encshare_lease_acquires_total\{tenant="auction"\} ([0-9]+)`).FindStringSubmatch(body)
	if leaseLine == nil || leaseLine[1] == "0" {
		t.Errorf("encshare_lease_acquires_total did not move after the insert (%v)", leaseLine)
	}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("malformed Prometheus line %q", line)
		}
	}

	var samples []map[string]any
	if err := json.Unmarshal([]byte(httpGet(t, web.URL+"/metrics.json")), &samples); err != nil {
		t.Fatalf("metrics.json: %v", err)
	}
	if len(samples) == 0 {
		t.Fatal("metrics.json empty")
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: %d\n%s", url, resp.StatusCode, b)
	}
	return string(b)
}

// TestStatsConcurrentWithQueries hammers every stats surface — session
// counters, server stats exchanges, registry scrapes, trace reads —
// while two sessions query the same live cluster. Its job is to fail
// under -race if any counter does a torn read or unsynchronized write.
func TestStatsConcurrentWithQueries(t *testing.T) {
	session, _ := tracedCluster(t, 2, 1)
	session2, _ := tracedCluster(t, 2, 1)
	session.SetTracing(true)

	clientReg := obs.NewRegistry()
	session.shardF.RegisterMetrics(clientReg)

	stop := make(chan struct{})
	var qwg, hwg sync.WaitGroup
	for _, s := range []*Session{session, session2} {
		qwg.Add(1)
		go func(s *Session) {
			defer qwg.Done()
			queries := []string{"/site", "//item", "//bidder/date"}
			for i := 0; i < 12; i++ {
				if _, err := s.QueryWith(queries[i%len(queries)], QueryOptions{}); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}(s)
	}
	hwg.Add(1)
	go func() {
		defer hwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			session.RoundTrips()
			session.ShardRoundTrips()
			session.Failovers()
			session.Hedges()
			if _, err := session.ServerStats(); err != nil {
				t.Errorf("ServerStats: %v", err)
				return
			}
			if tr := session.Trace(); tr != nil {
				tr.Frames()
			}
			obs.WritePrometheus(io.Discard, clientReg)
		}
	}()
	// Stop the hammer once the query goroutines finish.
	qwg.Wait()
	close(stop)
	hwg.Wait()
}
