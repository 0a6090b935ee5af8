package server_test

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"encshare/internal/encoder"
	"encshare/internal/filter"
	"encshare/internal/gf"
	"encshare/internal/mapping"
	"encshare/internal/prg"
	"encshare/internal/ring"
	"encshare/internal/rmi"
	"encshare/internal/secshare"
	"encshare/internal/server"
	"encshare/internal/store"
	"encshare/internal/wal"
	"encshare/internal/xmldoc"
)

// tenantFixture is one encoded document with its own keys — one tenant
// of a multi-tenant runtime.
type tenantFixture struct {
	m      *mapping.Map
	scheme *secshare.Scheme
	st     *store.Store
	nodes  int64
}

func newTenantFixture(t testing.TB, xml, seed string) *tenantFixture {
	t.Helper()
	doc, err := xmldoc.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	f := gf.MustNew(83, 1)
	m, err := mapping.Generate(f, doc.Names())
	if err != nil {
		t.Fatal(err)
	}
	r := ring.MustNew(f)
	scheme := secshare.New(r, prg.New([]byte(seed)))
	dsn := store.FreshDSN()
	st, err := store.Open(dsn)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Init(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		st.Close()
		store.Drop(dsn)
	})
	if _, err := encoder.EncodeDoc(doc, encoder.Options{Map: m, Scheme: scheme}, st); err != nil {
		t.Fatal(err)
	}
	n, err := st.Count()
	if err != nil {
		t.Fatal(err)
	}
	return &tenantFixture{m: m, scheme: scheme, st: st, nodes: n}
}

const (
	alphaXML = `<site><regions><europe><item/><item/></europe></regions></site>`
	betaXML  = `<library><shelf><book/><book/><book/></shelf><shelf><book/></shelf></library>`
)

// client opens a filter client against rt for the named tenant ("" =
// legacy, no tenant header).
func runtimeClient(t testing.TB, rt *server.Runtime, tenant string, fx *tenantFixture) (*filter.Client, *rmi.Client) {
	t.Helper()
	cli := rmi.Pipe(rt.RMI())
	if tenant != "" {
		cli.SetTenant(tenant)
	}
	t.Cleanup(func() { cli.Close() })
	return filter.NewClient(filter.NewRemote(cli), fx.scheme), cli
}

// contains runs one containment check through the client filter — real
// shares, so a wrong tenant's table gives garbage sums, and a correct
// one gives the document truth.
func mustContain(t *testing.T, c *filter.Client, name string, m *mapping.Map, want bool) {
	t.Helper()
	root, err := c.Root()
	if err != nil {
		t.Fatal(err)
	}
	val, err := m.Value(name)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Contains(root.Pre, val)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("Contains(root, %s) = %v, want %v", name, got, want)
	}
}

func TestRuntimeServesTwoTenants(t *testing.T) {
	alpha := newTenantFixture(t, alphaXML, "seed-alpha")
	beta := newTenantFixture(t, betaXML, "seed-beta")
	rt := server.New(server.Config{})
	if err := rt.AttachStore(server.Tenant{Name: "alpha", P: 83}, alpha.st); err != nil {
		t.Fatal(err)
	}
	if err := rt.AttachStore(server.Tenant{Name: "beta", P: 83}, beta.st); err != nil {
		t.Fatal(err)
	}
	if got := rt.Tenants(); !reflect.DeepEqual(got, []string{"alpha", "beta"}) {
		t.Fatalf("Tenants = %v", got)
	}
	if rt.Default() != "alpha" {
		t.Fatalf("Default = %q, want first attached", rt.Default())
	}

	ac, _ := runtimeClient(t, rt, "alpha", alpha)
	bc, _ := runtimeClient(t, rt, "beta", beta)
	if n, err := ac.Count(); err != nil || n != alpha.nodes {
		t.Fatalf("alpha Count = %d, %v; want %d", n, err, alpha.nodes)
	}
	if n, err := bc.Count(); err != nil || n != beta.nodes {
		t.Fatalf("beta Count = %d, %v; want %d", n, err, beta.nodes)
	}
	mustContain(t, ac, "europe", alpha.m, true)
	mustContain(t, bc, "book", beta.m, true)

	// A legacy client (no tenant header) lands on the default tenant
	// and sees alpha's table, bit for bit.
	lc, _ := runtimeClient(t, rt, "", alpha)
	if n, err := lc.Count(); err != nil || n != alpha.nodes {
		t.Fatalf("legacy Count = %d, %v; want default tenant's %d", n, err, alpha.nodes)
	}
	mustContain(t, lc, "item", alpha.m, true)

	// An unknown tenant is rejected by name.
	uc, _ := runtimeClient(t, rt, "gamma", alpha)
	_, err := uc.Count()
	if !rmi.IsUnknownTenant(err, "gamma") {
		t.Fatalf("unknown tenant: got %v", err)
	}
}

// TestRuntimeStatsIsolated pins the satellite requirement: per-tenant
// hit/miss counters stay disjoint under interleaved multi-tenant load,
// and a tenantless client's stats are exactly the default tenant's.
func TestRuntimeStatsIsolated(t *testing.T) {
	alpha := newTenantFixture(t, alphaXML, "seed-alpha")
	beta := newTenantFixture(t, betaXML, "seed-beta")
	t.Run("segmented", func(t *testing.T) {
		rt := server.New(server.Config{})
		if err := rt.AttachStore(server.Tenant{Name: "alpha", P: 83}, alpha.st); err != nil {
			t.Fatal(err)
		}
		if err := rt.AttachStore(server.Tenant{Name: "beta", P: 83}, beta.st); err != nil {
			t.Fatal(err)
		}
		ac, _ := runtimeClient(t, rt, "alpha", alpha)
		bc, _ := runtimeClient(t, rt, "beta", beta)
		// Interleaved load: alpha evaluates twice per node (miss
		// then hit), beta once (all misses).
		mustContain(t, ac, "europe", alpha.m, true)
		mustContain(t, bc, "book", beta.m, true)
		mustContain(t, ac, "europe", alpha.m, true)

		stats := rt.Stats()
		as, bs := stats["alpha"], stats["beta"]
		if as.Evals != 2 || bs.Evals != 1 {
			t.Errorf("evals alpha=%d beta=%d, want 2/1", as.Evals, bs.Evals)
		}
		if as.CacheHits != 1 || as.CacheMisses != 1 {
			t.Errorf("alpha cache hits/misses = %d/%d, want 1/1", as.CacheHits, as.CacheMisses)
		}
		if bs.CacheHits != 0 || bs.CacheMisses != 1 {
			t.Errorf("beta cache hits/misses = %d/%d, want 0/1 (alpha's traffic leaked)", bs.CacheHits, bs.CacheMisses)
		}
		// The wire-level StatsAPI sees the same isolation.
		aws, err := ac.ServerStats()
		if err != nil {
			t.Fatal(err)
		}
		if aws != as {
			t.Errorf("wire stats %+v != runtime stats %+v", aws, as)
		}
		// A tenantless (pre-tenant) client reads the default
		// tenant's counters — its view is unchanged by the other
		// tenants' existence.
		lc, _ := runtimeClient(t, rt, "", alpha)
		lws, err := lc.ServerStats()
		if err != nil {
			t.Fatal(err)
		}
		if lws != as {
			t.Errorf("legacy client stats %+v, want default tenant's %+v", lws, as)
		}
	})
}

func TestRuntimeDetach(t *testing.T) {
	alpha := newTenantFixture(t, alphaXML, "seed-alpha")
	beta := newTenantFixture(t, betaXML, "seed-beta")
	rt := server.New(server.Config{})
	if err := rt.AttachStore(server.Tenant{Name: "alpha", P: 83}, alpha.st); err != nil {
		t.Fatal(err)
	}
	if err := rt.AttachStore(server.Tenant{Name: "beta", P: 83}, beta.st); err != nil {
		t.Fatal(err)
	}
	ac, _ := runtimeClient(t, rt, "alpha", alpha)
	if err := rt.Detach("alpha"); err != nil {
		t.Fatal(err)
	}
	if _, err := ac.Count(); !rmi.IsUnknownTenant(err, "alpha") {
		t.Fatalf("after detach: got %v", err)
	}
	if err := rt.Detach("alpha"); err == nil {
		t.Fatal("double detach succeeded")
	}
	if got := rt.Tenants(); !reflect.DeepEqual(got, []string{"beta"}) {
		t.Fatalf("Tenants after detach = %v", got)
	}
}

// dumpFixture writes a fixture's table to a db file, as encshare-encode
// would.
func dumpFixture(t *testing.T, fx *tenantFixture, dir, name string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.st.Dump(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRuntimeApply drives the SIGHUP reload path: attach from files,
// reconcile against a changed tenant table, and verify attach/detach
// and default reassignment.
func TestRuntimeApply(t *testing.T) {
	alpha := newTenantFixture(t, alphaXML, "seed-alpha")
	beta := newTenantFixture(t, betaXML, "seed-beta")
	dir := t.TempDir()
	alphaDB := dumpFixture(t, alpha, dir, "alpha.db")
	betaDB := dumpFixture(t, beta, dir, "beta.db")

	rt := server.New(server.Config{})
	defer rt.Shutdown()
	attached, detached, err := rt.Apply([]server.Tenant{
		{Name: "alpha", Path: alphaDB, P: 83},
		{Name: "beta", Path: betaDB, P: 83},
	}, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(attached, []string{"alpha", "beta"}) || len(detached) != 0 {
		t.Fatalf("first apply: attached %v detached %v", attached, detached)
	}
	ac, _ := runtimeClient(t, rt, "alpha", alpha)
	if n, err := ac.Count(); err != nil || n != alpha.nodes {
		t.Fatalf("alpha over file-attached store: %d, %v", n, err)
	}

	// Second apply: alpha gone, beta unchanged (must NOT be
	// re-attached), gamma new; default moves off the detached tenant.
	attached, detached, err = rt.Apply([]server.Tenant{
		{Name: "beta", Path: betaDB, P: 83},
		{Name: "gamma", Path: alphaDB, P: 83},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(attached, []string{"gamma"}) || !reflect.DeepEqual(detached, []string{"alpha"}) {
		t.Fatalf("second apply: attached %v detached %v", attached, detached)
	}
	if rt.Default() == "alpha" || rt.Default() == "" {
		t.Fatalf("default still %q after its tenant detached", rt.Default())
	}
	if _, err := ac.Count(); !rmi.IsUnknownTenant(err, "alpha") {
		t.Fatalf("alpha after reload: %v", err)
	}
	gc, _ := runtimeClient(t, rt, "gamma", alpha)
	if n, err := gc.Count(); err != nil || n != alpha.nodes {
		t.Fatalf("gamma (alpha's data re-attached): %d, %v", n, err)
	}

	// A config change on an attached tenant forces re-attach.
	attached, detached, err = rt.Apply([]server.Tenant{
		{Name: "beta", Path: betaDB, P: 83, CompactBytes: 1 << 20},
		{Name: "gamma", Path: alphaDB, P: 83},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(attached, []string{"beta"}) || !reflect.DeepEqual(detached, []string{"beta"}) {
		t.Fatalf("config-change apply: attached %v detached %v", attached, detached)
	}
}

// TestUnnamedTenantDetachReattach pins the v1-manifest reload path: the
// unnamed (legacy single-tenant) tenant must detach cleanly and
// re-attach without a duplicate-handler panic, with tenantless clients
// routed to it throughout — and the runtime's global methods surviving
// the detach.
func TestUnnamedTenantDetachReattach(t *testing.T) {
	alpha := newTenantFixture(t, alphaXML, "seed-alpha")
	beta := newTenantFixture(t, betaXML, "seed-beta")
	rt := server.New(server.Config{})
	if err := rt.AttachStore(server.Tenant{P: 83}, alpha.st); err != nil {
		t.Fatal(err)
	}
	lc, _ := runtimeClient(t, rt, "", alpha)
	if n, err := lc.Count(); err != nil || n != alpha.nodes {
		t.Fatalf("unnamed tenant: %d, %v", n, err)
	}
	if err := rt.Detach(""); err != nil {
		t.Fatal(err)
	}
	if _, err := lc.Count(); err == nil {
		t.Fatal("detached unnamed tenant still answers")
	}
	// Global runtime methods survive the detach: resolution answers that
	// no default tenant is attached.
	cli := rmi.Pipe(rt.RMI())
	defer cli.Close()
	var te *server.TenantError
	if _, err := server.ResolveTenant(cli); !errors.As(err, &te) {
		t.Fatalf("resolve after unnamed detach: %v, want TenantError", err)
	}
	// Re-attach (the SIGHUP config-change path) — must not panic, and
	// must serve the new table.
	if err := rt.AttachStore(server.Tenant{P: 83}, beta.st); err != nil {
		t.Fatalf("re-attach after detach: %v", err)
	}
	lc2, _ := runtimeClient(t, rt, "", beta)
	if n, err := lc2.Count(); err != nil || n != beta.nodes {
		t.Fatalf("re-attached unnamed tenant: %d, %v", n, err)
	}
	if name, err := server.ResolveTenant(cli); err != nil || name != "" {
		t.Fatalf("resolve after re-attach: %q, %v", name, err)
	}
}

func TestResolveTenantDowngrade(t *testing.T) {
	// A bare filter server (no runtime, so no tenant table) fails a
	// tenant-naming client with a TenantError instead of answering from
	// its only table.
	fx := newTenantFixture(t, alphaXML, "seed-alpha")
	old := rmi.NewServer()
	filter.RegisterServer(old, filter.NewServerFilter(fx.st, ring.MustNew(gf.MustNew(83, 1)), 0))

	cli := rmi.Pipe(old)
	defer cli.Close()
	cli.SetTenant("alpha")
	_, err := server.ResolveTenant(cli)
	var te *server.TenantError
	if !errors.As(err, &te) {
		t.Fatalf("tenant client vs bare filter server: %v, want TenantError", err)
	}

	// A runtime server resolves "" to the default tenant's name and
	// rejects unknown tenants with a TenantError-compatible reply.
	rt := server.New(server.Config{})
	if err := rt.AttachStore(server.Tenant{Name: "alpha", P: 83}, fx.st); err != nil {
		t.Fatal(err)
	}
	ncli := rmi.Pipe(rt.RMI())
	defer ncli.Close()
	if name, err := server.ResolveTenant(ncli); err != nil || name != "alpha" {
		t.Fatalf("default resolution: %q, %v", name, err)
	}
	ncli.SetTenant("nobody")
	if _, err := server.ResolveTenant(ncli); !errors.As(err, &te) {
		t.Fatalf("unknown tenant on runtime: %v", err)
	}
}

// TestAttachFileRefusesForeignDumps: a file that is not a current page
// dump — junk, an encoding/gob stream (the shape of the retired
// SQL-backed engine's dumps), a page header cut short — fails at
// attach with an error that says to re-encode, and no tenant is
// served. The same holds for such a stream in a WAL directory's
// base.snap, which attach prefers over the table file.
func TestAttachFileRefusesForeignDumps(t *testing.T) {
	fx := newTenantFixture(t, alphaXML, "seed-alpha")
	dir := t.TempDir()
	good := dumpFixture(t, fx, dir, "good.db")
	img, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := fx.st.Range(0, fx.nodes)
	if err != nil {
		t.Fatal(err)
	}
	var gobDump bytes.Buffer
	if err := gob.NewEncoder(&gobDump).Encode(map[string][]store.NodeRow{"nodes": rows}); err != nil {
		t.Fatal(err)
	}
	streams := map[string][]byte{
		"junk":             []byte("this is neither a gob nor a page file"),
		"gob":              gobDump.Bytes(),
		"truncated header": img[:30],
	}
	refused := func(what string, tn server.Tenant) {
		t.Helper()
		rt := server.New(server.Config{})
		defer rt.Shutdown()
		err := rt.AttachFile(tn)
		if err == nil || !strings.Contains(err.Error(), "re-encode") {
			t.Fatalf("%s: attach err = %v, want a re-encode refusal", what, err)
		}
		if names := rt.Tenants(); len(names) != 0 {
			t.Fatalf("%s: refused attach still serves %v", what, names)
		}
	}
	for name, stream := range streams {
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "-")+".db")
		if err := os.WriteFile(path, stream, 0o644); err != nil {
			t.Fatal(err)
		}
		refused(name+" file", server.Tenant{Name: "alpha", Path: path, P: 83})

		walDir := filepath.Join(dir, "wal-"+strings.ReplaceAll(name, " ", "-"))
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			t.Fatal(err)
		}
		err := wal.WriteSnapshot(filepath.Join(walDir, "base.snap"), 1, func(w io.Writer) error {
			_, err := w.Write(stream)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		refused(name+" base.snap", server.Tenant{Name: "alpha", Path: good, P: 83, WALDir: walDir})
	}
}
