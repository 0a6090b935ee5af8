package cluster

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func v2Manifest() *Manifest {
	return &Manifest{
		Version: 2,
		Default: "auction",
		Tenants: []TenantShards{
			{Name: "auction", Shards: []ShardInfo{
				{DBs: []string{"a0.r0.db", "a0.r1.db"}, Addrs: []string{"h:1", "h:2"}, Lo: 1, Hi: 50},
				{DBs: []string{"a1.r0.db", "a1.r1.db"}, Addrs: []string{"h:3", "h:4"}, Lo: 51, Hi: 100},
			}},
			{Name: "books", Shards: []ShardInfo{
				{DBs: []string{"b0.r0.db", "b0.r1.db"}, Addrs: []string{"h:1", "h:2"}, Lo: 1, Hi: 30},
				{DBs: []string{"b1.r0.db", "b1.r1.db"}, Addrs: []string{"h:3", "h:4"}, Lo: 31, Hi: 61},
			}},
		},
	}
}

func TestManifestV2Valid(t *testing.T) {
	m := v2Manifest()
	if err := m.Validate(); err != nil {
		t.Fatalf("valid v2 manifest rejected: %v", err)
	}
	if got := m.DefaultTenant(); got != "auction" {
		t.Errorf("DefaultTenant = %q", got)
	}
	if got := len(m.TenantTable()); got != 2 {
		t.Errorf("TenantTable len = %d", got)
	}
}

// Overlapping replica *address* lists across tenants are the expected
// co-location deployment (one process serves shard i of every tenant);
// overlapping *db* lists are an error (a db file encodes one tenant's
// rows).
func TestManifestV2OverlapRules(t *testing.T) {
	m := v2Manifest() // addresses overlap across tenants already
	if err := m.Validate(); err != nil {
		t.Fatalf("address overlap across tenants must be allowed: %v", err)
	}
	m.Tenants[1].Shards[0].DBs[0] = "a0.r0.db" // books claims auction's file
	err := m.Validate()
	if err == nil || !strings.Contains(err.Error(), "a0.r0.db") {
		t.Fatalf("db overlap across tenants: got %v", err)
	}
	// The same file listed twice by ONE tenant (replica copies reuse a
	// path) stays legal.
	m = v2Manifest()
	m.Tenants[0].Shards[0].DBs = []string{"a0.r0.db", "a0.r0.db"}
	if err := m.Validate(); err != nil {
		t.Fatalf("intra-tenant db reuse rejected: %v", err)
	}
}

func TestManifestV2DuplicateTenantNames(t *testing.T) {
	m := v2Manifest()
	m.Tenants[1].Name = "auction"
	err := m.Validate()
	if err == nil || !strings.Contains(err.Error(), "duplicate tenant name") {
		t.Fatalf("duplicate names: got %v", err)
	}
}

func TestManifestV2EmptyTenantTable(t *testing.T) {
	m := &Manifest{Version: 2}
	err := m.Validate()
	if err == nil || !strings.Contains(err.Error(), "empty tenant table") {
		t.Fatalf("empty tenant table: got %v", err)
	}
}

func TestManifestV2Rules(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Manifest)
		want string
	}{
		{"unnamed tenant", func(m *Manifest) { m.Tenants[0].Name = "" }, "has no name"},
		{"misaligned shard slots", func(m *Manifest) { m.Tenants[1].Shards = m.Tenants[1].Shards[:1] }, "shard slots must align"},
		{"unknown default", func(m *Manifest) { m.Default = "nobody" }, "default tenant"},
		{"non-contiguous tenant ranges", func(m *Manifest) { m.Tenants[1].Shards[1].Lo = 40 }, "contiguous"},
		{"tenants plus top-level shards", func(m *Manifest) { m.Shards = []ShardInfo{{Lo: 1, Hi: 2}} }, "both tenants and top-level shards"},
	} {
		m := v2Manifest()
		tc.mut(m)
		err := m.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestManifestV1RoundTrip pins that pre-tenant manifests still load,
// validate, and rewrite byte-compatibly (no version or tenant fields
// leak into a v1 file).
func TestManifestV1RoundTrip(t *testing.T) {
	m := &Manifest{Shards: []ShardInfo{
		{DB: "s0.db", Addr: "h:1", Lo: 1, Hi: 10},
		{DB: "s1.db", Addr: "h:2", Lo: 11, Hi: 20},
	}}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("v1 round-trip changed the manifest:\n got %+v\nwant %+v", got, m)
	}
	if n := len(got.TenantTable()); n != 1 {
		t.Fatalf("v1 TenantTable len = %d", n)
	}
}

// TestManifestV1ToV2RoundTrip upgrades a v1 manifest to v2 and pins
// that the upgraded form survives a write/load cycle with the same
// tenant table and shard data.
func TestManifestV1ToV2RoundTrip(t *testing.T) {
	v1 := &Manifest{Shards: []ShardInfo{
		{DBs: []string{"s0.r0.db", "s0.r1.db"}, Addrs: []string{"h:1", "h:2"}, Lo: 1, Hi: 10},
		{DBs: []string{"s1.r0.db", "s1.r1.db"}, Addrs: []string{"h:3", "h:4"}, Lo: 11, Hi: 20},
	}}
	up := v1.Upgrade("auction")
	if err := up.Validate(); err != nil {
		t.Fatalf("upgraded manifest invalid: %v", err)
	}
	if up.DefaultTenant() != "auction" {
		t.Errorf("upgraded default = %q", up.DefaultTenant())
	}
	path := filepath.Join(t.TempDir(), "m2.json")
	if err := up.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, up) {
		t.Fatalf("v2 round-trip changed the manifest:\n got %+v\nwant %+v", got, up)
	}
	if !reflect.DeepEqual(got.TenantTable()[0].Shards, v1.Shards) {
		t.Fatalf("upgrade lost shard data")
	}
	// Upgrading an already-v2 manifest is the identity.
	if again := got.Upgrade("other"); !reflect.DeepEqual(again, got) {
		t.Fatalf("Upgrade on v2 manifest not identity")
	}
}

func TestManifestV2RoundTrip(t *testing.T) {
	m := v2Manifest()
	path := filepath.Join(t.TempDir(), "m.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("v2 round-trip changed the manifest:\n got %+v\nwant %+v", got, m)
	}
}

// A v2 manifest written before the per-tenant workers/cache quotas and
// the cache budget were removed still loads; the keys are ignored.
func TestManifestV2IgnoresRemovedQuotaKeys(t *testing.T) {
	const doc = `{"version": 2, "default": "auction", "cache_budget": 8192, "tenants": [
		{"name": "auction", "workers": 4, "cache": 2048, "shards": [{"db": "a.db", "lo": 1, "hi": 50}]},
		{"name": "books", "cache": -1, "shards": [{"db": "b.db", "lo": 1, "hi": 30}]}]}`
	path := filepath.Join(t.TempDir(), "m.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatalf("manifest with removed quota keys rejected: %v", err)
	}
	want := &Manifest{Version: 2, Default: "auction", Tenants: []TenantShards{
		{Name: "auction", Shards: []ShardInfo{{DB: "a.db", Lo: 1, Hi: 50}}},
		{Name: "books", Shards: []ShardInfo{{DB: "b.db", Lo: 1, Hi: 30}}},
	}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded %+v, want %+v", got, want)
	}
}
