package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// ShardInfo is one manifest entry: the pre range a shard owns plus where
// its data lives (DB files, written by the encoder) and where it serves
// (addresses, filled in at deploy time). A shard may have several
// replicas — byte-identical copies of the same slice — listed in DBs and
// Addrs; the singular Addr/DB fields are the pre-replication manifest
// format and still describe a one-replica shard.
type ShardInfo struct {
	Addr  string   `json:"addr,omitempty"`
	Addrs []string `json:"addrs,omitempty"`
	DB    string   `json:"db,omitempty"`
	DBs   []string `json:"dbs,omitempty"`
	Lo    int64    `json:"lo"`
	Hi    int64    `json:"hi"`
}

// ReplicaDBs returns the shard's replica database files: DBs when set,
// else the legacy singular DB (or nothing).
func (s *ShardInfo) ReplicaDBs() []string {
	if len(s.DBs) > 0 {
		return s.DBs
	}
	if s.DB != "" {
		return []string{s.DB}
	}
	return nil
}

// ReplicaAddrs returns the shard's replica serve addresses: Addrs when
// set, else the legacy singular Addr (or nothing).
func (s *ShardInfo) ReplicaAddrs() []string {
	if len(s.Addrs) > 0 {
		return s.Addrs
	}
	if s.Addr != "" {
		return []string{s.Addr}
	}
	return nil
}

// Replicas returns the shard's replica count (at least 1: a manifest
// entry with no files or addresses still describes one logical serving
// slot).
func (s *ShardInfo) Replicas() int {
	n := len(s.ReplicaDBs())
	if a := len(s.ReplicaAddrs()); a > n {
		n = a
	}
	if n < 1 {
		n = 1
	}
	return n
}

// TenantShards is one tenant's entry in a v2 manifest: a named,
// independently encoded shard table. The shard list has exactly the v1
// shape, so a v1 manifest normalizes to a single unnamed tenant.
type TenantShards struct {
	Name string `json:"name"`
	// P, E are the tenant's field parameters (0 = the serving
	// process's defaults). Tenants may be encoded over different
	// fields.
	P uint32 `json:"p,omitempty"`
	E uint32 `json:"e,omitempty"`

	Shards []ShardInfo `json:"shards"`
}

// Manifest describes a sharded deployment: which contiguous pre slice of
// the encrypted node table each server holds. It carries no secrets —
// pre ranges are structural metadata the servers see anyway.
//
// Two formats share this type. A v1 manifest (the original) lists one
// tenant's shards at top level. A v2 manifest (Version >= 2) lists
// named tenants, each with its own shard table, plus the default-tenant
// designation; every tenant has the same number of shard slots, because
// shard slot i of every tenant is served by the same process (tenants
// co-locate, their addresses overlap; their db files may not).
type Manifest struct {
	Version int         `json:"version,omitempty"`
	Shards  []ShardInfo `json:"shards,omitempty"`

	// v2 fields.
	Tenants []TenantShards `json:"tenants,omitempty"`
	// Default names the tenant that pre-tenant clients are served from
	// ("" = the first listed tenant).
	Default string `json:"default,omitempty"`
}

// TenantTable returns the manifest's tenants in listed order, lifting a
// v1 manifest into a single unnamed tenant — the one shape consumers
// iterate over.
func (m *Manifest) TenantTable() []TenantShards {
	if len(m.Tenants) > 0 {
		return m.Tenants
	}
	return []TenantShards{{Shards: m.Shards}}
}

// DefaultTenant returns the name of the tenant pre-tenant clients land
// on.
func (m *Manifest) DefaultTenant() string {
	if m.Default != "" {
		return m.Default
	}
	if len(m.Tenants) > 0 {
		return m.Tenants[0].Name
	}
	return ""
}

// Validate checks the manifest: per tenant, ranges in order tiling a
// contiguous pre interval; across tenants, unique non-empty names,
// equal shard-slot counts, and no db file claimed twice (tenants
// co-locate on addresses — overlapping replica *address* lists across
// tenants are the expected deployment — but a db file encodes exactly
// one tenant's rows).
func (m *Manifest) Validate() error {
	if m.Version >= 2 || len(m.Tenants) > 0 {
		if len(m.Tenants) == 0 {
			return fmt.Errorf("cluster: v2 manifest has an empty tenant table")
		}
		if len(m.Shards) > 0 {
			return fmt.Errorf("cluster: v2 manifest sets both tenants and top-level shards")
		}
		seen := make(map[string]bool, len(m.Tenants))
		dbOwner := map[string]string{}
		for ti, tn := range m.Tenants {
			if tn.Name == "" {
				return fmt.Errorf("cluster: manifest tenant %d has no name", ti)
			}
			if seen[tn.Name] {
				return fmt.Errorf("cluster: duplicate tenant name %q in manifest", tn.Name)
			}
			seen[tn.Name] = true
			if len(tn.Shards) != len(m.Tenants[0].Shards) {
				return fmt.Errorf("cluster: tenant %q has %d shards, tenant %q has %d (shard slots must align)",
					tn.Name, len(tn.Shards), m.Tenants[0].Name, len(m.Tenants[0].Shards))
			}
			if err := validateShards(tn.Shards, "tenant "+tn.Name+" "); err != nil {
				return err
			}
			for _, s := range tn.Shards {
				for _, db := range s.ReplicaDBs() {
					if owner, dup := dbOwner[db]; dup && owner != tn.Name {
						return fmt.Errorf("cluster: db file %q listed by tenants %q and %q", db, owner, tn.Name)
					}
					dbOwner[db] = tn.Name
				}
			}
		}
		if m.Default != "" && !seen[m.Default] {
			return fmt.Errorf("cluster: manifest default tenant %q is not in the tenant table", m.Default)
		}
		return nil
	}
	return validateShards(m.Shards, "")
}

func validateShards(shards []ShardInfo, where string) error {
	if len(shards) == 0 {
		return fmt.Errorf("cluster: %smanifest has no shards", where)
	}
	for i, s := range shards {
		if s.Lo > s.Hi {
			return fmt.Errorf("cluster: %smanifest shard %d has empty range [%d, %d]", where, i, s.Lo, s.Hi)
		}
		if i > 0 && s.Lo != shards[i-1].Hi+1 {
			return fmt.Errorf("cluster: %smanifest shard %d starts at %d, want %d (contiguous ranges)",
				where, i, s.Lo, shards[i-1].Hi+1)
		}
		if s.DB != "" && len(s.DBs) > 0 {
			return fmt.Errorf("cluster: %smanifest shard %d sets both db and dbs", where, i)
		}
		if s.Addr != "" && len(s.Addrs) > 0 {
			return fmt.Errorf("cluster: %smanifest shard %d sets both addr and addrs", where, i)
		}
		if d, a := len(s.ReplicaDBs()), len(s.ReplicaAddrs()); d > 0 && a > 0 && d != a {
			return fmt.Errorf("cluster: %smanifest shard %d lists %d db files but %d addresses", where, i, d, a)
		}
	}
	return nil
}

// Upgrade lifts a v1 manifest into the v2 format, naming its single
// tenant. A manifest that is already v2 is returned unchanged. The
// upgraded manifest round-trips through Write/LoadManifest with the
// same tenant table.
func (m *Manifest) Upgrade(name string) *Manifest {
	if len(m.Tenants) > 0 {
		return m
	}
	return &Manifest{
		Version: 2,
		Tenants: []TenantShards{{Name: name, Shards: m.Shards}},
		Default: name,
	}
}

// Write serializes the manifest as indented JSON.
func (m *Manifest) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// WriteFile writes the manifest to path.
func (m *Manifest) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadManifest reads and validates a manifest file.
func LoadManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("cluster: parsing manifest %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return &m, nil
}

// PartitionEven splits the inclusive pre interval [lo, hi] into n
// contiguous ranges whose sizes differ by at most one — the default
// partitioner. Pre numbers are dense (the encoder assigns 1..count), so
// even pre slices are even row slices.
func PartitionEven(lo, hi int64, n int) ([]Range, error) {
	if lo > hi {
		return nil, fmt.Errorf("cluster: empty pre interval [%d, %d]", lo, hi)
	}
	total := hi - lo + 1
	if n < 1 || int64(n) > total {
		return nil, fmt.Errorf("cluster: cannot cut %d nodes into %d shards", total, n)
	}
	out := make([]Range, n)
	base, rem := total/int64(n), total%int64(n)
	next := lo
	for i := 0; i < n; i++ {
		size := base
		if int64(i) < rem {
			size++
		}
		out[i] = Range{Lo: next, Hi: next + size - 1}
		next += size
	}
	return out, nil
}
