// Package store implements the server-side node table of the scheme: one
// row (pre, post, parent, poly) per XML node, where poly is the server's
// share of the node polynomial (paper §5.1).
//
// The paper's prototype keeps these rows in MySQL with B-tree indexes on
// pre, post and parent. This package is a purpose-built storage engine
// for the same table: a fixed-width binary row codec, slotted 8 KiB heap
// pages holding rows clustered in pre order, and a B⁺-tree keyed on pre
// (plus a composite (parent, pre) tree for child navigation), all held
// in memory and read in place.
//
// The descendant query exploits the contiguity of descendants in pre
// order: the subtree boundary — the smallest pre greater than pre(n)
// whose post exceeds post(n), i.e. the first non-descendant — bounds a
// range scan of (pre(n), boundary). The scan discovers the boundary as
// its own stop condition (the first row met with post > post(n) IS the
// boundary), so it costs O(log N + |subtree|) instead of the naive O(N)
// post-filter (kept as DescendantsNaive for the ablation benchmark).
package store

import (
	"errors"
	"fmt"
)

// NodeRow is one stored node: the Grust numbering plus the server share of
// the node polynomial.
type NodeRow struct {
	Pre    int64
	Post   int64
	Parent int64
	Poly   []byte
}

// ErrNotFound is returned when a requested node does not exist.
var ErrNotFound = errors.New("store: node not found")

// NotFoundError is the error Node(pre) returns for a missing row —
// exported so layers that synthesize per-member errors (the cluster
// merge) produce the exact message a single server would.
func NotFoundError(pre int64) error {
	return fmt.Errorf("store: node %d: %w", pre, ErrNotFound)
}

// Store is a handle on one node table.
type Store struct {
	dsn string
	tbl *pagedTable
}

// Open connects to (creating if necessary) the table named by dsn.
// Opening one DSN twice yields two handles on the same table. Call Init
// before first use of a fresh table.
func Open(dsn string) (*Store, error) {
	return &Store{dsn: dsn, tbl: tableFor(dsn)}, nil
}

// DSN returns the database name this store is attached to.
func (s *Store) DSN() string { return s.dsn }

// Options, OpenWith, PoolStats and Store.PoolStats are a shim kept only
// because the benchmark module (bench/) still calls them; they go when
// it stops doing so (ROADMAP G1′). Options has no fields and OpenWith
// is Open.
type Options struct{}

// OpenWith is Open; see Options.
func OpenWith(dsn string, _ Options) (*Store, error) { return Open(dsn) }

// PoolStats is the counter snapshot Store.PoolStats reports.
type PoolStats struct {
	Hits, Misses, Evictions uint64
}

// PoolStats counts each page access since the table was last loaded as
// a hit and reports no misses or evictions: there is no cache between
// the table and its pages. Its only reader is bench/traced.go, which emits
// store.pool_hit_ratio only when hits plus misses exceed 0. ok is always
// true.
func (s *Store) PoolStats() (stats PoolStats, ok bool) {
	tb := s.tbl
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	return PoolStats{Hits: tb.heapPg.reads.Load() + tb.idxPg.reads.Load()}, true
}

// Init creates the nodes table (the schema of §5.1), failing if it
// already exists.
func (s *Store) Init() error {
	tb := s.tbl
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if tb.created {
		return fmt.Errorf("store: init: table nodes already exists")
	}
	tb.created = true
	return nil
}

// Attach binds to an existing nodes table (e.g. after Load restored a
// dump).
func (s *Store) Attach() error {
	tb := s.tbl
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	if !tb.created {
		return fmt.Errorf("store: attach: no nodes table under %q", s.dsn)
	}
	return nil
}

// CopyRange copies the rows with pre in [lo, hi] into a fresh store
// under a new DSN — the shared shard builder behind Database.DumpShard
// (shard files) and cluster.SplitStore (in-process shards). The caller
// owns the result: Close it and Drop the DSN when done.
func (s *Store) CopyRange(lo, hi int64) (*Store, string, error) {
	rows, err := s.Range(lo, hi)
	if err != nil {
		return nil, "", err
	}
	if len(rows) == 0 {
		return nil, "", fmt.Errorf("store: range [%d, %d] holds no rows", lo, hi)
	}
	dsn := FreshDSN()
	dst, err := Open(dsn)
	if err != nil {
		return nil, "", err
	}
	fail := func(err error) (*Store, string, error) {
		dst.Close()
		Drop(dsn)
		return nil, "", err
	}
	if err := dst.Init(); err != nil {
		return fail(err)
	}
	for _, row := range rows {
		if err := dst.InsertNode(row); err != nil {
			return fail(err)
		}
	}
	return dst, dsn, nil
}

// Close releases the handle (the data stays registered under the DSN
// until Drop).
func (s *Store) Close() error { return nil }
