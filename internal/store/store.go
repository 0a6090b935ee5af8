// Package store implements the server-side node table of the scheme: one
// row (pre, post, parent, poly) per XML node, where poly is the server's
// share of the node polynomial (paper §5.1).
//
// The paper's prototype keeps these rows in MySQL with B-tree indexes on
// pre, post and parent. This package is a purpose-built storage engine
// for the same table: a fixed-width binary row codec, slotted 8 KiB heap
// pages holding rows clustered in pre order, a B⁺-tree keyed on pre
// (plus a composite (parent, pre) tree for child navigation) and a
// CLOCK-evicting buffer pool.
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

// Options configures OpenWith.
type Options struct {
	// PoolPages bounds the buffer pool (0 = DefaultPoolPages). It only
	// applies when the DSN's table is created by this call.
	PoolPages int
}

// Store is a handle on one node table.
type Store struct {
	dsn  string
	opts Options
	tbl  *pagedTable
}

// Open connects to (creating if necessary) the table named by dsn with
// default options. Call Init before first use of a fresh table.
func Open(dsn string) (*Store, error) {
	return OpenWith(dsn, Options{})
}

// OpenWith is Open with explicit options. Opening one DSN twice yields
// two handles on the same table.
func OpenWith(dsn string, opts Options) (*Store, error) {
	return &Store{dsn: dsn, opts: opts, tbl: tableFor(dsn, opts.PoolPages)}, nil
}

// DSN returns the database name this store is attached to.
func (s *Store) DSN() string { return s.dsn }

// PoolStats returns the buffer-pool counters. ok is always true; the
// flag remains so callers written against an engine without a pool
// still compile.
func (s *Store) PoolStats() (stats PoolStats, ok bool) {
	return s.tbl.pool.stats(), true
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
// (shard files) and cluster.SplitStore (in-process shards). The result
// is opened with the source's options. The caller owns it: Close it
// and Drop the DSN when done.
func (s *Store) CopyRange(lo, hi int64) (*Store, string, error) {
	rows, err := s.Range(lo, hi)
	if err != nil {
		return nil, "", err
	}
	if len(rows) == 0 {
		return nil, "", fmt.Errorf("store: range [%d, %d] holds no rows", lo, hi)
	}
	dsn := FreshDSN()
	dst, err := OpenWith(dsn, s.opts)
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
