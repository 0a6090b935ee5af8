// Package minisql exists only because the benchmark harness under
// bench/, which is its own module and is not edited alongside the
// program, still imports it for FreshDSN and Drop. Both forward to
// package store, which owns the DSN namespace. The next change that
// may edit bench/ (ROADMAP G1) switches it to store.FreshDSN and
// store.Drop, and deletes this package.
package minisql

import "encshare/internal/store"

// FreshDSN forwards to store.FreshDSN.
func FreshDSN() string { return store.FreshDSN() }

// Drop forwards to store.Drop.
func Drop(dsn string) { store.Drop(dsn) }
