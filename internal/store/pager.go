package store

import "sync/atomic"

// pager is the page store of one page space: a flat array of pageSize
// pages addressed by 1-based IDs, read and written in place. Each table
// has two — heap pages (dumped, byte-deterministic) and index pages
// (rebuilt on load, never dumped). The table's RWMutex orders every
// access to page bytes: readers hold it shared and only read, writers
// hold it exclusively.
//
// A file-backed pager would map its pages, leaving caching to the OS
// page cache, and bring a user-space cache only if one is measured to
// pay for itself.
type pager struct {
	pages [][]byte
	reads atomic.Uint64 // page calls, reported by Store.PoolStats
}

func (pg *pager) alloc() uint32 {
	pg.pages = append(pg.pages, make([]byte, pageSize))
	return uint32(len(pg.pages))
}

// page returns the bytes of page id. They stay valid across alloc,
// which never moves an existing page.
func (pg *pager) page(id uint32) []byte {
	pg.reads.Add(1)
	return pg.pages[id-1]
}

func (pg *pager) count() int { return len(pg.pages) }
