package wal

// SetCoalesce turns sync coalescing off (false) or back on (true, the
// default). With coalescing off every SyncTo issues its own fdatasync —
// the per-append-fsync baseline the coalescing tests compare against.
func (l *Log) SetCoalesce(on bool) { l.coalesceOff.Store(!on) }
