// Package wal implements the per-tenant write-ahead log behind writable
// shares: every mutation batch is appended as one CRC-framed record and
// fsynced before it is acknowledged, so a crash at any byte loses at
// most the batches that were never acknowledged.
//
// # Record format
//
// A log file is an 8-byte magic header followed by records:
//
//	[4B big-endian payload length][4B big-endian CRC-32 (IEEE) of payload][payload]
//
// The payload is opaque to this package (the filter layer stores an
// encoded mutation batch). Length zero is valid (an empty payload).
//
// # Recovery invariant
//
// Open scans the file from the start and keeps exactly the longest
// prefix of intact records: a record is intact when its full frame is
// present, its length field is sane, and its CRC matches. The first
// violation — a torn tail, a flipped bit, a truncated frame — ends the
// scan, and Open truncates the file to the end of the last intact
// record so subsequent appends extend a clean log. The scan streams:
// records are read frame by frame and handed to the caller's replay
// callback one at a time, so recovering a long-lived log costs one
// record of memory, not the whole write history. Scan implements the
// same grammar over an in-memory byte string, exported so the
// torn-write fuzz harness can exercise it on arbitrary inputs.
//
// Replicas that append the same batches in the same order produce
// byte-identical log files — the property the cluster layer's replay
// rule and the CI mutation-smoke byte-diff rely on.
//
// # Group commit
//
// Append is Write + SyncTo. Write frames the record and hands it to the
// file under the log's write mutex; SyncTo makes it durable, coalescing
// concurrent callers: the first waiter becomes the commit leader and
// issues one fdatasync that covers every record written so far, and the
// waiters behind it observe their record already synced and return
// without touching the disk. A record is covered — and its batch may be
// acknowledged — only once SyncTo returns nil. Compaction interacts via
// a truncation generation: SyncTo for a record the snapshot already
// folded (the generation moved) returns nil without syncing, because
// the snapshot was fsynced before the log was truncated.
//
// # Sticky failure
//
// Any write, sync, or truncate error moves the log into a permanent
// failed state: every subsequent operation returns an error wrapping
// ErrFailed and nothing is ever retried against the file. This is
// deliberate — after a failed fsync the kernel may have dropped the
// dirty pages, so a later fsync returning nil proves nothing about the
// data, and a write after a failed write could leave a hole below
// records that would then be acknowledged and lost. Recovery is
// restart-and-replay: reopen the log and serve the valid prefix.
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// magic marks a wal file; a file shorter than the header or with a
// different magic recovers as an empty log.
var magic = []byte("ENCWAL01")

// MaxRecord bounds one record's payload; a length field beyond it is
// treated as corruption, ending recovery at the previous record.
const MaxRecord = 64 << 20

const headerLen = 8
const frameLen = 8 // length + crc

// ErrFailed marks a log in the permanent failed state: a write or sync
// error occurred and the file's durable contents can no longer be
// trusted past the last successful sync. Match with errors.Is.
var ErrFailed = errors.New("wal: log failed")

// ErrClosed reports an operation on a closed log.
var ErrClosed = errors.New("wal: log closed")

// Record is one recovered payload.
type Record []byte

// Scan walks data (the bytes of a log file after the magic header) and
// returns the records of its longest valid prefix plus the byte length
// of that prefix. It never fails: corruption just ends the prefix.
func Scan(data []byte) (recs []Record, validLen int) {
	off := 0
	for {
		if off+frameLen > len(data) {
			return recs, off
		}
		n := int(binary.BigEndian.Uint32(data[off:]))
		sum := binary.BigEndian.Uint32(data[off+4:])
		if n > MaxRecord || off+frameLen+n > len(data) {
			return recs, off
		}
		payload := data[off+frameLen : off+frameLen+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, off
		}
		recs = append(recs, Record(append([]byte(nil), payload...)))
		off += frameLen + n
	}
}

// AppendRecord appends one framed record to buf and returns it — the
// exact bytes Append writes, exposed for tests that build log images.
func AppendRecord(buf, payload []byte) []byte {
	var hdr [frameLen]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	return append(append(buf, hdr[:]...), payload...)
}

// Stats is a point-in-time copy of a log's work counters. Appends vs
// Syncs is the group-commit amortization: with coalescing, concurrent
// appends share fdatasyncs and Appends/Syncs exceeds 1.
type Stats struct {
	Appends      uint64 // records written
	Syncs        uint64 // fdatasyncs issued by SyncTo
	SyncFailures uint64 // fdatasyncs that returned an error
	Failed       bool   // the log is in the sticky failed state
}

// Log is an open write-ahead log file. Safe for concurrent use: writers
// serialize under an internal mutex and concurrent SyncTo calls coalesce
// under a commit leader (see the package comment).
type Log struct {
	fsys FS
	path string

	mu     sync.Mutex // guards f, size, recs, synced, gen, err, closed
	f      File
	size   int64 // current file length, always at a record boundary
	recs   int   // records in the log (recovered + appended)
	synced int64 // file length covered by the last successful sync
	gen    uint64
	err    error // sticky failure, wraps ErrFailed
	closed bool

	// syncMu elects the commit leader: one fdatasync in flight at a
	// time, writers keep appending under mu while it runs.
	syncMu sync.Mutex

	stats struct {
		appends, syncs, syncFailures atomic.Uint64
	}
	coalesceOff atomic.Bool // true = fsync every SyncTo (per-append baseline, tests only)
	syncObs     atomic.Pointer[func(time.Duration)]
}

// Open opens (creating if necessary) the log at path on the real
// filesystem, recovering to the longest valid prefix of records.
func Open(path string, replay func(payload []byte) error) (*Log, error) {
	return OpenAt(OS, path, replay)
}

// OpenAt is Open through an explicit filesystem. Recovery streams: each
// intact record's payload is handed to replay in log order as it is
// validated, then the file is truncated to the prefix and positioned
// for appending. The payload slice is reused between calls — replay
// must copy anything it keeps (decoding into an owned value counts). A
// nil replay just validates and counts. A replay error aborts the open:
// the owner's recovery failed, not the log's.
func OpenAt(fsys FS, path string, replay func(payload []byte) error) (*Log, error) {
	if err := fsys.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir: %w", err)
	}
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l := &Log{fsys: fsys, f: f, path: path}
	br := bufio.NewReaderSize(f, 1<<16)
	hdr := make([]byte, headerLen)
	if _, herr := io.ReadFull(br, hdr); herr != nil || !bytes.Equal(hdr, magic) {
		// A read error here may be transient-looking but the file is
		// unreadable — distinguish a short/fresh file (start clean) from
		// an I/O failure (surface it).
		if herr != nil && !errors.Is(herr, io.EOF) && !errors.Is(herr, io.ErrUnexpectedEOF) {
			f.Close()
			return nil, fmt.Errorf("wal: read header %s: %w", path, herr)
		}
		// Fresh file, or a header torn by a crash during creation (no
		// record can have been acknowledged yet): start clean.
		if err := l.reset(); err != nil {
			f.Close()
			return nil, err
		}
		return l, nil
	}
	l.size = headerLen
	var (
		frame   [frameLen]byte
		payload []byte
	)
	for {
		if _, err := io.ReadFull(br, frame[:]); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				f.Close()
				return nil, fmt.Errorf("wal: read %s: %w", path, err)
			}
			break
		}
		n := int(binary.BigEndian.Uint32(frame[0:]))
		sum := binary.BigEndian.Uint32(frame[4:])
		if n > MaxRecord {
			break
		}
		if cap(payload) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				f.Close()
				return nil, fmt.Errorf("wal: read %s: %w", path, err)
			}
			break
		}
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		if replay != nil {
			if err := replay(payload); err != nil {
				f.Close()
				return nil, err
			}
		}
		l.size += int64(frameLen + n)
		l.recs++
	}
	if err := f.Truncate(l.size); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: truncate %s: %w", path, err)
	}
	if _, err := f.Seek(l.size, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seek %s: %w", path, err)
	}
	l.synced = l.size
	return l, nil
}

// SetSyncObserver installs a callback invoked with the duration of
// every fdatasync SyncTo issues (successful or not) — the runtime wires
// it to the encshare_wal_fsync_seconds histogram.
func (l *Log) SetSyncObserver(fn func(time.Duration)) {
	if fn == nil {
		l.syncObs.Store(nil)
		return
	}
	l.syncObs.Store(&fn)
}

// fail moves the log into the sticky failed state (first cause wins).
// Caller holds l.mu.
func (l *Log) fail(cause error) error {
	if l.err == nil {
		l.err = fmt.Errorf("%w (%s): %v", ErrFailed, l.path, cause)
	}
	return l.err
}

// Failed returns the sticky failure, or nil while the log is healthy.
func (l *Log) Failed() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Stats returns a snapshot of the log's work counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	failed := l.err != nil
	l.mu.Unlock()
	return Stats{
		Appends:      l.stats.appends.Load(),
		Syncs:        l.stats.syncs.Load(),
		SyncFailures: l.stats.syncFailures.Load(),
		Failed:       failed,
	}
}

// reset truncates the log to an empty (header-only) file and syncs it.
// Caller holds l.mu (or owns the log exclusively, as Open does).
func (l *Log) reset() error {
	if err := l.f.Truncate(0); err != nil {
		return l.fail(fmt.Errorf("truncate: %v", err))
	}
	if _, err := l.f.WriteAt(magic, 0); err != nil {
		return l.fail(fmt.Errorf("write header: %v", err))
	}
	if err := l.f.Sync(); err != nil {
		return l.fail(fmt.Errorf("sync header: %v", err))
	}
	if _, err := l.f.Seek(headerLen, 0); err != nil {
		return l.fail(fmt.Errorf("seek: %v", err))
	}
	l.size = headerLen
	l.synced = headerLen
	l.recs = 0
	l.gen++
	return nil
}

// Write frames payload and hands it to the file, returning the byte
// offset its frame ends at and the current truncation generation — the
// pair SyncTo needs to make it durable. Writes serialize under the
// log's mutex, and ANY write error (a short write included) is sticky:
// allowing later writes past a hole would let a record above it be
// synced, acknowledged, and then lost to the recovery scan.
func (l *Log) Write(payload []byte) (end int64, gen uint64, err error) {
	if len(payload) > MaxRecord {
		return 0, 0, fmt.Errorf("wal: record of %d bytes exceeds MaxRecord", len(payload))
	}
	frame := AppendRecord(make([]byte, 0, frameLen+len(payload)), payload)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, 0, fmt.Errorf("%w: append %s", ErrClosed, l.path)
	}
	if l.err != nil {
		return 0, 0, l.err
	}
	if _, werr := l.f.WriteAt(frame, l.size); werr != nil {
		return 0, 0, l.fail(fmt.Errorf("append: %v", werr))
	}
	l.size += int64(len(frame))
	l.recs++
	l.stats.appends.Add(1)
	return l.size, l.gen, nil
}

// SyncTo blocks until the record ending at end (written under gen) is
// durable, then returns nil. Concurrent callers coalesce: the first in
// becomes the commit leader and fdatasyncs once for everything written
// so far; the rest observe their offset already covered. A gen mismatch
// means compaction folded the record into the (already-fsynced) base
// snapshot, which covers it. A sync error is sticky — the caller must
// NOT acknowledge its record.
func (l *Log) SyncTo(end int64, gen uint64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return fmt.Errorf("%w: sync %s", ErrClosed, l.path)
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	if l.gen != gen || (!l.coalesceOff.Load() && l.synced >= end) {
		l.mu.Unlock()
		return nil
	}
	covered := l.size
	f := l.f
	l.mu.Unlock()

	start := time.Now()
	serr := f.Sync()
	if obs := l.syncObs.Load(); obs != nil {
		(*obs)(time.Since(start))
	}
	l.stats.syncs.Add(1)

	l.mu.Lock()
	defer l.mu.Unlock()
	if serr != nil {
		l.stats.syncFailures.Add(1)
		return l.fail(fmt.Errorf("sync: %v", serr))
	}
	if l.gen == gen && covered > l.synced {
		l.synced = covered
	}
	return nil
}

// Append frames payload, writes it, and makes it durable before
// returning: once Append returns nil the record survives any crash.
// Concurrent Appends coalesce their fdatasyncs (group commit).
func (l *Log) Append(payload []byte) error {
	end, gen, err := l.Write(payload)
	if err != nil {
		return err
	}
	return l.SyncTo(end, gen)
}

// Truncate discards every record (after a successful compaction folded
// them into the base snapshot) and leaves an empty log. It serializes
// against any in-flight sync; waiters from before the truncation
// observe the generation moved and report their records durable — the
// snapshot fsync that preceded this call covers them.
func (l *Log) Truncate() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("%w: truncate %s", ErrClosed, l.path)
	}
	if l.err != nil {
		return l.err
	}
	return l.reset()
}

// Size returns the current file length in bytes (header included).
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Records returns how many records the log currently holds.
func (l *Log) Records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recs
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Close closes the underlying file. Always permitted, even on a failed
// log; subsequent operations return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.f.Close()
}
