package main

import (
	"encoding/json"
	"io"
	"io/fs"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"encshare/internal/wal"
)

// Span levels, outermost first. A span's parent is the innermost span of
// a lower level (and, where both name one, of the same shard) whose
// interval contains it.
const (
	lvOp       = iota // one closed-loop op, recorded by the runner
	lvCluster         // one cluster.Filter call (agg-cluster only)
	lvExchange        // one client-side ServerAPI call on one server
	lvTurn            // one server turnaround, from the connection tap
	lvHandler         // one server-side ServerAPI call
	lvWAL             // one journal write or fsync
	numLevels
)

var levelNames = [numLevels]string{"op", "cluster", "exchange", "turnaround", "handler", "wal"}

// span is one recorded interval. Times are nanoseconds since the
// recorder's epoch, so spans of one process compare directly.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1: none
	Op     int    `json:"op"`     // id of the op it belongs to
	Level  int    `json:"-"`
	Name   string `json:"name"`
	Lane   int    `json:"lane"`  // session index
	Shard  int    `json:"shard"` // server index; -1: not tied to one
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	In     int64  `json:"bytes_in,omitempty"` // turnaround: request bytes
	Out    int64  `json:"bytes_out,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder keeps every span in memory from the moment its stack is built;
// runWindow adds one op span per op only during the traced window. A span
// belongs to the op whose interval its start falls in — resolved after
// the window, so no id has to be threaded through the stack under test.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// add appends a finished span and returns its index.
func (r *recorder) add(level int, name string, lane, shard int, start, end int64) int {
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: -1, Op: -1, Level: level,
		Name: name, Lane: lane, Shard: shard, Start: start, End: end})
	r.mu.Unlock()
	return id
}

// reset drops what was recorded so far (the warm-up).
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.mu.Unlock()
}

// mark is the number of spans recorded so far.
func (r *recorder) mark() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// beginOp opens an op span; endOp closes and names it. A nil recorder
// records nothing: that is how windows outside the traced one run.
func (r *recorder) beginOp(lane int) int {
	if r == nil {
		return -1
	}
	t := r.now()
	return r.add(lvOp, "", lane, -1, t, t)
}

func (r *recorder) endOp(id int, name string) {
	if id < 0 {
		return
	}
	r.mu.Lock()
	r.spans[id].End, r.spans[id].Name = r.now(), name
	r.mu.Unlock()
}

// writeTo writes every span as one JSON object per line.
func (r *recorder) writeTo(w io.Writer, workload string) error {
	enc := json.NewEncoder(w)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.spans {
		if err := enc.Encode(struct {
			Workload string `json:"workload"`
			Layer    string `json:"layer"`
			*span
		}{workload, levelNames[r.spans[i].Level], &r.spans[i]}); err != nil {
			return err
		}
	}
	return nil
}

// tap is the benchmark's view of the wire from outside the program: a
// listener wrapper that counts bytes per accepted connection and, given a
// recorder, times each server turnaround without parsing frames.
type tap struct {
	rec *recorder // nil: count bytes only

	mu    sync.Mutex
	conns []*tapConn
}

// bytes returns the traffic of every connection (lane < 0) or of the
// connections of one lane, both directions.
func (t *tap) bytes(lane int) (in, out int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.conns {
		if lane < 0 || c.lane == lane {
			in += c.in.Load()
			out += c.out.Load()
		}
	}
	return in, out
}

// tapListener wraps the listener a server accepts on. shard labels its
// connections' spans; with laneByAccept the n-th accepted connection
// belongs to session n (mutate-wal dials its writer first), otherwise
// every connection belongs to lane 0.
type tapListener struct {
	net.Listener
	tap          *tap
	shard        int
	laneByAccept bool
	accepted     int
}

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tapConn{Conn: c, tap: l.tap, shard: l.shard, turn: -1}
	if l.laneByAccept {
		tc.lane = l.accepted
	}
	l.accepted++
	l.tap.mu.Lock()
	l.tap.conns = append(l.tap.conns, tc)
	l.tap.mu.Unlock()
	return tc, nil
}

// tapConn treats its connection as alternating read phase / write phase:
// the server reads one request, then writes one reply. One turnaround is
// [return of the phase's last Read, return of its last Write]. Only the
// connection's own server goroutine touches the phase fields.
type tapConn struct {
	net.Conn
	tap         *tap
	lane, shard int
	in, out     atomic.Int64

	lastRead int64 // recorder time of the last Read return
	reqBytes int64
	turn     int // span index of the current write phase; -1 in a read phase
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.in.Add(int64(n))
		if rec := c.tap.rec; rec != nil {
			if c.turn >= 0 {
				c.turn, c.reqBytes = -1, 0 // a new read phase begins
			}
			c.lastRead = rec.now()
			c.reqBytes += int64(n)
		}
	}
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	// Counted before the bytes leave: the client may read the reply, and
	// the harness the counter, before this goroutine runs again.
	c.out.Add(int64(len(p)))
	n, err := c.Conn.Write(p)
	if rec := c.tap.rec; rec != nil && n > 0 {
		c.recordWrite(rec, int64(n))
	}
	return n, err
}

func (c *tapConn) recordWrite(rec *recorder, n int64) {
	end := rec.now()
	if c.turn < 0 {
		c.turn = rec.add(lvTurn, "turnaround", c.lane, c.shard, c.lastRead, end)
		rec.mu.Lock()
		rec.spans[c.turn].In = c.reqBytes
		rec.mu.Unlock()
	}
	rec.mu.Lock()
	rec.spans[c.turn].End = end
	rec.spans[c.turn].Out += n
	rec.mu.Unlock()
}

// timedFS wraps the filesystem a tenant journals through and records one
// span per write (with its size) and per fsync. Only the writer session
// journals, so the spans belong to lane 0.
type timedFS struct {
	inner wal.FS
	rec   *recorder
}

func (t *timedFS) OpenFile(name string, flag int, perm fs.FileMode) (wal.File, error) {
	f, err := t.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, rec: t.rec}, nil
}
func (t *timedFS) MkdirAll(dir string, perm fs.FileMode) error { return t.inner.MkdirAll(dir, perm) }
func (t *timedFS) Rename(oldpath, newpath string) error        { return t.inner.Rename(oldpath, newpath) }
func (t *timedFS) Remove(name string) error                    { return t.inner.Remove(name) }

type timedFile struct {
	wal.File
	rec *recorder
}

func (f *timedFile) WriteAt(p []byte, off int64) (int, error) {
	start := f.rec.now()
	n, err := f.File.WriteAt(p, off)
	id := f.rec.add(lvWAL, "write", 0, 0, start, f.rec.now())
	f.rec.mu.Lock()
	f.rec.spans[id].Out = int64(n)
	f.rec.mu.Unlock()
	return n, err
}

func (f *timedFile) Sync() error {
	start := f.rec.now()
	err := f.File.Sync()
	f.rec.add(lvWAL, "fsync", 0, 0, start, f.rec.now())
	return err
}
