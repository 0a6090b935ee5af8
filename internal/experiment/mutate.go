package experiment

import (
	"bytes"
	"fmt"
	"io/fs"
	"net"
	"os"
	"sync"
	"time"

	"encshare"
	"encshare/internal/server"
	"encshare/internal/store"
	"encshare/internal/wal"
	"encshare/internal/xmark"
)

// slowSyncDelay is the simulated fdatasync latency of the group-commit
// arms. Benchmark temp directories often sit on tmpfs or fast NVMe
// where fsync returns in microseconds — faster than a session can plan
// its next batch, so commits never overlap and there is nothing to
// coalesce. Ten milliseconds is a spinning disk's sync cost — the
// regime group commit was invented for; both arms pay the same delay,
// so the comparison isolates the batching.
const slowSyncDelay = 10 * time.Millisecond

// slowFS wraps the real filesystem, adding slowSyncDelay to every
// file Sync.
type slowFS struct{ inner wal.FS }

func (s slowFS) OpenFile(name string, flag int, perm fs.FileMode) (wal.File, error) {
	f, err := s.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return slowFile{f}, nil
}
func (s slowFS) MkdirAll(dir string, perm fs.FileMode) error { return s.inner.MkdirAll(dir, perm) }
func (s slowFS) Rename(oldpath, newpath string) error        { return s.inner.Rename(oldpath, newpath) }
func (s slowFS) Remove(name string) error                    { return s.inner.Remove(name) }

type slowFile struct{ wal.File }

func (f slowFile) Sync() error {
	time.Sleep(slowSyncDelay)
	return f.File.Sync()
}

// MutateConfig sizes the mutation benchmark. The zero value picks the
// small CI-friendly configuration.
type MutateConfig struct {
	Ops   int     // timed iterations per operation class (default 12)
	Scale float64 // XMark scale of the benchmarked document (default 0.05)
	Seed  int64
}

func (c MutateConfig) withDefaults() MutateConfig {
	if c.Ops <= 0 {
		c.Ops = 12
	}
	if c.Scale <= 0 {
		c.Scale = 0.05
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// mutateClasses are the measured operation classes, in display order.
var mutateClasses = []string{
	"append leaf (root child)",
	"rename node",
	"insert+delete (mid-document)",
}

// newMutateDB encodes a fresh XMark document through the public API —
// the same path a client application takes — so every arm starts from
// an identical table.
func newMutateDB(cfg MutateConfig) (*encshare.Keys, *encshare.Database, error) {
	doc := xmark.Generate(xmark.Config{Scale: cfg.Scale, Seed: cfg.Seed})
	keys, err := encshare.GenerateKeys(encshare.Params{P: 83}, doc.Names())
	if err != nil {
		return nil, nil, err
	}
	db, err := encshare.CreateDatabase(store.FreshDSN())
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := doc.WriteXML(&buf); err != nil {
		db.Close()
		return nil, nil, err
	}
	if _, err := db.EncodeXML(keys, &buf); err != nil {
		db.Close()
		return nil, nil, err
	}
	return keys, db, nil
}

// pickMidPre returns the middle pre of the first query with results.
func pickMidPre(s *encshare.Session, queries ...string) (int64, error) {
	for _, q := range queries {
		res, err := s.Query(q)
		if err != nil {
			return 0, err
		}
		if len(res.Pres) > 0 {
			return res.Pres[len(res.Pres)/2], nil
		}
	}
	return 0, fmt.Errorf("no results for any of %v", queries)
}

// mutateScript runs the timed mutation mix through one session. Every
// class leaves earlier pres stable (root appends land at the tail; the
// mid-document insert is immediately deleted), so the targets picked up
// front stay valid and every arm executes the identical edit sequence.
func mutateScript(s *encshare.Session, ops int) (map[string][]time.Duration, error) {
	renamePre, err := pickMidPre(s, "//city", "//date", "//name")
	if err != nil {
		return nil, err
	}
	midParent, err := pickMidPre(s, "//person", "//item")
	if err != nil {
		return nil, err
	}
	names := [2]string{"date", "city"}
	res := map[string][]time.Duration{}
	for i := 0; i < ops; i++ {
		start := time.Now()
		if _, err := s.Insert(1, "item"); err != nil {
			return nil, fmt.Errorf("append %d: %w", i, err)
		}
		res[mutateClasses[0]] = append(res[mutateClasses[0]], time.Since(start))

		start = time.Now()
		if err := s.Update(renamePre, names[i%2]); err != nil {
			return nil, fmt.Errorf("rename %d: %w", i, err)
		}
		res[mutateClasses[1]] = append(res[mutateClasses[1]], time.Since(start))

		start = time.Now()
		pre, err := s.Insert(midParent, "item")
		if err != nil {
			return nil, fmt.Errorf("mid insert %d: %w", i, err)
		}
		if err := s.Delete(pre); err != nil {
			return nil, fmt.Errorf("mid delete %d: %w", i, err)
		}
		res[mutateClasses[2]] = append(res[mutateClasses[2]], time.Since(start))
	}
	return res, nil
}

// mutateArmLocal times the script against an in-process session: pure
// planner + apply cost, no wire, no journal.
func mutateArmLocal(cfg MutateConfig) (map[string][]time.Duration, error) {
	keys, db, err := newMutateDB(cfg)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	s := encshare.OpenLocal(keys, db)
	defer s.Close()
	return mutateScript(s, cfg.Ops)
}

// mutateArmTCP times the script over a loopback TCP server. An empty
// walDir serves from memory; otherwise every batch journals to
// walDir/wal.log before applying — the durable configuration.
func mutateArmTCP(cfg MutateConfig, walDir string) (map[string][]time.Duration, error) {
	keys, db, err := newMutateDB(cfg)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer l.Close()
	go db.ServeWith(l, keys.Params(), encshare.ServeConfig{WALDir: walDir})
	s, err := encshare.Dial(keys, l.Addr().String())
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return mutateScript(s, cfg.Ops)
}

// mutateConcurrentArm hammers one WAL-backed TCP server with `sessions`
// concurrent writer sessions, each appending `ops` leaves under the
// root, and returns the wall-clock of the whole hammer plus the
// server's durability counters. perAppendSync false is the default
// group-commit configuration (concurrent batches coalesce under one
// commit leader into fewer fdatasyncs); true forces one fdatasync per
// journaled batch — the baseline the coalescing is measured against.
func mutateConcurrentArm(cfg MutateConfig, sessions int, perAppendSync bool) (time.Duration, server.TenantWAL, error) {
	var tw server.TenantWAL
	keys, db, err := newMutateDB(cfg)
	if err != nil {
		return 0, tw, err
	}
	defer db.Close()
	walDir, err := os.MkdirTemp("", "encshare-mutate-gc")
	if err != nil {
		return 0, tw, err
	}
	defer os.RemoveAll(walDir)

	// The runtime is driven directly (not through Database.Serve) so the
	// arm can flip WALPerAppendSync and read the append/fsync counters.
	dsn := store.FreshDSN()
	st, err := store.Open(dsn)
	if err != nil {
		return 0, tw, err
	}
	defer func() { st.Close(); store.Drop(dsn) }()
	if err := st.Init(); err != nil {
		return 0, tw, err
	}
	var dump bytes.Buffer
	if err := db.DumpTo(&dump); err != nil {
		return 0, tw, err
	}
	if err := st.Load(&dump); err != nil {
		return 0, tw, err
	}
	params := keys.Params()
	rt := server.New(server.Config{})
	if err := rt.AttachStore(server.Tenant{P: params.P, E: params.E, WALDir: walDir, FS: slowFS{wal.OS}, WALPerAppendSync: perAppendSync}, st); err != nil {
		return 0, tw, err
	}
	defer rt.Shutdown()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, tw, err
	}
	defer l.Close()
	go rt.Serve(l)

	ss := make([]*encshare.Session, sessions)
	for i := range ss {
		if ss[i], err = encshare.Dial(keys, l.Addr().String()); err != nil {
			return 0, tw, err
		}
		defer ss[i].Close()
	}
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	start := time.Now()
	for i, s := range ss {
		wg.Add(1)
		go func(i int, s *encshare.Session) {
			defer wg.Done()
			for j := 0; j < cfg.Ops; j++ {
				if _, err := s.Insert(1, "item"); err != nil {
					errs[i] = fmt.Errorf("session %d append %d: %w", i, j, err)
					return
				}
			}
		}(i, s)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, tw, err
		}
	}
	return elapsed, rt.WALStats()[""], nil
}

func meanMS(ds []time.Duration) string {
	if len(ds) == 0 {
		return "-"
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return ms(sum / time.Duration(len(ds)))
}

// Mutate is the mutation-throughput benchmark: the same timed edit mix
// — tail appends, renames, and a mid-document insert+delete pair whose
// shifts touch ~half the table — against three deployments of an
// identical XMark table: in-process, loopback TCP, and loopback TCP
// with a write-ahead log. The spread between columns is what the wire
// and the journal each cost on the write path.
func Mutate(cfg MutateConfig) (*Table, error) {
	cfg = cfg.withDefaults()
	walDir, err := os.MkdirTemp("", "encshare-mutate-wal")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walDir)

	local, err := mutateArmLocal(cfg)
	if err != nil {
		return nil, fmt.Errorf("mutate (local): %w", err)
	}
	tcp, err := mutateArmTCP(cfg, "")
	if err != nil {
		return nil, fmt.Errorf("mutate (tcp): %w", err)
	}
	wal, err := mutateArmTCP(cfg, walDir)
	if err != nil {
		return nil, fmt.Errorf("mutate (tcp+wal): %w", err)
	}

	// Group-commit arms: the same append hammer from 8 concurrent
	// sessions, once with commit coalescing (the default) and once with
	// one fdatasync forced per journaled batch.
	const gcSessions = 8
	gcTime, gcStats, err := mutateConcurrentArm(cfg, gcSessions, false)
	if err != nil {
		return nil, fmt.Errorf("mutate (group commit): %w", err)
	}
	paTime, paStats, err := mutateConcurrentArm(cfg, gcSessions, true)
	if err != nil {
		return nil, fmt.Errorf("mutate (per-append fsync): %w", err)
	}

	t := &Table{
		Title:  "Mutation cost by operation class and deployment (mean ms/op)",
		Header: []string{"operation", "ops", "local", "tcp", "tcp+wal"},
		Notes: []string{
			fmt.Sprintf("XMark scale %.2f, seed %d; identical edit sequence per arm", cfg.Scale, cfg.Seed),
			"append rebuilds only the root factor; the mid-document pair renumbers every row past the insertion point",
			"tcp+wal journals each batch to wal.log and fdatasyncs it before acking; concurrent batches coalesce under one commit leader (group commit)",
			fmt.Sprintf("group-commit arms simulate a %v fdatasync (fast tmp filesystems hide the batching); %d sessions, group commit: %d appends over %d fdatasyncs (%.1f appends/sync); per-append baseline: %d appends over %d fdatasyncs",
				slowSyncDelay, gcSessions, gcStats.Appends, gcStats.Syncs, ratio(gcStats.Appends, gcStats.Syncs), paStats.Appends, paStats.Syncs),
		},
	}
	for _, class := range mutateClasses {
		t.Rows = append(t.Rows, []string{
			class, fmt.Sprintf("%d", len(local[class])),
			meanMS(local[class]), meanMS(tcp[class]), meanMS(wal[class]),
		})
	}
	gcOps := gcSessions * cfg.Ops
	t.Rows = append(t.Rows,
		[]string{fmt.Sprintf("append ×%d sessions (group commit)", gcSessions),
			fmt.Sprintf("%d", gcOps), "-", "-", meanMS([]time.Duration{gcTime / time.Duration(gcOps)})},
		[]string{fmt.Sprintf("append ×%d sessions (fsync per append)", gcSessions),
			fmt.Sprintf("%d", gcOps), "-", "-", meanMS([]time.Duration{paTime / time.Duration(gcOps)})},
	)
	return t, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
