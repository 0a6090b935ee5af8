package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"encshare"
	"encshare/internal/minisql"
	"encshare/internal/store"
	"encshare/internal/xmark"
	"encshare/internal/xmldoc"
	"encshare/internal/xpath"
)

var params = encshare.Params{P: 83}

// scratchRoot holds everything a run writes: WAL directories here, the
// build outputs of run.sh beside them. It is relative to the working
// directory, which the launcher makes the checkout root.
const scratchRoot = ".bench_build"

var dbSeq atomic.Int64

func freshDBName(w workload) string {
	return fmt.Sprintf("bench-%s-%d", w.name, dbSeq.Add(1))
}

// inputs is everything generated from (workload, seed) that the program
// under test is given, plus the answers it is checked against.
type inputs struct {
	w   workload
	xml []byte
	// xmlBytes and nodes size the document; times are the set-up timers
	// of the stack built from these inputs.
	xmlBytes int64
	nodes    int64
	times    phaseTimes
	keys     *encshare.Keys
	// start is the seeded rotation of the op list.
	start int

	// exact and contain are the oracle's answers per query, under the
	// strict and the containment rule.
	exact, contain map[string][]int64
	// editParent is mutate-wal's insert target and editTail the pre its
	// new last child lands on.
	editParent, editTail int64
}

// phaseTimes are the set-up timers. setupS sums the phases the
// end-to-end metric names: generate + keygen + encode + shard/load +
// serve + dial.
type phaseTimes struct {
	generate, keygen, encode, load, serve, dial time.Duration
}

func (p phaseTimes) setupS() float64 {
	return (p.generate + p.keygen + p.encode + p.load + p.serve + p.dial).Seconds()
}

// keySeed derives the 32-byte PRG seed of the client's keys from -seed.
func keySeed(seed int64) []byte {
	sum := sha256.Sum256([]byte(fmt.Sprintf("encshare-bench-key-%d", seed)))
	return sum[:]
}

// generate builds the workload's document and key material. The document
// tree is returned for the oracle and is not kept in the inputs.
func generate(w workload, seed int64, times *phaseTimes) (*inputs, *xmldoc.Doc, error) {
	t0 := time.Now()
	doc := xmark.Generate(xmark.Config{Scale: w.scale, Seed: w.docSeed})
	var xml bytes.Buffer
	if err := doc.WriteXML(&xml); err != nil {
		return nil, nil, err
	}
	times.generate = time.Since(t0)

	t0 = time.Now()
	gen, err := encshare.GenerateKeys(params, doc.Names())
	if err != nil {
		return nil, nil, err
	}
	var mapFile bytes.Buffer
	if err := gen.SaveMap(&mapFile); err != nil {
		return nil, nil, err
	}
	keys, err := encshare.LoadKeys(params, keySeed(seed), &mapFile)
	if err != nil {
		return nil, nil, err
	}
	times.keygen = time.Since(t0)

	rng := rand.New(rand.NewSource(seed))
	return &inputs{w: w, xml: xml.Bytes(), xmlBytes: int64(xml.Len()), nodes: doc.Count, keys: keys,
		start: rng.Intn(w.cycle())}, doc, nil
}

// expect fills in the oracle's answers and, for mutate-wal, picks the
// edit target: a person element (they all follow the regions section, so
// an edit below one never renumbers the reader's answer). An edit ships
// one share delta per row behind it, so its cost follows its position;
// the target is therefore the workload's, not the seed's: the middle one
// of the persons with the most common child count.
func (in *inputs) expect(doc *xmldoc.Doc) error {
	oracle := xpath.NewOracle(doc)
	in.exact, in.contain = map[string][]int64{}, map[string][]int64{}
	queries := in.w.queries
	if in.w.wal {
		queries = []string{readerQuery}
	}
	for _, qs := range queries {
		q, err := xpath.Parse(qs)
		if err != nil {
			return err
		}
		in.exact[qs] = xpath.Pres(oracle.Eval(q, xpath.MatchEqual))
		in.contain[qs] = xpath.Pres(oracle.Eval(q, xpath.MatchContain))
		if len(in.exact[qs]) == 0 {
			return fmt.Errorf("%s: query %s has no answers on this document", in.w.name, qs)
		}
	}
	if !in.w.wal {
		return nil
	}
	persons := oracle.Eval(xpath.MustParse("/site/people/person"), xpath.MatchEqual)
	byKids := map[int][]*xmldoc.Node{}
	mode := -1
	for _, p := range persons {
		k := len(p.Children)
		byKids[k] = append(byKids[k], p)
		if mode < 0 || len(byKids[k]) > len(byKids[mode]) || (len(byKids[k]) == len(byKids[mode]) && k < mode) {
			mode = k
		}
	}
	if mode < 0 {
		return errors.New("mutate-wal: document has no person element")
	}
	p := byKids[mode][len(byKids[mode])/2]
	in.editParent = p.Pre
	in.editTail = p.Pre + p.Size() + 1
	if last := in.exact[readerQuery]; last[len(last)-1] >= in.editParent {
		return errors.New("mutate-wal: edit target precedes the reader's answer")
	}
	return nil
}

// publicStack is a served database and its sessions, assembled only from
// the public encshare API over loopback TCP: the end-to-end numbers'
// system under test.
type publicStack struct {
	dbs      []*encshare.Database
	tap      *tap
	lns      []net.Listener
	served   sync.WaitGroup
	serveErr []error
	sessions []*encshare.Session
	walDir   string

	storedBytes int64
	times       phaseTimes
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// buildPublic encodes the document, shards it when the workload is a
// cluster, serves every database and dials the sessions.
func buildPublic(in *inputs, times phaseTimes) (_ *publicStack, err error) {
	w := in.w
	s := &publicStack{tap: &tap{}, times: times}
	defer func() {
		if err != nil {
			s.close()
		}
	}()

	t0 := time.Now()
	full, err := encshare.CreateDatabase(freshDBName(w))
	if err != nil {
		return nil, err
	}
	s.dbs = []*encshare.Database{full}
	if _, err := full.EncodeXML(in.keys, bytes.NewReader(in.xml)); err != nil {
		return nil, err
	}
	s.times.encode = time.Since(t0)

	// Not a set-up phase: the dump only measures the table's size.
	var cw countingWriter
	if err := full.DumpTo(&cw); err != nil {
		return nil, err
	}
	s.storedBytes = cw.n

	if w.shards > 1 {
		t0 = time.Now()
		plan, err := full.ShardPlan(w.shards)
		if err != nil {
			return nil, err
		}
		shards := make([]*encshare.Database, 0, len(plan))
		for _, r := range plan {
			var buf bytes.Buffer
			if err := full.DumpShard(&buf, r); err != nil {
				return nil, err
			}
			db, err := encshare.CreateDatabase(freshDBName(w))
			if err != nil {
				return nil, err
			}
			shards = append(shards, db)
			s.dbs = append(s.dbs, db)
			if err := db.LoadFrom(&buf); err != nil {
				return nil, err
			}
		}
		full.Close()
		s.dbs = shards
		s.times.load = time.Since(t0)
	}

	t0 = time.Now()
	cfg := encshare.ServeConfig{}
	if w.wal {
		if s.walDir, err = makeScratchDir("wal"); err != nil {
			return nil, err
		}
		cfg.WALDir = s.walDir
	}
	s.serveErr = make([]error, len(s.dbs))
	addrs := make([]string, len(s.dbs))
	for i, db := range s.dbs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s.lns = append(s.lns, l)
		addrs[i] = l.Addr().String()
		tl := &tapListener{Listener: l, tap: s.tap, shard: i, laneByAccept: w.wal}
		s.served.Add(1)
		go func(i int, db *encshare.Database) {
			defer s.served.Done()
			s.serveErr[i] = db.ServeWith(tl, params, cfg)
		}(i, db)
	}
	s.times.serve = time.Since(t0)

	t0 = time.Now()
	nSessions := 1
	if w.wal {
		nSessions = 2 // the writer dials first: it is lane 0 of the tap
	}
	for i := 0; i < nSessions; i++ {
		sess, err := encshare.DialCluster(in.keys, addrs)
		if err != nil {
			return nil, err
		}
		s.sessions = append(s.sessions, sess)
	}
	s.times.dial = time.Since(t0)
	return s, nil
}

// dumps returns each served database's table, for the traced stack.
func (s *publicStack) dumps() ([][]byte, error) {
	out := make([][]byte, len(s.dbs))
	for i, db := range s.dbs {
		var buf bytes.Buffer
		if err := db.DumpTo(&buf); err != nil {
			return nil, err
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}

// close stops every server and waits for it, then drops the tables.
func (s *publicStack) close() error {
	for _, sess := range s.sessions {
		sess.Close()
	}
	for _, l := range s.lns {
		l.Close()
	}
	s.served.Wait()
	for _, db := range s.dbs {
		db.Close()
	}
	if s.walDir != "" {
		os.RemoveAll(s.walDir)
	}
	return errors.Join(s.serveErr...)
}

func makeScratchDir(prefix string) (string, error) {
	root := filepath.Join(scratchRoot, "run")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, prefix+"-")
}

// rowsDigest is the SHA-256 of a table's live rows in pre order. A dump
// is page images, in which an insert and a delete leave a dead slot
// behind, so "the same table" is a statement about rows, not pages.
func rowsDigest(st *store.Store) (string, error) {
	lo, hi, err := st.MinMaxPre()
	if err != nil {
		return "", err
	}
	rows, err := st.Range(lo, hi)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	var num [32]byte
	for _, r := range rows {
		binary.LittleEndian.PutUint64(num[0:], uint64(r.Pre))
		binary.LittleEndian.PutUint64(num[8:], uint64(r.Post))
		binary.LittleEndian.PutUint64(num[16:], uint64(r.Parent))
		binary.LittleEndian.PutUint64(num[24:], uint64(len(r.Poly)))
		h.Write(num[:])
		h.Write(r.Poly)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// tableDigest is the rowsDigest of a served database, read the only way
// the public API offers: through its dump.
func tableDigest(db *encshare.Database) (string, error) {
	var dump bytes.Buffer
	if err := db.DumpTo(&dump); err != nil {
		return "", err
	}
	dsn := minisql.FreshDSN()
	defer minisql.Drop(dsn)
	st, err := store.OpenWith(dsn, store.Options{})
	if err != nil {
		return "", err
	}
	defer st.Close()
	if err := st.Load(&dump); err != nil {
		return "", err
	}
	return rowsDigest(st)
}
