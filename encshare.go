// Package encshare is a from-scratch implementation of the encrypted XML
// database of Brinkman, Schoenmakers, Doumen and Jonker, "Experiments
// with Queries over Encrypted Data Using Secret Sharing" (SDM 2005).
//
// An XML document is encoded as a tree of polynomials over
// F_q[x]/(x^(q−1) − 1): every node's polynomial is (x − map(node)) times
// the product of its children's polynomials, where map is a secret
// injective assignment of tag names (and, with the trie enhancement,
// text characters) to F_q^*. Each polynomial is additively secret-shared;
// the server stores only its share in an indexed (pre, post, parent,
// poly) table, and the client keeps a PRG seed from which its share of
// any node can be regenerated. Queries run interactively: the server
// evaluates its share at the secret point, the client adds its own
// evaluation, and a zero sum reveals subtree containment — without the
// server ever learning tags, structure names, or query targets.
//
// Beyond the paper's one-exchange-per-check protocol, the engines
// default to a batched pipeline: every engine step's checks travel in a
// single length-prefixed frame and are evaluated in parallel server-side,
// so a remote query costs O(steps) round-trips instead of O(candidates) —
// predicates included, whose existence checks for the whole result
// frontier ride one shared traversal. QueryOptions.Batch selects between
// the two modes.
//
// # Quick start
//
//	keys, _ := encshare.GenerateKeys(encshare.Params{P: 83}, names)
//	db, _ := encshare.CreateDatabase("mydb")
//	db.EncodeXML(keys, xmlReader)
//	session := encshare.OpenLocal(keys, db)
//	res, _ := session.Query("/site//europe/item")
//
// See the examples directory for complete programs, DESIGN.md for the
// architecture, and EXPERIMENTS.md for the reproduction of the paper's
// evaluation.
package encshare

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"encshare/internal/cluster"
	"encshare/internal/encoder"
	"encshare/internal/engine"
	"encshare/internal/filter"
	"encshare/internal/gf"
	"encshare/internal/mapping"
	"encshare/internal/obs"
	"encshare/internal/prg"
	"encshare/internal/ring"
	"encshare/internal/rmi"
	"encshare/internal/secshare"
	"encshare/internal/server"
	"encshare/internal/store"
	"encshare/internal/trie"
	"encshare/internal/xpath"
)

// TrieMode re-exports the §4 text representation choice.
type TrieMode = trie.Mode

// Trie modes: TrieOff leaves text unsearchable (§3 tag-only scheme);
// TrieCompressed and TrieUncompressed enable content search (§4).
const (
	TrieOff          = trie.Off
	TrieCompressed   = trie.Compressed
	TrieUncompressed = trie.Uncompressed
)

// Params selects the algebraic setting. The paper's experiments use
// P=83, E=1 (77 XMark tag names fit in F_83^*).
type Params struct {
	// P is the field characteristic (prime). Required.
	P uint32
	// E is the extension degree; 0 or 1 means the prime field.
	E uint32
	// TrieMode controls §4 text indexing at encode time.
	TrieMode TrieMode
}

func (p Params) normalized() Params {
	if p.E == 0 {
		p.E = 1
	}
	return p
}

// Keys is the client's secret material: the PRG seed and the tag map.
// Whoever holds Keys can decrypt; the server never sees them.
type Keys struct {
	params Params
	seed   []byte
	m      *mapping.Map
	field  *gf.Field
	ring   *ring.Ring
}

// GenerateKeys creates fresh key material: a random seed plus a map
// covering the given name universe (tag names, and the text alphabet plus
// trie.Terminator when trie mode is on).
func GenerateKeys(params Params, names []string) (*Keys, error) {
	params = params.normalized()
	f, err := gf.New(params.P, params.E)
	if err != nil {
		return nil, err
	}
	r, err := ring.New(f)
	if err != nil {
		return nil, err
	}
	m, err := mapping.Generate(f, names)
	if err != nil {
		return nil, err
	}
	_, seed, err := prg.NewRandom()
	if err != nil {
		return nil, err
	}
	return &Keys{params: params, seed: seed, m: m, field: f, ring: r}, nil
}

// LoadKeys reconstructs key material from a saved seed and map file.
func LoadKeys(params Params, seed []byte, mapFile io.Reader) (*Keys, error) {
	params = params.normalized()
	if len(seed) == 0 {
		return nil, fmt.Errorf("encshare: empty seed")
	}
	f, err := gf.New(params.P, params.E)
	if err != nil {
		return nil, err
	}
	r, err := ring.New(f)
	if err != nil {
		return nil, err
	}
	m, err := mapping.Load(f, mapFile)
	if err != nil {
		return nil, err
	}
	return &Keys{params: params, seed: append([]byte(nil), seed...), m: m, field: f, ring: r}, nil
}

// Seed returns the secret seed (for persisting to a seed file).
func (k *Keys) Seed() []byte { return append([]byte(nil), k.seed...) }

// SaveMap writes the map file ("name = value" lines).
func (k *Keys) SaveMap(w io.Writer) error { return k.m.Save(w) }

// Params returns the algebraic parameters the keys were generated for.
func (k *Keys) Params() Params { return k.params }

// PolyBytes returns the per-node storage cost in bytes.
func (k *Keys) PolyBytes() int { return k.ring.PolyBytes() }

func (k *Keys) scheme() *secshare.Scheme {
	return secshare.New(k.ring, prg.New(k.seed))
}

// Database is the server-side handle: the indexed share table.
type Database struct {
	st  *store.Store
	dsn string
}

// CreateDatabase creates a fresh named database with the nodes schema.
func CreateDatabase(name string) (*Database, error) {
	st, err := store.Open(name)
	if err != nil {
		return nil, err
	}
	if err := st.Init(); err != nil {
		st.Close()
		return nil, err
	}
	return &Database{st: st, dsn: name}, nil
}

// OpenDatabase attaches to an existing named database (e.g. one
// populated by LoadFrom).
func OpenDatabase(name string) (*Database, error) {
	st, err := store.Open(name)
	if err != nil {
		return nil, err
	}
	if err := st.Attach(); err != nil {
		st.Close()
		return nil, err
	}
	return &Database{st: st, dsn: name}, nil
}

// EncodeStats re-exports the encoder's output metrics.
type EncodeStats = encoder.Stats

// EncodeXML encodes a plaintext XML document into the database using the
// given keys — the MySQLEncode step. Requires keys whose map covers every
// tag (and character, in trie mode) in the document.
func (db *Database) EncodeXML(keys *Keys, src io.Reader) (EncodeStats, error) {
	return encoder.EncodeStream(src, encoder.Options{
		Map:      keys.m,
		Scheme:   keys.scheme(),
		TrieMode: keys.params.TrieMode,
	}, db.st)
}

// NodeCount returns the number of stored (encrypted) nodes.
func (db *Database) NodeCount() (int64, error) { return db.st.Count() }

// DumpTo persists the database to a writer (see cmd/encshare-encode).
func (db *Database) DumpTo(w io.Writer) error { return db.st.Dump(w) }

// ShardRange is one shard's contiguous, inclusive pre interval.
type ShardRange = cluster.Range

// ShardPlan cuts the database into n contiguous pre ranges of
// near-equal size — the partition DumpShard and a shard manifest are
// built from. Safe because every share row is independently uniformly
// random: a shard holding a slice learns nothing a whole-table server
// would not (see DESIGN.md).
func (db *Database) ShardPlan(n int) ([]ShardRange, error) {
	lo, hi, err := db.st.MinMaxPre()
	if err != nil {
		return nil, err
	}
	return cluster.PartitionEven(lo, hi, n)
}

// DumpShard writes the rows with pre in r to w as a standalone database
// file: encshare-server loads it exactly like a full DumpTo file and
// serves it as one cluster shard.
func (db *Database) DumpShard(w io.Writer, r ShardRange) error {
	tmp, dsn, err := db.st.CopyRange(r.Lo, r.Hi)
	if err != nil {
		return err
	}
	defer func() {
		tmp.Close()
		store.Drop(dsn)
	}()
	return tmp.Dump(w)
}

// LoadFrom restores a database previously written by DumpTo.
func (db *Database) LoadFrom(r io.Reader) error { return db.st.Load(r) }

// Close releases the handle and drops the in-memory data.
func (db *Database) Close() error {
	err := db.st.Close()
	store.Drop(db.dsn)
	return err
}

// ServeConfig configures the served tenant for ServeWith.
type ServeConfig struct {
	// WALDir, when set, journals every applied mutation batch to
	// WALDir/wal.log before it touches the table, and recovers
	// snapshot + log state on a later restart (see server.Tenant).
	// Empty means mutations are accepted but die with the process.
	WALDir string
}

// Serve exposes the database's ServerFilter over the RMI protocol until
// the listener closes, without a write-ahead log. The params must match
// the keys used at encode time (the server needs the ring dimensions,
// not the secrets).
func (db *Database) Serve(l net.Listener, params Params) error {
	return db.ServeWith(l, params, ServeConfig{})
}

// ServeWith is Serve with an explicit configuration. The served
// endpoint speaks both the per-call filter protocol and the
// batched protocol (one frame per engine step). The accept/dispatch
// loop is the multi-tenant runtime's (internal/server) hosting this
// database as its sole, unnamed tenant — a process that needs several
// tenants runs the runtime directly (see cmd/encshare-server).
func (db *Database) ServeWith(l net.Listener, params Params, cfg ServeConfig) error {
	params = params.normalized()
	rt := server.New(server.Config{})
	err := rt.AttachStore(server.Tenant{P: params.P, E: params.E, WALDir: cfg.WALDir}, db.st)
	if err != nil {
		return err
	}
	return rt.Serve(l)
}

// EngineKind selects the query strategy of §5.3.
type EngineKind int

const (
	// Advanced is the look-ahead engine (the paper's overall winner).
	Advanced EngineKind = iota
	// Simple is the stepwise engine.
	Simple
)

// TestKind selects the matching rule of §6.3.
type TestKind int

const (
	// TestExact uses the equality test: results are exactly the XPath
	// answer (the paper's "strict checking", its overall recommendation).
	TestExact TestKind = iota
	// TestContainment uses the cheap containment test: one evaluation per
	// check, but results may include ancestors of true matches (§6.3's
	// accuracy trade-off, Fig. 7).
	TestContainment
)

// BatchMode selects how the engines talk to the server (§5.2 protocol
// vs. the batched pipeline).
type BatchMode int

const (
	// Batched aggregates every engine step's checks into one server
	// exchange, evaluated in parallel server-side (the default). A remote
	// query costs O(steps) round-trips instead of O(candidates).
	Batched BatchMode = iota
	// PerCall issues one server exchange per check, as the paper's
	// prototype did. Kept for measurement: it is the protocol Fig. 5/6
	// count.
	PerCall
)

// QueryOptions tune one query execution. The zero value — advanced
// engine, exact results, batched protocol — is the recommended
// configuration.
type QueryOptions struct {
	// Engine selects the strategy (default Advanced).
	Engine EngineKind
	// Test selects the matching rule (default TestExact).
	Test TestKind
	// Batch selects the wire protocol (default Batched).
	Batch BatchMode
}

// Stats re-exports per-query work metrics.
type Stats = engine.Stats

// ServerStats re-exports the server-side work counters: share
// evaluations, decoded-polynomial cache hits/misses, and blob decodes.
type ServerStats = filter.ServerStats

// Result is a query answer: pre positions of matching nodes in document
// order, plus the work performed.
type Result struct {
	Pres  []int64
	Stats Stats
}

// Session is the client side: key material bound to a server connection
// (local, remote, or a sharded cluster).
type Session struct {
	keys            *Keys
	cli             *filter.Client
	simple          *engine.Simple
	advanced        *engine.Advanced
	simplePerCall   *engine.Simple
	advancedPerCall *engine.Advanced
	rmiCli          *rmi.Client
	remote          *filter.Remote  // non-nil for single-server sessions
	shardF          *cluster.Filter // non-nil for cluster sessions
	writer          filter.LeaseAPI // single-server and local sessions: the leased write path
	scheme          *secshare.Scheme
	tenant          string
	addr            string
	closer          io.Closer

	// Write state (see mutateWithRetry), guarded by mutMu.
	mutMu    sync.Mutex    // serializes this session's mutations
	writerID string        // random owner ID presented with lease requests
	leaseTTL time.Duration // 0 = filter.DefaultLeaseTTL

	testHookAfterPlan func() // chaos tests: runs between plan and apply

	tracer    *obs.Tracer
	traceMu   sync.Mutex
	lastTrace *Trace
}

// OpenLocal starts a session against an in-process database (client and
// server roles in one process; the trust split is still enforced by the
// ServerAPI boundary).
func OpenLocal(keys *Keys, db *Database) *Session {
	mut := filter.NewMutable(filter.NewServerFilter(db.st, keys.ring, server.DefaultCacheEntries), 0, nil, nil)
	s := newSession(keys, mut, nil)
	s.writer = mut
	return s
}

// Dial starts a session against a remote encshare server built from the
// same module: the rmi frame version is the only compatibility check.
func Dial(keys *Keys, addr string) (*Session, error) {
	return DialWith(keys, addr, DialOptions{})
}

// DialOptions tunes a single-server session.
type DialOptions struct {
	// Tenant names the tenant to query on a multi-tenant server. Empty
	// routes to the server's default tenant. A named tenant is verified
	// at dial time: a server that does not host it fails the dial
	// instead of silently answering from the wrong table.
	Tenant string
}

// DialWith is Dial with an explicit tenant.
func DialWith(keys *Keys, addr string, opts DialOptions) (*Session, error) {
	cli, err := rmi.Dial(addr)
	if err != nil {
		return nil, err
	}
	if opts.Tenant != "" {
		cli.SetTenant(opts.Tenant)
		if _, err := server.ResolveTenant(cli); err != nil {
			cli.Close()
			return nil, err
		}
	}
	rem := filter.NewRemote(cli)
	s := newSession(keys, rem, cli)
	s.rmiCli = cli
	s.remote = rem
	s.writer = rem
	s.tenant = opts.Tenant
	s.addr = addr
	// Best-effort epoch pin: a mutation-capable server fences this
	// session's reads from the first frame; a read-only server just
	// leaves the session unpinned.
	if info, err := rem.Epoch(); err == nil {
		cli.SetEpoch(info.Epoch)
	}
	return s, nil
}

// ClusterOptions tunes how a cluster session routes frames over shard
// replicas.
type ClusterOptions struct {
	// Hedge enables hedged reads: a per-shard frame still unanswered
	// after the hedge delay is duplicated on a second replica of that
	// shard, first reply wins. Shares are immutable, so duplicated reads
	// are always consistent.
	Hedge bool
	// TolerateUnreachable lets the dial succeed while some listed
	// servers are down, as long as the reachable ones still cover the
	// whole table — so sessions can start during a replica outage.
	TolerateUnreachable bool
	// Tenant names the tenant to query on multi-tenant servers (see
	// DialOptions.Tenant).
	Tenant string
}

// DialCluster starts a session against a sharded deployment: one
// encshare-server per address, each holding a contiguous pre slice of
// the encrypted node table (see Database.DumpShard). The servers are
// asked for their ranges at dial time, so no manifest travels to the
// query side; servers reporting the same range are replicas of one
// shard and form a failover group (the address list is flat — shards
// and replicas in any order). Engines and the batched pipeline run
// unchanged; every batched engine step costs at most one exchange per
// shard, issued concurrently, and a replica that dies mid-query is
// retried transparently on its siblings (see Session.Failovers). A
// server that is unreachable or reports a range that does not tile with
// the others fails the dial with an error naming it.
func DialCluster(keys *Keys, addrs []string) (*Session, error) {
	return DialClusterWith(keys, addrs, ClusterOptions{})
}

// DialClusterWith is DialCluster with explicit replica-routing options.
func DialClusterWith(keys *Keys, addrs []string, opts ClusterOptions) (*Session, error) {
	if len(addrs) == 1 {
		return DialWith(keys, addrs[0], DialOptions{Tenant: opts.Tenant})
	}
	f, err := cluster.DialWith(addrs, cluster.Options{
		Hedge:               opts.Hedge,
		TolerateUnreachable: opts.TolerateUnreachable,
		Tenant:              opts.Tenant,
	})
	if err != nil {
		return nil, err
	}
	s := newSession(keys, f, f)
	s.shardF = f
	s.tenant = opts.Tenant
	return s, nil
}

func newSession(keys *Keys, api filter.ServerAPI, closer io.Closer) *Session {
	sch := keys.scheme()
	cli := filter.NewClient(api, sch)
	var wid [6]byte
	_, _ = rand.Read(wid[:])
	return &Session{
		keys:            keys,
		cli:             cli,
		scheme:          sch,
		writerID:        hex.EncodeToString(wid[:]),
		simple:          engine.NewSimple(cli, keys.m),
		advanced:        engine.NewAdvanced(cli, keys.m),
		simplePerCall:   engine.NewSimplePerCall(cli, keys.m),
		advancedPerCall: engine.NewAdvancedPerCall(cli, keys.m),
		closer:          closer,
	}
}

// RoundTrips returns the number of server exchanges this session has
// issued (0 for local sessions, which do not cross a network boundary).
// For cluster sessions this aggregates the per-shard counters of every
// shard connection. Comparing the delta across a query run under
// Batched vs PerCall shows the round-trip reduction directly.
func (s *Session) RoundTrips() int64 {
	if s.shardF != nil {
		return s.shardF.RoundTrips()
	}
	if s.rmiCli == nil {
		return 0
	}
	return s.rmiCli.Stats().Calls
}

// ShardRoundTrips returns the per-shard exchange counters of a cluster
// session, in shard (pre-range) order; nil for non-cluster sessions.
func (s *Session) ShardRoundTrips() []int64 {
	if s.shardF == nil {
		return nil
	}
	return s.shardF.ShardRoundTrips()
}

// Shards returns the number of shards behind this session (0 for local
// and single-server sessions).
func (s *Session) Shards() int {
	if s.shardF == nil {
		return 0
	}
	return s.shardF.Shards()
}

// Replicas returns the per-shard replica counts of a cluster session,
// in shard order; nil for non-cluster sessions.
func (s *Session) Replicas() []int {
	if s.shardF == nil {
		return nil
	}
	return s.shardF.Replicas()
}

// Tenant returns the tenant this session was dialed for ("" for local
// sessions and for sessions on a server's default tenant).
func (s *Session) Tenant() string { return s.tenant }

// AddReplica joins a freshly provisioned server to this live cluster
// session: the server is dialed (under the session's tenant, if any),
// asked for its pre range, and added to the shard group holding exactly
// that range — from then on it serves a round-robin share of that
// shard's frames, no redial needed. Returns the shard index joined.
// Fails for local and single-server sessions, and for servers whose
// range matches no existing shard group (only byte-identical replicas
// can join live; re-sharding is a different operation).
func (s *Session) AddReplica(addr string) (int, error) {
	if s.shardF == nil {
		return 0, fmt.Errorf("encshare: AddReplica requires a cluster session (DialCluster)")
	}
	return s.shardF.AddReplica(addr)
}

// Failovers returns how many per-shard frames this cluster session
// retried on another replica after a transport failure — zero during
// healthy operation, and still zero client-visible errors when a
// replica dies mid-query.
func (s *Session) Failovers() int64 {
	if s.shardF == nil {
		return 0
	}
	return s.shardF.Failovers()
}

// Hedges returns how many hedged duplicate frames this cluster session
// fired (see ClusterOptions.Hedge).
func (s *Session) Hedges() int64 {
	if s.shardF == nil {
		return 0
	}
	return s.shardF.Hedges()
}

// ServerStats returns the server-side work counters behind this
// session: evaluations, decoded-polynomial cache hits/misses, and blob
// decodes. Local sessions read the in-process filter directly; remote
// sessions fetch the counters in one exchange; cluster sessions
// aggregate every reachable replica. Comparing CacheHits against
// Decodes shows directly what the decoded-polynomial cache saves.
func (s *Session) ServerStats() (ServerStats, error) {
	return s.cli.ServerStats()
}

// Span re-exports one node of a trace tree (see Trace.Root).
type Span = obs.Span

// Trace is one traced query's record: the span tree plus the counter
// deltas of its capture window. The window opens after the
// before-stats fetch and closes before the after-stats fetch, so the
// tree's frame count equals exactly the RoundTrips delta — the
// invariant TestTraceFrameInvariant pins.
type Trace struct {
	// Query is the query (or aggregate) string traced.
	Query string
	// Root is the span tree: a query span, one step/wave span per engine
	// round, frame spans per shard exchange, event spans for
	// failovers/hedges.
	Root *Span
	// RoundTrips is how many server exchanges the window issued;
	// ShardRoundTrips splits them per shard (nil off-cluster).
	RoundTrips      int64
	ShardRoundTrips []int64
	// Failovers/Hedges are the window's replica-routing deltas.
	Failovers int64
	Hedges    int64
	// Server is the server-side work delta (evals, cache traffic,
	// decodes, aggregates) attributed to the window — best-effort, from
	// stats exchanges bracketing it.
	Server ServerStats
}

// Frames returns the number of frame spans recorded — equal to
// RoundTrips by construction.
func (t *Trace) Frames() int64 { return t.Root.Frames() }

// Render writes the trace as an indented timing report.
func (t *Trace) Render(w io.Writer) error {
	fmt.Fprintf(w, "trace %s: %d frames", t.Query, t.Frames())
	if len(t.ShardRoundTrips) > 0 {
		fmt.Fprintf(w, " over %d shards %v", len(t.ShardRoundTrips), t.ShardRoundTrips)
	}
	if t.Failovers > 0 || t.Hedges > 0 {
		fmt.Fprintf(w, ", %d failovers, %d hedges", t.Failovers, t.Hedges)
	}
	fmt.Fprintf(w, "\nserver work: %d evals, %d cache hits, %d misses, %d decodes, %d aggregates\n",
		t.Server.Evals, t.Server.CacheHits, t.Server.CacheMisses, t.Server.Decodes, t.Server.Aggregates)
	return t.Root.Fprint(w)
}

// SetTracing turns per-query tracing on or off for this session. While
// on, every Query/Aggregate call captures a span tree readable via
// Trace() right after the call. Tracing adds two stats exchanges per
// query (the before/after server-work bracket) plus the trace context
// on each frame, so it is a debugging mode, not an always-on default —
// the metrics registry is the zero-per-query-cost counterpart.
func (s *Session) SetTracing(on bool) {
	if !on {
		if s.tracer != nil {
			s.cli.SetTracer(nil)
			if s.shardF != nil {
				s.shardF.SetTracer(nil)
			}
			if s.remote != nil {
				s.remote.SetTracer(nil, 0, "")
			}
			s.tracer = nil
		}
		return
	}
	if s.tracer != nil {
		return
	}
	tr := obs.NewTracer()
	s.tracer = tr
	s.cli.SetTracer(tr)
	if s.shardF != nil {
		s.shardF.SetTracer(tr)
	}
	if s.remote != nil {
		s.remote.SetTracer(tr, 0, s.addr)
	}
}

// Trace returns the last completed query's trace, or nil when tracing
// is off (or no traced query ran yet).
func (s *Session) Trace() *Trace {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	return s.lastTrace
}

// beginTrace opens a capture window for one query and returns the
// closure that seals it. The stats exchanges bracket the window from
// the OUTSIDE — fetched before Begin and after End — which is what
// keeps the frame-count == RoundTrips-delta invariant exact.
func (s *Session) beginTrace(label string) func() {
	if s.tracer == nil {
		return func() {}
	}
	statsBefore, _ := s.ServerStats()
	rtBefore := s.RoundTrips()
	shardBefore := append([]int64(nil), s.ShardRoundTrips()...)
	failBefore, hedgeBefore := s.Failovers(), s.Hedges()
	s.tracer.Begin(label)
	return func() {
		s.tracer.End()
		rtAfter := s.RoundTrips()
		shardAfter := s.ShardRoundTrips()
		fail, hedge := s.Failovers()-failBefore, s.Hedges()-hedgeBefore
		statsAfter, _ := s.ServerStats()
		tr := &Trace{
			Query:      label,
			Root:       s.tracer.Root(),
			RoundTrips: rtAfter - rtBefore,
			Failovers:  fail,
			Hedges:     hedge,
			Server:     statsAfter.Sub(statsBefore),
		}
		if len(shardAfter) == len(shardBefore) && len(shardAfter) > 0 {
			tr.ShardRoundTrips = make([]int64, len(shardAfter))
			for i := range shardAfter {
				tr.ShardRoundTrips[i] = shardAfter[i] - shardBefore[i]
			}
		}
		s.traceMu.Lock()
		s.lastTrace = tr
		s.traceMu.Unlock()
	}
}

// Query parses and runs an XPath-subset query with default options.
func (s *Session) Query(q string) (Result, error) {
	return s.QueryWith(q, QueryOptions{})
}

// QueryWith parses and runs a query with explicit options.
func (s *Session) QueryWith(q string, opts QueryOptions) (Result, error) {
	parsed, err := xpath.Parse(q)
	if err != nil {
		return Result{}, err
	}
	// A stale-epoch fence means the session's pin fell behind a
	// mutation: re-pin to the servers' current epoch and rerun against
	// the new state. Bounded retries, because a busy enough writer can
	// outrun each rerun.
	const staleRetries = 4
	var res engine.Result
	for attempt := 0; ; attempt++ {
		endTrace := s.beginTrace(q)
		res, err = s.runQuery(parsed, opts)
		endTrace()
		if err == nil || attempt == staleRetries || !filter.IsStaleEpoch(err) || !s.refreshEpoch() {
			break
		}
	}
	if err != nil {
		return Result{}, err
	}
	return Result{Pres: res.Pres, Stats: res.Stats}, nil
}

// runQuery executes a parsed query on the engine variant opts selects.
func (s *Session) runQuery(parsed *xpath.Query, opts QueryOptions) (engine.Result, error) {
	var eng engine.Engine = s.advanced
	switch {
	case opts.Engine == Simple && opts.Batch == PerCall:
		eng = s.simplePerCall
	case opts.Engine == Simple:
		eng = s.simple
	case opts.Batch == PerCall:
		eng = s.advancedPerCall
	}
	test := engine.Equality
	if opts.Test == TestContainment {
		test = engine.Containment
	}
	return eng.Run(parsed, test)
}

// AggKind re-exports the aggregate selector (AggCount / AggSum / AggAvg).
type AggKind = filter.AggKind

// Aggregate kinds: COUNT is the exact matching-row count, SUM the
// coefficient-wise sum of the matching node polynomials over F_q, and
// AVG the SUM scaled by the inverse of COUNT mod q (derived client-side;
// undefined when q divides the count).
const (
	AggCount = filter.AggCount
	AggSum   = filter.AggSum
	AggAvg   = filter.AggAvg
)

// IntegrityError re-exports the typed verification failure an aggregate
// raises when a shard's folded reply contradicts the client's checks.
type IntegrityError = filter.IntegrityError

// AggregateOptions tunes one aggregate execution.
type AggregateOptions struct {
	// Query tunes the filtering phase (engine, test, wire mode).
	Query QueryOptions
}

// AggregateResult is an aggregate answer plus how it was computed.
type AggregateResult struct {
	Kind AggKind
	// Pres are the matching rows the aggregate folded, in document
	// order (the filtering phase's answer).
	Pres []int64
	// Count is the exact number of matching rows (every kind).
	Count int64
	// Sum is the coefficient vector of Σ f_p over the matching rows
	// (nil for AggCount).
	Sum []uint32
	// Avg is the coefficient vector of Sum · (Count mod q)⁻¹ (AggAvg
	// only).
	Avg []uint32
	// Stats covers both phases: the query's work plus the aggregation
	// phase's folds/decodes/reconstructions.
	Stats Stats
	// Verified reports that the verification share traveled and every
	// chunk passed its checks.
	Verified bool
	// Downgraded is always false: every server folds aggregates
	// server-side. It stays only because the benchmark module reads it,
	// and goes with the next change to that module.
	Downgraded bool
}

// Aggregate runs query q and folds the matching rows into the requested
// aggregate with default options. The server-side fold costs O(chunks)
// bytes per shard instead of shipping every matching row; a
// verification share guards the folded values (see AggregateWith and
// DESIGN.md "Aggregation & verification").
func (s *Session) Aggregate(q string, kind AggKind) (AggregateResult, error) {
	return s.AggregateWith(q, kind, AggregateOptions{})
}

// AggregateWith is Aggregate with explicit options.
func (s *Session) AggregateWith(q string, kind AggKind, opts AggregateOptions) (AggregateResult, error) {
	parsed, err := xpath.Parse(q)
	if err != nil {
		return AggregateResult{}, err
	}
	endTrace := s.beginTrace(fmt.Sprintf("aggregate(%s) %s", kind, q))
	defer endTrace()
	res, err := s.runQuery(parsed, opts.Query)
	if err != nil {
		return AggregateResult{}, err
	}
	var fopts filter.AggregateOptions
	// Known-root check point: every matching row's polynomial has the
	// query's last name as a root. A wildcard/parent last step (or an
	// unmappable name, which yields no rows anyway) gives the
	// verification no fixed root, so only the count checks run.
	if last := parsed.Steps[len(parsed.Steps)-1]; last.IsNameTest() {
		if v, verr := s.keys.m.Value(last.Name); verr == nil {
			fopts.CheckPoint = v
		}
	}
	before := s.cli.Counters.Snapshot()
	start := time.Now()
	agg, err := s.cli.AggregateFold(res.Pres, kind, fopts)
	if err != nil {
		return AggregateResult{}, err
	}
	d := s.cli.Counters.Snapshot().Sub(before)
	stats := res.Stats
	stats.Folds += d.Folds
	stats.Decodes += d.Decodes
	stats.Reconstructions += d.Reconstructions
	stats.NodesFetched += d.NodesFetched
	stats.Elapsed += time.Since(start)
	return AggregateResult{
		Kind:     kind,
		Pres:     res.Pres,
		Count:    agg.Count,
		Sum:      agg.Sum,
		Avg:      agg.Avg,
		Stats:    stats,
		Verified: agg.Verified,
	}, nil
}

// Close closes the underlying connection for remote sessions (no-op for
// local ones).
func (s *Session) Close() error {
	if s.closer != nil {
		return s.closer.Close()
	}
	return nil
}

// ContentNames builds the name universe for trie-enabled keys from tag
// names plus the alphabet of a text corpus (§4): call it with everything
// the documents may contain.
func ContentNames(tagNames []string, corpus string) []string {
	return append(append([]string{}, tagNames...), trie.Alphabet(trie.Words(corpus))...)
}
