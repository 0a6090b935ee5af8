// Package rmi is the repo's stand-in for Java RMI (paper §5.2): a small
// synchronous RPC layer with length-prefixed binary frames over any
// net.Conn. The ClientFilter and ServerFilter of the paper communicate
// exclusively through this interface, so evaluation and message counts in
// the experiments include exactly the round-trips the prototype made.
//
// The protocol is strictly request/response. Clients serialize concurrent
// calls; servers handle each connection in its own goroutine.
//
// # Frames (version 3)
//
// Every integer below is a uvarint unless stated otherwise; a string is
// a uvarint length followed by its bytes.
//
//	request: [u32 BE len][u8 ver=3][seq][method][tenant][trace][span][epoch][body]
//	reply:   [u32 BE len][seq][u8 status][body | error message]
//
// len counts the bytes after the prefix. Status 0 carries the handler's
// reply body, status 1 the text of its error. A server that reads any
// other version byte, or a header it cannot parse, closes the
// connection: both peers are this repository's own binaries, so there is
// no older framing to fall back to. A body is either a []byte, passed
// through untouched, or a Message that encodes itself (internal/filter
// holds the codecs of the filter service's messages).
//
// # Tenants
//
// A request carries a tenant name, and a server dispatches each call
// against that tenant's handler set — how one process serves many
// independent encrypted tables. An empty tenant routes to the server's
// designated default tenant. Handlers registered under the empty tenant
// name are global: reachable from every tenant, which is how
// protocol-negotiation and admin methods stay tenant-independent.
//
// # Buffers
//
// Each connection end keeps one read and one write buffer and reuses
// them while they stay within maxRetained; a larger frame gets a buffer
// of its own that is dropped after the call, so an idle connection holds
// at most 2 × maxRetained bytes. Decoders copy every []byte they keep, so
// no decoded value aliases a reused buffer.
package rmi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"encshare/internal/obs"
)

// maxFrame bounds a single message; a frame larger than this indicates
// corruption or protocol mismatch.
const maxFrame = 64 << 20

// maxRetained bounds the buffers a connection keeps between frames, and
// is the step in which a frame's read buffer grows as its bytes arrive.
const maxRetained = 64 << 10

// RemoteError is an error returned by the remote handler (as opposed to a
// transport failure). A RemoteError means the server received the call
// and answered it: retrying the same call — here or on a byte-identical
// replica — would deterministically fail again.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "rmi: remote: " + e.Msg }

// TransportError is a failure of the connection itself — the frame never
// arrived, the reply never came back, or the stream desynchronized. The
// call may or may not have executed server-side, but for a read-only
// protocol it is always safe to retry, and against a replicated shard it
// is the signal to fail over to another replica.
type TransportError struct {
	Method string
	Err    error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("rmi: transport: %s: %v", e.Method, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// unknownMethodPrefix starts the RemoteError message for a method the
// server does not expose; IsUnknownMethod is the public contract, so the
// wording can change without breaking callers. unknownTenantPrefix is
// its tenant-level analogue.
const (
	unknownMethodPrefix = "unknown method "
	unknownTenantPrefix = "unknown tenant "
)

// IsUnknownMethod reports whether err says the server does not expose
// the named method — how a client tells a read-only backend (no
// mutation methods) from a failed write. The match is exact against the
// server's dispatch reply, so a handler whose own error text merely
// resembles it cannot be mistaken for it.
func IsUnknownMethod(err error, method string) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Msg == unknownMethodPrefix+method
}

// IsUnknownTenant reports whether err says the server does not host the
// named tenant.
func IsUnknownTenant(err error, tenant string) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Msg == unknownTenantPrefix+tenant
}

// ErrUnknownTenant is the error a handler returns to reject a tenant by
// name with the same reply text the dispatcher itself uses — so
// IsUnknownTenant matches both producers and the wording lives in one
// package.
func ErrUnknownTenant(tenant string) error {
	return errors.New(unknownTenantPrefix + tenant)
}

// FrameVersion is the version byte every request frame starts with.
const FrameVersion = 3

// Reply status bytes.
const (
	statusOK  = 0
	statusErr = 1
)

// Message is a frame body that encodes itself. AppendWire appends the
// encoding to dst; DecodeWire replaces the receiver with the value b
// encodes, consuming all of b. b may live in a connection buffer that is
// reused after DecodeWire returns, so DecodeWire copies whatever it
// keeps. A value type usually implements AppendWire and its pointer
// DecodeWire, so the pointer is the Message.
type Message interface {
	AppendWire(dst []byte) []byte
	DecodeWire(b []byte) error
}

// appender is the encoding half of Message, which is all an argument
// passed by value needs.
type appender interface {
	AppendWire(dst []byte) []byte
}

// appendBody appends the encoding of v: a []byte as is, anything else
// through its AppendWire.
func appendBody(dst []byte, v any) ([]byte, error) {
	switch m := v.(type) {
	case []byte:
		return append(dst, m...), nil
	case *[]byte:
		return append(dst, *m...), nil
	case appender:
		return m.AppendWire(dst), nil
	}
	return dst, fmt.Errorf("rmi: cannot encode a %T body: not []byte or rmi.Message", v)
}

// decodeBody decodes b into v, a *[]byte (filled with a copy of b) or a
// Message.
func decodeBody(b []byte, v any) error {
	switch m := v.(type) {
	case *[]byte:
		*m = append((*m)[:0], b...)
		return nil
	case Message:
		return m.DecodeWire(b)
	}
	return fmt.Errorf("rmi: cannot decode into %T: not *[]byte or rmi.Message", v)
}

// checkDecodable reports whether v can receive a reply body.
func checkDecodable(v any) error {
	switch v.(type) {
	case *[]byte, Message:
		return nil
	}
	return fmt.Errorf("rmi: cannot decode into %T: not *[]byte or rmi.Message", v)
}

// HandlerFunc processes one call: body is the request body, valid only
// until the handler returns; the handler appends its reply body to
// reply and returns the extended slice.
type HandlerFunc func(body, reply []byte) ([]byte, error)

// handler is a registered method; name is the registration's own copy
// of the method string, so dispatch can hand it to the gate and the
// metrics without converting the frame's bytes.
type handler struct {
	name string
	fn   HandlerFunc
}

// tenantSet is one tenant's handlers, keyed by method.
type tenantSet struct {
	name    string
	methods map[string]handler
}

// Server dispatches incoming calls to registered handlers. Safe for
// concurrent use. Handler sets are keyed by tenant name; the empty name
// holds the global set, which doubles as the single-tenant registration
// target and as the fallback for tenant-independent methods (a method
// missing from a tenant's set is looked up globally before the call
// fails).
type Server struct {
	mu            sync.RWMutex
	tenants       map[string]*tenantSet
	defaultTenant string

	// Stats
	calls     atomic.Int64
	bytesIn   atomic.Int64
	bytesOut  atomic.Int64
	listeners sync.WaitGroup

	// Graceful shutdown: closing flips first, the drain lock waits out
	// frames already being handled (each frame holds a read lock from
	// dispatch through reply write), then tracked connections close.
	closing atomic.Bool
	drain   sync.RWMutex
	connMu  sync.Mutex
	conns   map[net.Conn]struct{}

	// metrics is nil until SetMetrics attaches a registry; the hot path
	// pays only this pointer load when no one is scraping.
	metrics atomic.Pointer[serverMetrics]

	// gate, when set, brackets every dispatched frame (see SetGate); nil
	// until a runtime with epoch-fenced data installs one.
	gate atomic.Pointer[GateFunc]
}

// GateFunc admits or rejects one frame before its handler runs. It
// receives the frame's tenant (as sent — "" means the server default),
// method, and pinned epoch (0 = unpinned), and either returns a release
// callback that ServeConn invokes after the handler's reply is built,
// or an error that becomes the frame's remote error. The server runtime
// uses this to fence reads against a data epoch: a frame pinned to a
// stale epoch is refused here, atomically with respect to mutations,
// instead of racing them inside the handler.
type GateFunc func(tenant, method string, epoch uint64) (release func(), err error)

// SetGate installs (or, with nil, removes) the per-frame gate. Safe to
// call while serving; frames already past their gate check complete
// under the gate they acquired.
func (s *Server) SetGate(fn GateFunc) {
	if fn == nil {
		s.gate.Store(nil)
		return
	}
	s.gate.Store(&fn)
}

// serverMetrics holds the instruments ServeConn touches per frame.
type serverMetrics struct {
	reg    *obs.Registry
	traced *obs.Counter
}

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{
		tenants: map[string]*tenantSet{"": {methods: map[string]handler{}}},
		conns:   map[net.Conn]struct{}{},
	}
}

// Handle registers fn under the method name in the global handler set.
// Registering a duplicate name panics (a programming error).
func (s *Server) Handle(method string, fn HandlerFunc) {
	s.HandleAt("", method, fn)
}

// HandleAt registers fn under the method name in the named tenant's
// handler set (the empty tenant is the global set). Registering a
// duplicate (tenant, method) pair panics.
func (s *Server) HandleAt(tenant, method string, fn HandlerFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	set := s.tenants[tenant]
	if set == nil {
		set = &tenantSet{name: tenant, methods: map[string]handler{}}
		s.tenants[tenant] = set
	}
	if _, dup := set.methods[method]; dup {
		panic("rmi: duplicate handler for " + tenant + "/" + method)
	}
	set.methods[method] = handler{name: method, fn: fn}
}

// DropTenant removes a tenant's entire handler set, reporting whether it
// existed. In-flight calls already dispatched to its handlers complete;
// later frames naming the tenant get an unknown-tenant error. The global
// set cannot be dropped.
func (s *Server) DropTenant(tenant string) bool {
	if tenant == "" {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tenants[tenant]; !ok {
		return false
	}
	delete(s.tenants, tenant)
	if s.defaultTenant == tenant {
		s.defaultTenant = ""
	}
	return true
}

// SetDefaultTenant names the tenant that calls carrying no tenant are
// routed to. An empty name restores the global set as the target.
func (s *Server) SetDefaultTenant(tenant string) {
	s.mu.Lock()
	s.defaultTenant = tenant
	s.mu.Unlock()
}

// Tenants returns the named tenants with registered handler sets (the
// global set is not listed).
func (s *Server) Tenants() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.tenants)-1)
	for name := range s.tenants {
		if name != "" {
			out = append(out, name)
		}
	}
	return out
}

// HandleFunc registers a typed handler: decode Args, call, encode Reply.
// Args and Reply must each be []byte or a type whose pointer is a
// Message; any other type panics at registration.
func HandleFunc[Args any, Reply any](s *Server, method string, fn func(Args) (Reply, error)) {
	HandleFuncAt(s, "", method, fn)
}

// HandleFuncAt is HandleFunc targeting a tenant's handler set.
func HandleFuncAt[Args any, Reply any](s *Server, tenant, method string, fn func(Args) (Reply, error)) {
	var args Args
	var reply Reply
	for _, v := range [...]any{&args, &reply} {
		if err := checkDecodable(v); err != nil {
			panic(fmt.Sprintf("rmi: handler %s: %v", method, err))
		}
	}
	s.HandleAt(tenant, method, func(body, out []byte) ([]byte, error) {
		var args Args
		if err := decodeBody(body, &args); err != nil {
			return out, fmt.Errorf("decoding args: %w", err)
		}
		reply, err := fn(args)
		if err != nil {
			return out, err
		}
		return appendBody(out, &reply)
	})
}

// lookup resolves a request's tenant and method to a handler, or to the
// error message the response should carry. sent is the tenant as the
// frame named it, as a string for the gate; map lookups keyed by
// string(b) do not allocate, and a known tenant's name comes from its
// registration, so only an unknown tenant costs a conversion.
func (s *Server) lookup(tenant, method []byte) (h handler, sent, errMsg string) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	set := s.tenants[s.defaultTenant]
	if len(tenant) > 0 {
		if set = s.tenants[string(tenant)]; set != nil {
			sent = set.name
		} else {
			sent = string(tenant)
		}
	}
	if set != nil {
		if h, ok := set.methods[string(method)]; ok {
			return h, sent, ""
		}
	}
	// Tenant-independent methods (tenant resolution) live in the global
	// set and answer under any tenant, known or not.
	if h, ok := s.tenants[""].methods[string(method)]; ok {
		return h, sent, ""
	}
	if set == nil {
		name := sent
		if name == "" {
			name = s.defaultTenant
		}
		return handler{}, "", unknownTenantPrefix + name
	}
	return handler{}, "", unknownMethodPrefix + string(method)
}

// Serve accepts connections until the listener is closed.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				s.listeners.Wait()
				return nil
			}
			return fmt.Errorf("rmi: accept: %w", err)
		}
		s.listeners.Add(1)
		go func() {
			defer s.listeners.Done()
			s.ServeConn(conn)
		}()
	}
}

// ServeConn serves a single connection until EOF, error, or server
// shutdown.
func (s *Server) ServeConn(conn net.Conn) {
	s.connMu.Lock()
	if s.closing.Load() {
		s.connMu.Unlock()
		conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.connMu.Unlock()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		conn.Close()
	}()
	var rbuf, wbuf []byte
	for {
		frame, err := readFrame(conn, rbuf)
		if err != nil {
			return // EOF or broken peer: nothing to report to
		}
		rbuf = retain(rbuf, frame)
		req, err := parseRequest(frame)
		if err != nil {
			return // not a v3 peer: there is no framing to answer it in
		}
		// The read lock brackets one frame: Shutdown's write lock
		// cannot proceed until every frame already past the closing
		// check has written its reply.
		s.drain.RLock()
		if s.closing.Load() {
			s.drain.RUnlock()
			return
		}
		s.bytesIn.Add(int64(4 + len(frame)))
		s.calls.Add(1)
		h, tenant, errMsg := s.lookup(req.tenant, req.method)
		m := s.metrics.Load()
		if m != nil && req.trace != 0 {
			m.traced.Inc()
		}
		head := binary.AppendUvarint(append(wbuf[:0], 0, 0, 0, 0), req.seq)
		fail := func(msg string) []byte { return append(append(head, statusErr), msg...) }
		var out []byte
		if h.fn == nil {
			out = fail(errMsg)
		} else if release, gerr := s.admit(tenant, h.name, req.epoch); gerr != nil {
			out = fail(gerr.Error())
		} else {
			start := time.Time{}
			if m != nil {
				start = time.Now()
			}
			var err error
			out, err = h.fn(req.body, append(head, statusOK))
			if release != nil {
				release()
			}
			if m != nil {
				m.reg.Histogram("rmi_server_call_seconds", "handler latency by method",
					obs.Labels{"method": h.name}).Observe(time.Since(start))
			}
			if err != nil {
				out = fail(err.Error())
			}
		}
		err = writeFrame(conn, out)
		s.drain.RUnlock()
		if err != nil {
			return
		}
		wbuf = retain(wbuf, out)
		s.bytesOut.Add(int64(len(out)))
		if s.closing.Load() {
			return
		}
	}
}

// admit runs the installed gate, if any, for one frame.
func (s *Server) admit(tenant, method string, epoch uint64) (func(), error) {
	g := s.gate.Load()
	if g == nil {
		return nil, nil
	}
	return (*g)(tenant, method, epoch)
}

// drainTimeout bounds how long Shutdown waits for in-flight frames: a
// peer that requested a reply and then stopped reading would otherwise
// hold its ServeConn goroutine in a blocked write forever, and the
// drain barrier with it. A variable so tests can shrink it.
var drainTimeout = 5 * time.Second

// Shutdown drains the server: frames already being handled complete and
// their replies are written (bounded by drainTimeout — a peer that
// stopped reading has its reply write cut off instead of hanging the
// shutdown), no new frame is dispatched, and every tracked connection
// is then closed, which unblocks ServeConn readers and lets Serve
// return once its listener is closed. Safe to call more than once.
func (s *Server) Shutdown() {
	s.closing.Store(true)
	// Bound the drain: any conn I/O still pending past the deadline
	// errors out and releases its read lock.
	deadline := time.Now().Add(drainTimeout)
	s.connMu.Lock()
	for c := range s.conns {
		c.SetDeadline(deadline)
	}
	s.connMu.Unlock()
	// Barrier: wait for every in-flight frame (dispatch through reply
	// write) to release its read lock.
	s.drain.Lock()
	s.drain.Unlock() //nolint:staticcheck // empty critical section is the drain barrier
	s.connMu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.connMu.Unlock()
	s.listeners.Wait()
}

// ServerStats is a snapshot of server-side traffic counters.
type ServerStats struct {
	Calls    int64
	BytesIn  int64
	BytesOut int64
}

// Stats returns a snapshot of the traffic counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Calls:    s.calls.Load(),
		BytesIn:  s.bytesIn.Load(),
		BytesOut: s.bytesOut.Load(),
	}
}

// SetMetrics registers this server's instruments into reg and turns on
// per-method latency histograms. The existing traffic counters are
// exposed as func-backed series (read at scrape time, never copied);
// only the per-frame histogram Observe and the traced-frame counter are
// new work, and both happen only after a registry is attached.
func (s *Server) SetMetrics(reg *obs.Registry) {
	reg.CounterFunc("rmi_server_calls_total", "frames dispatched", nil, s.calls.Load)
	reg.CounterFunc("rmi_server_bytes_in_total", "request bytes received", nil, s.bytesIn.Load)
	reg.CounterFunc("rmi_server_bytes_out_total", "reply bytes written", nil, s.bytesOut.Load)
	m := &serverMetrics{
		reg:    reg,
		traced: reg.Counter("rmi_server_traced_frames_total", "frames carrying a trace context", nil),
	}
	s.metrics.Store(m)
}

// Client issues calls over one connection. Safe for concurrent use; calls
// are serialized.
type Client struct {
	mu     sync.Mutex
	conn   net.Conn
	seq    uint64
	tenant string
	epoch  uint64
	// rbuf and wbuf are the connection's reused frame buffers (mu).
	rbuf, wbuf []byte

	calls    atomic.Int64
	bytesOut atomic.Int64
	bytesIn  atomic.Int64
}

// Dial connects to a server at addr (TCP).
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rmi: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn}
}

// Close closes the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }

// SetTenant names the tenant every subsequent call is issued against.
// An empty name (the default) routes to the server's default tenant.
// Callers naming a non-default tenant should verify the server hosts it
// first (see internal/server.ResolveTenant).
func (c *Client) SetTenant(tenant string) {
	c.mu.Lock()
	c.tenant = tenant
	c.mu.Unlock()
}

// Tenant returns the tenant set with SetTenant ("" if none).
func (c *Client) Tenant() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tenant
}

// SetEpoch pins every subsequent call to a data epoch. Zero (the
// default) means unpinned. A server with an epoch gate refuses pinned
// frames whose epoch has passed, so the caller sees a consistent
// snapshot or a typed stale-epoch error, never a torn read.
func (c *Client) SetEpoch(epoch uint64) {
	c.mu.Lock()
	c.epoch = epoch
	c.mu.Unlock()
}

// Epoch returns the epoch pinned with SetEpoch (0 if unpinned).
func (c *Client) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// TraceContext identifies the trace (and the client-side span issuing
// the call) a frame belongs to. The zero value means "untraced".
type TraceContext struct {
	Trace uint64
	Span  uint64
}

// FrameInfo reports the wire cost of one completed call.
type FrameInfo struct {
	BytesOut int
	BytesIn  int
}

// Call invokes method with args (a []byte or a value whose AppendWire
// encodes it), decoding the reply into reply (a *[]byte or a Message;
// nil discards it), and returns a *RemoteError if the handler failed.
func (c *Client) Call(method string, args any, reply any) error {
	_, err := c.doCall(method, args, reply, TraceContext{})
	return err
}

// CallTraced is Call with a trace context stamped into the frame header
// and the frame's byte counts returned — the hook the filter proxy uses
// to record frame spans.
func (c *Client) CallTraced(method string, args any, reply any, tc TraceContext) (FrameInfo, error) {
	return c.doCall(method, args, reply, tc)
}

func (c *Client) doCall(method string, args any, reply any, tc TraceContext) (FrameInfo, error) {
	var fi FrameInfo
	if reply != nil {
		if err := checkDecodable(reply); err != nil {
			return fi, fmt.Errorf("rmi: %s: %w", method, err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	frame := appendRequest(append(c.wbuf[:0], 0, 0, 0, 0), c.seq, method, c.tenant, tc, c.epoch)
	frame, err := appendBody(frame, args)
	if err != nil {
		return fi, fmt.Errorf("rmi: encoding args for %s: %w", method, err)
	}
	if err := writeFrame(c.conn, frame); err != nil {
		return fi, &TransportError{Method: method, Err: fmt.Errorf("sending: %w", err)}
	}
	c.wbuf = retain(c.wbuf, frame)
	c.bytesOut.Add(int64(len(frame)))
	fi.BytesOut = len(frame)
	body, err := readFrame(c.conn, c.rbuf)
	if err != nil {
		return fi, &TransportError{Method: method, Err: fmt.Errorf("receiving reply: %w", err)}
	}
	c.rbuf = retain(c.rbuf, body)
	c.bytesIn.Add(int64(4 + len(body)))
	c.calls.Add(1)
	fi.BytesIn = 4 + len(body)
	seq, status, body, err := parseReply(body)
	if err != nil {
		return fi, &TransportError{Method: method, Err: err}
	}
	if seq != c.seq {
		return fi, &TransportError{Method: method, Err: fmt.Errorf("reply sequence %d for request %d", seq, c.seq)}
	}
	if status == statusErr {
		return fi, &RemoteError{Msg: string(body)}
	}
	if reply != nil {
		if err := decodeBody(body, reply); err != nil {
			return fi, &TransportError{Method: method, Err: fmt.Errorf("decoding reply: %w", err)}
		}
	}
	return fi, nil
}

// ClientStats is a snapshot of client-side traffic counters.
type ClientStats struct {
	Calls    int64
	BytesOut int64
	BytesIn  int64
}

// Stats returns a snapshot of the traffic counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Calls:    c.calls.Load(),
		BytesOut: c.bytesOut.Load(),
		BytesIn:  c.bytesIn.Load(),
	}
}

// Pipe returns a connected in-process client/server pair: the returned
// client talks to srv over a net.Pipe, with the server goroutine running
// until the client closes. Used by tests and by single-process setups
// that still want the exact remote code path.
func Pipe(srv *Server) *Client {
	cConn, sConn := net.Pipe()
	go srv.ServeConn(sConn)
	return NewClient(cConn)
}

// request is a parsed request frame; the byte slices alias the frame.
type request struct {
	seq            uint64
	method, tenant []byte
	trace, span    uint64
	epoch          uint64
	body           []byte
}

// appendRequest appends a request header: everything after the length
// prefix up to the body.
func appendRequest(dst []byte, seq uint64, method, tenant string, tc TraceContext, epoch uint64) []byte {
	dst = append(dst, FrameVersion)
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(len(method)))
	dst = append(dst, method...)
	dst = binary.AppendUvarint(dst, uint64(len(tenant)))
	dst = append(dst, tenant...)
	dst = binary.AppendUvarint(dst, tc.Trace)
	dst = binary.AppendUvarint(dst, tc.Span)
	return binary.AppendUvarint(dst, epoch)
}

// errBadHeader reports a frame header that does not parse.
var errBadHeader = errors.New("malformed frame header")

// parseRequest splits a request frame (without its length prefix) into
// header fields and body.
func parseRequest(b []byte) (request, error) {
	var q request
	if len(b) == 0 || b[0] != FrameVersion {
		if len(b) == 0 {
			return q, errBadHeader
		}
		return q, fmt.Errorf("frame version %d, want %d", b[0], FrameVersion)
	}
	b = b[1:]
	var ok bool
	if q.seq, b, ok = uvarint(b); !ok {
		return q, errBadHeader
	}
	if q.method, b, ok = prefixed(b); !ok {
		return q, errBadHeader
	}
	if q.tenant, b, ok = prefixed(b); !ok {
		return q, errBadHeader
	}
	for _, dst := range [...]*uint64{&q.trace, &q.span, &q.epoch} {
		if *dst, b, ok = uvarint(b); !ok {
			return q, errBadHeader
		}
	}
	q.body = b
	return q, nil
}

// parseReply splits a reply frame (without its length prefix) into
// sequence, status, and the body or error text.
func parseReply(b []byte) (seq uint64, status byte, rest []byte, err error) {
	seq, b, ok := uvarint(b)
	if !ok || len(b) == 0 {
		return 0, 0, nil, errBadHeader
	}
	if b[0] != statusOK && b[0] != statusErr {
		return 0, 0, nil, fmt.Errorf("reply status %d", b[0])
	}
	return seq, b[0], b[1:], nil
}

func uvarint(b []byte) (uint64, []byte, bool) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, b, false
	}
	return v, b[n:], true
}

// prefixed reads a uvarint length and that many bytes.
func prefixed(b []byte) ([]byte, []byte, bool) {
	n, b, ok := uvarint(b)
	if !ok || n > uint64(len(b)) {
		return nil, b, false
	}
	return b[:n], b[n:], true
}

// retain returns the buffer a connection keeps after a frame: the
// frame's own buffer while it is small enough to keep, else the one it
// kept before.
func retain(kept, used []byte) []byte {
	if cap(used) > maxRetained {
		return kept
	}
	return used[:0]
}

// writeFrame fills in the length prefix of frame (which starts with four
// placeholder bytes) and writes it in one Write.
func writeFrame(w io.Writer, frame []byte) error {
	size := len(frame) - 4
	if size > maxFrame {
		return fmt.Errorf("frame of %d bytes exceeds limit", size)
	}
	binary.BigEndian.PutUint32(frame, uint32(size))
	_, err := w.Write(frame)
	return err
}

// readFrame reads one length-prefixed frame and returns its bytes after
// the prefix, in buf when they fit. A frame larger than buf is read in
// steps of at most maxRetained into a buffer that starts at maxRetained
// and doubles only once the bytes already received fill it, so the
// length prefix alone commits no memory the peer has not sent (at most
// twice what arrived) and the copies stay linear in the frame size.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	var lenbuf [4]byte
	if _, err := io.ReadFull(r, lenbuf[:]); err != nil {
		return nil, err
	}
	size := int(binary.BigEndian.Uint32(lenbuf[:]))
	if size > maxFrame {
		return nil, fmt.Errorf("frame of %d bytes exceeds limit", size)
	}
	if size <= cap(buf) {
		buf = buf[:size]
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	buf = make([]byte, 0, min(size, max(cap(buf), maxRetained)))
	for len(buf) < size {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(size, 2*cap(buf)))
			copy(grown, buf)
			buf = grown
		}
		n, err := io.ReadFull(r, buf[len(buf):min(size, len(buf)+maxRetained, cap(buf))])
		buf = buf[:len(buf)+n]
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}
