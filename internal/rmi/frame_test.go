package rmi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// goldenRequest is CallTraced("echo", {0xde, 0xad}) as the first call of
// a client with tenant "acme", epoch 7 and trace context {300, 5}.
var goldenRequest = []byte{
	0, 0, 0, 18, // length
	3,                     // version
	1,                     // seq
	4, 'e', 'c', 'h', 'o', // method
	4, 'a', 'c', 'm', 'e', // tenant
	0xac, 0x02, // trace 300
	5,          // span
	7,          // epoch
	0xde, 0xad, // body
}

// goldenReply is the echo handler's answer to goldenRequest.
var goldenReply = []byte{0, 0, 0, 4, 1, statusOK, 0xde, 0xad}

func echoServer() *Server {
	srv := NewServer()
	HandleFuncAt(srv, "acme", "echo", func(b []byte) ([]byte, error) { return b, nil })
	HandleFunc(srv, "fail", func([]byte) ([]byte, error) { return nil, errors.New("boom") })
	return srv
}

// TestGoldenFrames pins the v3 layout byte for byte in both directions:
// what the client writes, what the server answers, and that each side
// accepts the other's golden bytes.
func TestGoldenFrames(t *testing.T) {
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	defer sConn.Close()
	cli := NewClient(cConn)
	cli.SetTenant("acme")
	cli.SetEpoch(7)
	type result struct {
		reply []byte
		err   error
	}
	done := make(chan result, 1)
	go func() {
		var got []byte
		_, err := cli.CallTraced("echo", []byte{0xde, 0xad}, &got, TraceContext{Trace: 300, Span: 5})
		done <- result{got, err}
	}()
	sent := make([]byte, len(goldenRequest))
	if _, err := io.ReadFull(sConn, sent); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sent, goldenRequest) {
		t.Fatalf("request frame\n got % x\nwant % x", sent, goldenRequest)
	}
	if _, err := sConn.Write(goldenReply); err != nil {
		t.Fatal(err)
	}
	if r := <-done; r.err != nil || !bytes.Equal(r.reply, []byte{0xde, 0xad}) {
		t.Fatalf("client decoded golden reply as %x, %v", r.reply, r.err)
	}

	// The server answers the golden request with the golden reply, and
	// a handler error with status 1 and the message.
	cConn2, sConn2 := net.Pipe()
	defer cConn2.Close()
	go echoServer().ServeConn(sConn2)
	if _, err := cConn2.Write(goldenRequest); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(goldenReply))
	if _, err := io.ReadFull(cConn2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, goldenReply) {
		t.Fatalf("reply frame\n got % x\nwant % x", got, goldenReply)
	}
	fail := appendRequest([]byte{0, 0, 0, 0}, 2, "fail", "", TraceContext{}, 0)
	if err := writeFrame(cConn2, fail); err != nil {
		t.Fatal(err)
	}
	errReply := []byte{0, 0, 0, 6, 2, statusErr, 'b', 'o', 'o', 'm'}
	got = make([]byte, len(errReply))
	if _, err := io.ReadFull(cConn2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, errReply) {
		t.Fatalf("error reply\n got % x\nwant % x", got, errReply)
	}
}

// downgradeConn rewrites the version byte of every frame it writes.
type downgradeConn struct {
	net.Conn
	ver byte
}

func (c downgradeConn) Write(b []byte) (int, error) {
	b = append([]byte(nil), b...)
	b[4] = c.ver
	return c.Conn.Write(b)
}

// TestVersion2FrameRefused: a frame with any version byte but 3 makes
// the server drop the connection, which the client sees as a
// TransportError — there is no older framing to answer in.
func TestVersion2FrameRefused(t *testing.T) {
	srv := echoServer()
	cConn, sConn := net.Pipe()
	served := make(chan struct{})
	go func() { srv.ServeConn(sConn); close(served) }()
	cli := NewClient(downgradeConn{Conn: cConn, ver: 2})
	defer cli.Close()
	cli.SetTenant("acme")
	var got []byte
	err := cli.Call("echo", []byte("x"), &got)
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("version-2 frame: err = %v, want TransportError", err)
	}
	select {
	case <-served:
	case <-time.After(2 * time.Second):
		t.Fatal("server kept the connection after a version-2 frame")
	}
	if srv.Stats().Calls != 0 {
		t.Fatal("version-2 frame was dispatched")
	}
}

// TestDeclaredLengthBuysNoMemory: a peer that announces a 64 MiB frame
// and then sends ten bytes costs the server what arrived, not what was
// announced.
func TestDeclaredLengthBuysNoMemory(t *testing.T) {
	srv := echoServer()
	cConn, sConn := net.Pipe()
	served := make(chan struct{})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	go func() { srv.ServeConn(sConn); close(served) }()
	frame := binary.BigEndian.AppendUint32(nil, maxFrame)
	frame = append(frame, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	if _, err := cConn.Write(frame); err != nil {
		t.Fatal(err)
	}
	cConn.Close()
	<-served
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("a 64 MiB length prefix followed by 10 bytes allocated %d bytes", n)
	}
}

// TestReadFrameGrowsAcrossSteps: frames larger than the retained buffer
// still arrive intact.
func TestReadFrameGrowsAcrossSteps(t *testing.T) {
	for _, size := range []int{0, 1, maxRetained - 1, maxRetained, maxRetained + 1, 5*maxRetained + 17} {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		frame := append(binary.BigEndian.AppendUint32(nil, uint32(size)), payload...)
		got, err := readFrame(bytes.NewReader(frame), make([]byte, 0, 16))
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("size %d: %d bytes, %v", size, len(got), err)
		}
		if _, err := readFrame(bytes.NewReader(frame[:len(frame)-1]), nil); size > 0 && err == nil {
			t.Fatalf("size %d: truncated frame accepted", size)
		}
	}
}

// TestBodyTypesChecked: a body that is neither []byte nor a Message is
// refused by name — at registration for handlers, before anything is
// sent for calls.
func TestBodyTypesChecked(t *testing.T) {
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(r.(string), "struct { X int }") {
				t.Fatalf("registration panic = %v, want one naming the type", r)
			}
		}()
		HandleFunc(NewServer(), "bad", func(struct{ X int }) ([]byte, error) { return nil, nil })
	}()
	cli := Pipe(echoServer())
	defer cli.Close()
	cli.SetTenant("acme")
	if err := cli.Call("echo", "text", nil); err == nil || !strings.Contains(err.Error(), "string") {
		t.Fatalf("string argument: %v", err)
	}
	var s string
	if err := cli.Call("echo", []byte("x"), &s); err == nil || !strings.Contains(err.Error(), "*string") {
		t.Fatalf("*string reply: %v", err)
	}
	var got []byte
	if err := cli.Call("echo", []byte("still in sync"), &got); err != nil || string(got) != "still in sync" {
		t.Fatalf("call after refused bodies: %q, %v", got, err)
	}
}

// FuzzFrame: header decoding never panics, and for anything that
// decodes, encoding the decoded header and decoding that again is a
// fixed point.
func FuzzFrame(f *testing.F) {
	f.Add(goldenRequest[4:])
	f.Add(goldenReply[4:])
	f.Add([]byte{2, 1, 4, 'e', 'c', 'h', 'o', 0, 0, 0, 0})
	f.Add([]byte{3, 0xff, 0xff})
	f.Add([]byte{3, 1, 0x80})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		encode := func(q request) []byte {
			out := appendRequest(nil, q.seq, string(q.method), string(q.tenant), TraceContext{Trace: q.trace, Span: q.span}, q.epoch)
			return append(out, q.body...)
		}
		if q, err := parseRequest(b); err == nil {
			e1 := encode(q)
			q2, err := parseRequest(e1)
			if err != nil {
				t.Fatalf("re-encoded request rejected: %v", err)
			}
			if q2.seq != q.seq || !bytes.Equal(q2.method, q.method) || !bytes.Equal(q2.tenant, q.tenant) ||
				q2.trace != q.trace || q2.span != q.span || q2.epoch != q.epoch || !bytes.Equal(q2.body, q.body) {
				t.Fatalf("request changed across a round trip: %+v -> %+v", q, q2)
			}
			if e2 := encode(q2); !bytes.Equal(e1, e2) {
				t.Fatalf("request encoding not a fixed point:\n% x\n% x", e1, e2)
			}
		}
		if seq, status, rest, err := parseReply(b); err == nil {
			e1 := append(append(binary.AppendUvarint(nil, seq), status), rest...)
			seq2, status2, rest2, err := parseReply(e1)
			if err != nil || seq2 != seq || status2 != status || !bytes.Equal(rest2, rest) {
				t.Fatalf("reply changed across a round trip: %v", err)
			}
		}
		framed := append(binary.BigEndian.AppendUint32(nil, uint32(len(b))), b...)
		if got, err := readFrame(bytes.NewReader(framed), nil); err != nil || !bytes.Equal(got, b) {
			t.Fatalf("readFrame of a well-formed frame: %d bytes, %v", len(got), err)
		}
		readFrame(bytes.NewReader(b), nil) // arbitrary prefix: must not panic
	})
}

// ownedProbe is a body that records how rmi handed it over.
type ownedProbe struct {
	body  []byte
	owned bool
}

func (p ownedProbe) AppendWire(dst []byte) []byte { return append(dst, p.body...) }

func (p *ownedProbe) DecodeWire(b []byte, owned bool) error {
	p.body, p.owned = b, owned
	return nil
}

// TestReplyOwnership pins DecodeWire's owned: a reply frame larger than
// maxRetained is handed to its decoder and never reused by the
// connection, a smaller one is not handed over, and a request body never
// is, whatever its size.
func TestReplyOwnership(t *testing.T) {
	srv := NewServer()
	HandleFunc(srv, "fill", func(n num) ([]byte, error) { return bytes.Repeat([]byte{byte(n)}, int(n)), nil })
	var reqOwned []bool
	HandleFunc(srv, "probe", func(p ownedProbe) (num, error) {
		reqOwned = append(reqOwned, p.owned)
		return num(len(p.body)), nil
	})
	cli := Pipe(srv)
	defer cli.Close()
	fill := func(n int) ownedProbe {
		t.Helper()
		var p ownedProbe
		if err := cli.Call("fill", num(n), &p); err != nil || len(p.body) != n {
			t.Fatalf("fill %d: %d bytes, %v", n, len(p.body), err)
		}
		return p
	}
	// A reply frame is the body plus a one-byte seq and the status.
	for _, tc := range []struct {
		body  int
		owned bool
	}{{10, false}, {maxRetained - 2, false}, {maxRetained - 1, true}, {10, false}} {
		if p := fill(tc.body); p.owned != tc.owned {
			t.Fatalf("%d-byte reply: owned = %v, want %v", tc.body, p.owned, tc.owned)
		}
	}
	kept := fill(3*maxRetained + 1)
	want := bytes.Clone(kept.body)
	fill(3*maxRetained + 2)
	fill(10)
	if !bytes.Equal(kept.body, want) {
		t.Fatal("an owned reply was overwritten by later calls on the connection")
	}
	for _, n := range []int{10, 2 * maxRetained} {
		var got num
		if err := cli.Call("probe", ownedProbe{body: make([]byte, n)}, &got); err != nil || int(got) != n {
			t.Fatalf("probe %d: %d, %v", n, got, err)
		}
	}
	if !slices.Equal(reqOwned, []bool{false, false}) {
		t.Fatalf("request bodies handed over as owned: %v", reqOwned)
	}
}
