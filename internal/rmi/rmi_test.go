package rmi

import (
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// echoArgs, pair and num are test messages in the varint layout the
// filter codecs use.
type echoArgs struct {
	S string
	N int64
}

func (a echoArgs) AppendWire(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(a.S)))
	return binary.AppendVarint(append(dst, a.S...), a.N)
}

func (a *echoArgs) DecodeWire(b []byte, _ bool) error {
	s, b, ok := prefixed(b)
	if !ok {
		return errors.New("bad string")
	}
	n, k := binary.Varint(b)
	if k <= 0 || k != len(b) {
		return errors.New("bad number")
	}
	*a = echoArgs{S: string(s), N: n}
	return nil
}

type pair [2]int64

func (p pair) AppendWire(dst []byte) []byte {
	return binary.AppendVarint(binary.AppendVarint(dst, p[0]), p[1])
}

func (p *pair) DecodeWire(b []byte, _ bool) error {
	for i := range p {
		v, k := binary.Varint(b)
		if k <= 0 {
			return errors.New("bad pair")
		}
		p[i], b = v, b[k:]
	}
	if len(b) != 0 {
		return errors.New("trailing bytes")
	}
	return nil
}

type num int64

func (n num) AppendWire(dst []byte) []byte { return binary.AppendVarint(dst, int64(n)) }

func (n *num) DecodeWire(b []byte, _ bool) error {
	v, k := binary.Varint(b)
	if k <= 0 || k != len(b) {
		return errors.New("bad number")
	}
	*n = num(v)
	return nil
}

func newEchoServer() *Server {
	srv := NewServer()
	HandleFunc(srv, "echo", func(a echoArgs) (echoArgs, error) {
		return a, nil
	})
	HandleFunc(srv, "fail", func(a echoArgs) (echoArgs, error) {
		return echoArgs{}, errors.New("boom: " + a.S)
	})
	HandleFunc(srv, "add", func(a pair) (num, error) {
		return num(a[0] + a[1]), nil
	})
	return srv
}

func TestPipeRoundTrip(t *testing.T) {
	cli := Pipe(newEchoServer())
	defer cli.Close()
	var out echoArgs
	if err := cli.Call("echo", echoArgs{S: "hi", N: 42}, &out); err != nil {
		t.Fatal(err)
	}
	if out.S != "hi" || out.N != 42 {
		t.Fatalf("echo = %+v", out)
	}
	var sum num
	if err := cli.Call("add", pair{20, 22}, &sum); err != nil {
		t.Fatal(err)
	}
	if sum != 42 {
		t.Fatalf("add = %d", sum)
	}
}

func TestRemoteError(t *testing.T) {
	cli := Pipe(newEchoServer())
	defer cli.Close()
	var out echoArgs
	err := cli.Call("fail", echoArgs{S: "reason"}, &out)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("error %v is not RemoteError", err)
	}
	if !strings.Contains(re.Msg, "reason") {
		t.Fatalf("remote error lost message: %q", re.Msg)
	}
}

func TestUnknownMethod(t *testing.T) {
	cli := Pipe(newEchoServer())
	defer cli.Close()
	err := cli.Call("nope", echoArgs{}, nil)
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "unknown method") {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPServe(t *testing.T) {
	srv := newEchoServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	cli, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var out echoArgs
	if err := cli.Call("echo", echoArgs{S: "tcp"}, &out); err != nil {
		t.Fatal(err)
	}
	if out.S != "tcp" {
		t.Fatalf("echo over TCP = %+v", out)
	}
	cli.Close()
	l.Close()
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v", err)
	}
}

func TestConcurrentCallsSerialized(t *testing.T) {
	cli := Pipe(newEchoServer())
	defer cli.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int64) {
			defer wg.Done()
			for i := int64(0); i < 20; i++ {
				var sum num
				if err := cli.Call("add", pair{g, i}, &sum); err != nil {
					errs <- err
					return
				}
				if int64(sum) != g+i {
					errs <- errors.New("wrong sum")
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestStatsCounted(t *testing.T) {
	srv := newEchoServer()
	cli := Pipe(srv)
	defer cli.Close()
	for i := 0; i < 5; i++ {
		var out echoArgs
		if err := cli.Call("echo", echoArgs{S: "x"}, &out); err != nil {
			t.Fatal(err)
		}
	}
	cs := cli.Stats()
	// The server bumps its counters just after its write unblocks, so give
	// its goroutine a moment to finish accounting for the last reply.
	var ss ServerStats
	deadline := time.Now().Add(2 * time.Second)
	for {
		ss = srv.Stats()
		if ss.BytesOut == cs.BytesIn || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if cs.Calls != 5 || ss.Calls != 5 {
		t.Fatalf("calls: client %d server %d", cs.Calls, ss.Calls)
	}
	if cs.BytesOut == 0 || cs.BytesIn == 0 || ss.BytesIn == 0 || ss.BytesOut == 0 {
		t.Fatalf("byte counters zero: %+v %+v", cs, ss)
	}
	if cs.BytesOut != ss.BytesIn || cs.BytesIn != ss.BytesOut {
		t.Fatalf("byte counters disagree: %+v vs %+v", cs, ss)
	}
}

func TestDuplicateHandlerPanics(t *testing.T) {
	srv := NewServer()
	srv.Handle("m", func(b, r []byte) ([]byte, error) { return r, nil })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Handle did not panic")
		}
	}()
	srv.Handle("m", func(b, r []byte) ([]byte, error) { return r, nil })
}

func TestNilReplyDiscardsBody(t *testing.T) {
	cli := Pipe(newEchoServer())
	defer cli.Close()
	if err := cli.Call("echo", echoArgs{S: "discard"}, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPipeCall(b *testing.B) {
	cli := Pipe(newEchoServer())
	defer cli.Close()
	for i := 0; i < b.N; i++ {
		var sum num
		if err := cli.Call("add", pair{1, 2}, &sum); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCPCall(b *testing.B) {
	srv := newEchoServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l)
	cli, err := Dial(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum num
		if err := cli.Call("add", pair{1, 2}, &sum); err != nil {
			b.Fatal(err)
		}
	}
}
