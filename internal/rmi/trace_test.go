package rmi

import (
	"testing"

	"encshare/internal/obs"
)

// TestCallTracedEndToEnd drives a traced call through a live server and
// checks the byte accounting and the traced-frame counter.
func TestCallTracedEndToEnd(t *testing.T) {
	srv := NewServer()
	HandleFunc(srv, "echo", func(b []byte) ([]byte, error) { return b, nil })
	reg := obs.NewRegistry()
	srv.SetMetrics(reg)
	cli := Pipe(srv)
	defer cli.Close()

	var reply []byte
	fi, err := cli.CallTraced("echo", []byte("hello"), &reply, TraceContext{Trace: 11, Span: 2})
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "hello" {
		t.Fatalf("reply = %q", reply)
	}
	if fi.BytesOut <= 0 || fi.BytesIn <= 0 {
		t.Fatalf("frame info not populated: %+v", fi)
	}
	// Untraced call for contrast.
	if err := cli.Call("echo", []byte("again"), &reply); err != nil {
		t.Fatal(err)
	}

	stats := cli.Stats()
	if stats.Calls != 2 {
		t.Fatalf("client calls = %d, want 2", stats.Calls)
	}
	var traced, calls, histCount float64
	for _, s := range reg.Gather() {
		switch s.Name {
		case "rmi_server_traced_frames_total":
			traced = s.Value
		case "rmi_server_calls_total":
			calls = s.Value
		case "rmi_server_call_seconds":
			if s.Hist != nil {
				histCount += float64(s.Hist.Count)
			}
		}
	}
	if traced != 1 {
		t.Fatalf("traced frames = %v, want 1", traced)
	}
	if calls != 2 {
		t.Fatalf("server calls = %v, want 2", calls)
	}
	if histCount != 2 {
		t.Fatalf("per-method histogram count = %v, want 2", histCount)
	}
}
