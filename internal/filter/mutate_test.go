package filter

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"encshare/internal/rmi"
)

func testBatch() MutationBatch {
	return MutationBatch{
		Ver: MutationBatchVersion,
		Seq: 7,
		Ops: []RowOp{
			{Kind: OpPut, Pre: 42, Post: 41, Parent: 3, Blob: []byte{1, 2, 3, 0, 255}},
			{Kind: OpPatch, Pre: 9, NewPre: 10, PostDelta: 1, ParentMin: 42, ParentDelta: -1},
			{Kind: OpPatch, Pre: 3, PostDelta: -1, Blob: []byte{8}},
			{Kind: OpDelete, Pre: 11},
		},
	}
}

func TestBatchCodecRoundTrip(t *testing.T) {
	want := testBatch()
	data, err := EncodeBatch(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ver != want.Ver || got.Seq != want.Seq || len(got.Ops) != len(want.Ops) {
		t.Fatalf("header mismatch: %+v vs %+v", got, want)
	}
	for i := range want.Ops {
		w, g := want.Ops[i], got.Ops[i]
		if g.Kind != w.Kind || g.Pre != w.Pre || g.Post != w.Post || g.Parent != w.Parent ||
			g.NewPre != w.NewPre || g.PostDelta != w.PostDelta ||
			g.ParentMin != w.ParentMin || g.ParentDelta != w.ParentDelta ||
			!bytes.Equal(g.Blob, w.Blob) {
			t.Fatalf("op %d: %+v vs %+v", i, g, w)
		}
	}
	// Empty batch round-trips too (a no-op batch is legal).
	data, err = EncodeBatch(MutationBatch{Ver: 1, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	if b, err := DecodeBatch(data); err != nil || len(b.Ops) != 0 {
		t.Fatalf("empty batch: %+v, %v", b, err)
	}
}

// TestBatchCodecDeterministic pins the property the replica byte-diff
// depends on: equal batches encode to equal bytes, with no process
// state (unlike gob, whose type IDs depend on global first-encode
// order) leaking into the stream.
func TestBatchCodecDeterministic(t *testing.T) {
	a, err := EncodeBatch(testBatch())
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeBatch(testBatch())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same batch encoded to different bytes")
	}
}

func TestDecodeBatchCorrupt(t *testing.T) {
	valid, err := EncodeBatch(testBatch())
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix of a valid encoding must fail cleanly, not
	// decode to something else (the wal layer already guarantees whole
	// records; this guards the codec itself).
	for i := 0; i < len(valid); i++ {
		if _, err := DecodeBatch(valid[:i]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded", i, len(valid))
		}
	}
	if _, err := DecodeBatch(append(append([]byte(nil), valid...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// A blob length pointing past the end must error, not allocate.
	huge := []byte{1, 1, 1, OpPut, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x7f}
	if _, err := DecodeBatch(huge); err == nil {
		t.Fatal("oversized blob length accepted")
	}
}

// TestMutateDigestVerifiesRedelivery pins the idempotent-ack digest
// check: redelivering the batch that consumed a sequence acks cleanly,
// while a DIFFERENT batch colliding with a consumed sequence gets a
// typed, non-retryable BatchMismatchError instead of a false ack.
func TestMutateDigestVerifiesRedelivery(t *testing.T) {
	fx := newFixture(t, testXML)
	m := NewMutable(fx.server, 0, nil, nil)

	// A no-op patch (empty blob, no renumbering) keeps the table
	// untouched while still consuming sequences.
	b1 := MutationBatch{Ver: MutationBatchVersion, Seq: 1, Ops: []RowOp{{Kind: OpPatch, Pre: 2}}}
	if _, err := m.Mutate(b1); err != nil {
		t.Fatal(err)
	}
	reply, err := m.Mutate(b1)
	if err != nil {
		t.Fatalf("exact redelivery: %v", err)
	}
	if reply.LastSeq != 1 {
		t.Fatalf("redelivery ack LastSeq = %d, want 1", reply.LastSeq)
	}
	collide := MutationBatch{Ver: MutationBatchVersion, Seq: 1, Ops: []RowOp{{Kind: OpPatch, Pre: 3}}}
	if _, err := m.Mutate(collide); !IsBatchMismatch(err) {
		t.Fatalf("colliding batch got %v, want BatchMismatchError", err)
	} else if Retryable(err) {
		t.Fatal("BatchMismatchError must not be retryable")
	}

	// The rejection must survive the RMI boundary as a matchable error.
	srv := rmi.NewServer()
	RegisterServer(srv, m)
	cli := rmi.Pipe(srv)
	defer cli.Close()
	if _, err := NewRemote(cli).Mutate(collide); !IsBatchMismatch(err) {
		t.Fatalf("over the wire: got %v, want batch mismatch", err)
	}

	// Replay seeds the history: a restarted server verifies pre-crash
	// sequences too.
	m2 := NewMutable(fx.server, 0, nil, nil)
	if err := m2.Replay(b1); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Mutate(collide); !IsBatchMismatch(err) {
		t.Fatalf("after replay: got %v, want BatchMismatchError", err)
	}
	if _, err := m2.Mutate(b1); err != nil {
		t.Fatalf("exact redelivery after replay: %v", err)
	}
}

// TestMutateDigestWindow pins the window semantics: a sequence older
// than digestWindow is acknowledged unverified (the digest is gone),
// while anything inside the window is still checked.
func TestMutateDigestWindow(t *testing.T) {
	fx := newFixture(t, testXML)
	m := NewMutable(fx.server, 0, nil, nil)
	total := uint64(digestWindow + 2)
	for seq := uint64(1); seq <= total; seq++ {
		if _, err := m.Mutate(MutationBatch{Ver: MutationBatchVersion, Seq: seq}); err != nil {
			t.Fatal(err)
		}
	}
	// Seq 1 fell out of the window: a differing batch acks unverified.
	old := MutationBatch{Ver: MutationBatchVersion, Seq: 1, Ops: []RowOp{{Kind: OpPatch, Pre: 2}}}
	if _, err := m.Mutate(old); err != nil {
		t.Fatalf("out-of-window redelivery: %v", err)
	}
	// The oldest retained sequence is still verified.
	oldest := total - digestWindow + 1
	inWindow := MutationBatch{Ver: MutationBatchVersion, Seq: oldest, Ops: []RowOp{{Kind: OpPatch, Pre: 2}}}
	if _, err := m.Mutate(inWindow); !IsBatchMismatch(err) {
		t.Fatalf("in-window collision got %v, want BatchMismatchError", err)
	}
}

// FuzzDecodeBatch asserts DecodeBatch never panics, and that whatever
// it accepts re-encodes to a value it accepts again identically (the
// replay path's stability property).
func FuzzDecodeBatch(f *testing.F) {
	seed, _ := EncodeBatch(testBatch())
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{1, 1, 1, OpPut})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBatch(data)
		if err != nil {
			return
		}
		enc, err := EncodeBatch(b)
		if err != nil {
			t.Fatalf("re-encode of accepted batch failed: %v", err)
		}
		b2, err := DecodeBatch(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		enc2, _ := EncodeBatch(b2)
		if !bytes.Equal(enc, enc2) {
			t.Fatal("canonical encoding not a fixed point")
		}
	})
}

// TestTypedErrorMatchers: every Is* matcher accepts its typed error,
// the error wrapped with %w, and its message as a wire RemoteError, and
// rejects a RemoteError carrying another matcher's prefix.
func TestTypedErrorMatchers(t *testing.T) {
	cases := []struct {
		name  string
		is    func(error) bool
		typed error
		other string // a prefix this matcher must not accept
	}{
		{"IsStaleEpoch", IsStaleEpoch, &StaleEpochError{Pinned: 1, Current: 2}, seqGapPrefix},
		{"IsSeqGap", IsSeqGap, &SeqGapError{Want: 3, Got: 5}, staleEpochPrefix},
		{"IsWALFailed", IsWALFailed, &WALFailedError{Tenant: "t", Err: errors.New("fsync")}, batchMismatchPrefix},
		{"IsBatchMismatch", IsBatchMismatch, &BatchMismatchError{Seq: 4}, walFailedPrefix},
		{"IsLeaseHeld", IsLeaseHeld, &LeaseHeldError{Holder: "w", RetryAfterMillis: 9}, leaseExpiredPrefix},
		{"IsLeaseExpired", IsLeaseExpired, &LeaseExpiredError{ID: 6}, leaseHeldPrefix},
	}
	for _, c := range cases {
		for _, e := range []struct {
			desc string
			err  error
			want bool
		}{
			{"typed", c.typed, true},
			{"wrapped", fmt.Errorf("shard 1: %w", c.typed), true},
			{"remote", &rmi.RemoteError{Msg: c.typed.Error()}, true},
			{"remote, other prefix", &rmi.RemoteError{Msg: c.other + ": x"}, false},
			{"nil", nil, false},
		} {
			if got := c.is(e.err); got != e.want {
				t.Errorf("%s(%s %v) = %v, want %v", c.name, e.desc, e.err, got, e.want)
			}
		}
	}
}
