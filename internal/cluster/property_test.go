package cluster_test

import (
	"bytes"
	"math/rand"
	"testing"

	"encshare/internal/cluster"
	"encshare/internal/store"
)

// randomStore builds a store of n rows with random share blobs — the
// partition properties depend only on the pre axis, so no encoder run
// is needed and sizes can range freely.
func randomStore(t *testing.T, rng *rand.Rand, n int) *store.Store {
	t.Helper()
	dsn := store.FreshDSN()
	st, err := store.Open(dsn)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Init(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		st.Close()
		store.Drop(dsn)
	})
	for pre := int64(1); pre <= int64(n); pre++ {
		poly := make([]byte, 1+rng.Intn(40))
		rng.Read(poly)
		if err := st.InsertNode(store.NodeRow{
			Pre:    pre,
			Post:   rng.Int63n(int64(n) * 2),
			Parent: rng.Int63n(pre), // any smaller pre (or 0): enough for range scans
			Poly:   poly,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func equalRows(a, b store.NodeRow) bool {
	return a.Pre == b.Pre && a.Post == b.Post && a.Parent == b.Parent && bytes.Equal(a.Poly, b.Poly)
}

// TestPartitionSplitProperty is the property-style partition test: for
// random store sizes and shard counts, the PartitionEven ranges are
// contiguous, disjoint, and cover the full pre interval, and
// re-concatenating the SplitStore shards' dumps (each round-tripped
// through Dump/Load like a real shard file) reproduces the original
// store row-for-row, byte-for-byte.
func TestPartitionSplitProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260730))
	for iter := 0; iter < 12; iter++ {
		n := 1 + rng.Intn(400)
		shards := 1 + rng.Intn(8)
		if shards > n {
			shards = n
		}
		st := randomStore(t, rng, n)
		lo, hi, err := st.MinMaxPre()
		if err != nil {
			t.Fatal(err)
		}

		ranges, err := cluster.PartitionEven(lo, hi, shards)
		if err != nil {
			t.Fatalf("n=%d shards=%d: %v", n, shards, err)
		}
		// Contiguous, disjoint, covering: each range starts right after
		// its predecessor ends, the first starts at lo, the last ends at
		// hi, and no range is empty.
		next := lo
		for ri, r := range ranges {
			if r.Lo != next {
				t.Fatalf("n=%d shards=%d: range %d starts at %d, want %d", n, shards, ri, r.Lo, next)
			}
			if r.Hi < r.Lo {
				t.Fatalf("n=%d shards=%d: range %d is empty [%d, %d]", n, shards, ri, r.Lo, r.Hi)
			}
			next = r.Hi + 1
		}
		if next != hi+1 {
			t.Fatalf("n=%d shards=%d: ranges end at %d, want %d", n, shards, next-1, hi)
		}

		stores, cleanup, err := cluster.SplitStore(st, ranges)
		if err != nil {
			cleanup()
			t.Fatal(err)
		}

		// Round-trip every shard through its dump (as the CLI shard
		// files do) and re-concatenate in shard order.
		var rebuilt []store.NodeRow
		for si, shardSt := range stores {
			var dump bytes.Buffer
			if err := shardSt.Dump(&dump); err != nil {
				cleanup()
				t.Fatal(err)
			}
			dsn := store.FreshDSN()
			loaded, err := store.Open(dsn)
			if err != nil {
				cleanup()
				t.Fatal(err)
			}
			if err := loaded.Load(&dump); err != nil {
				cleanup()
				t.Fatal(err)
			}
			slo, shi, err := loaded.MinMaxPre()
			if err != nil {
				cleanup()
				t.Fatal(err)
			}
			if slo < ranges[si].Lo || shi > ranges[si].Hi {
				t.Fatalf("shard %d holds pres [%d, %d] outside its range [%d, %d]",
					si, slo, shi, ranges[si].Lo, ranges[si].Hi)
			}
			rows, err := loaded.Range(ranges[si].Lo, ranges[si].Hi)
			if err != nil {
				cleanup()
				t.Fatal(err)
			}
			rebuilt = append(rebuilt, rows...)
			loaded.Close()
			store.Drop(dsn)
		}
		cleanup()

		want, err := st.Range(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if len(rebuilt) != len(want) {
			t.Fatalf("n=%d shards=%d: re-concatenated %d rows, want %d", n, shards, len(rebuilt), len(want))
		}
		for i := range want {
			if !equalRows(rebuilt[i], want[i]) {
				t.Fatalf("n=%d shards=%d: row %d diverges after split+dump+load: %+v != %+v",
					n, shards, i, rebuilt[i], want[i])
			}
		}
	}
}
