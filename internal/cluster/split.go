package cluster

import "encshare/internal/store"

// SplitStore copies the rows of src into one fresh store per range — the
// in-process shard builder used by tests, the experiments, and the
// examples (the CLI path goes through Database.DumpShard instead, which
// writes loadable files). cleanup releases every shard store; it is
// returned non-nil even on error, covering the stores built so far.
func SplitStore(src *store.Store, ranges []Range) (shards []*store.Store, cleanup func(), err error) {
	var dsns []string
	cleanup = func() {
		for i, st := range shards {
			st.Close()
			store.Drop(dsns[i])
		}
	}
	for _, r := range ranges {
		st, dsn, err := src.CopyRange(r.Lo, r.Hi)
		if err != nil {
			return shards, cleanup, err
		}
		shards = append(shards, st)
		dsns = append(dsns, dsn)
	}
	return shards, cleanup, nil
}
