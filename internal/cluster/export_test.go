package cluster

// ShardEvalRoundTrips returns per-shard evaluation exchange counts.
func (f *Filter) ShardEvalRoundTrips() []int64 {
	out := make([]int64, len(f.shards))
	for i, sh := range f.shards {
		for _, rep := range sh.replicaList() {
			if rt, ok := rep.conn.(roundTripper); ok {
				out[i] += rt.EvalRoundTrips()
			}
		}
	}
	return out
}
