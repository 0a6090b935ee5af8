package store

// ChildCount returns the number of children of the node at pre without
// fetching the rows.
func (s *Store) ChildCount(pre int64) (int64, error) {
	tb := s.tbl
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	var n int64
	tb.kids.scanFrom(treeKey{a: pre, b: minInt64}, func(k treeKey, _ rid) bool {
		if k.a != pre {
			return false
		}
		n++
		return true
	})
	return n, nil
}
