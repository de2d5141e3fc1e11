package engine

// SetMergeHooks installs test instrumentation inside the background merge
// pipeline: afterSeal runs once the tail is sealed and the base version
// pinned (the rebuild is about to start, no lock held), beforeSwap runs when
// the rebuilt stores are ready but not yet installed. Neither runs under the
// table lock. Install hooks before starting traffic; nil clears a hook.
func (db *DB) SetMergeHooks(afterSeal, beforeSwap func(table string)) {
	db.mergeHooks.afterSeal = afterSeal
	db.mergeHooks.beforeSwap = beforeSwap
}

// SealedRuns reports the current sealed-run chain length of a table, for
// tests asserting the sealing policy.
func (db *DB) SealedRuns(tableName string) (int, error) {
	t, err := db.lookup(tableName)
	if err != nil {
		return 0, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.sealedRunsLocked(), nil
}

// Renderers pins the current version of a table and returns two renders of
// one column over it: the batched render, and the per-row reference (entry)
// it must agree with.
func (db *DB) Renderers(tableName, column string) (render, entries func(rids []uint32) [][]byte, err error) {
	t, err := db.lookup(tableName)
	if err != nil {
		return nil, nil, err
	}
	v, err := t.pin()
	if err != nil {
		return nil, nil, err
	}
	cv := v.cols[column]
	render = func(rids []uint32) [][]byte { return v.render(cv, rids) }
	entries = func(rids []uint32) [][]byte {
		cells := make([][]byte, len(rids))
		for i, r := range rids {
			cells[i] = cv.entry(v.mainRows, int(r))
		}
		return cells
	}
	return render, entries, nil
}
