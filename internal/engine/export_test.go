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
// one column over it: the batched render, rendering call after call into one
// buffer as a cursor does, and the per-row reference it must agree with.
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
	var buf cellBuf
	render = func(rids []uint32) [][]byte {
		buf.cells, buf.arena = buf.cells[:0], buf.arena[:0]
		return v.render(cv, rids, &buf)
	}
	entries = func(rids []uint32) [][]byte {
		cells := make([][]byte, len(rids))
		for i, r := range rids {
			if int(r) < v.mainRows {
				cells[i] = cv.main.AppendEntry(nil, int(cv.main.VID(int(r))))
			} else {
				cells[i] = cv.deltaEntry(int(r) - v.mainRows)
			}
		}
		return cells
	}
	return render, entries, nil
}
