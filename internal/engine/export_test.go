package engine

import "github.com/encdbdb/encdbdb/internal/dict"

// SetMergeHooks installs test instrumentation inside the background merge
// pipeline: afterPin runs once the base version is pinned (the rebuild is
// about to start, no lock held), beforeSwap runs when the rebuilt stores
// are ready but not yet installed. Neither runs under the table lock.
// Install hooks before starting traffic; nil clears a hook.
func (db *DB) SetMergeHooks(afterPin, beforeSwap func(table string)) {
	db.mergeHooks.afterPin = afterPin
	db.mergeHooks.beforeSwap = beforeSwap
}

// SetSealHook installs h to run in every seal build once it has captured
// the tail rows it rebuilds, before the build (no lock held); nil clears it.
func (db *DB) SetSealHook(h func(table string)) { db.mergeHooks.sealBuild = h }

// SealedRuns settles the table's seal builds — it waits for one in flight
// and seals every further full run itself — and reports the sealed-run
// chain length, for tests asserting the sealing policy.
func (db *DB) SealedRuns(tableName string) (int, error) {
	t, err := db.lookup(tableName)
	if err != nil {
		return 0, err
	}
	db.sealRuns(t)
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.sealedRunsLocked(), nil
}

// Splits returns a column's current main store and sealed runs, for tests
// that inspect what the provider stores.
func (db *DB) Splits(tableName, column string) (main *dict.Split, sealed []*dict.Split, err error) {
	t, err := db.lookup(tableName)
	if err != nil {
		return nil, nil, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	c := t.cols[column]
	return c.main, c.sealed, nil
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
			s, j := cv.main, int(r)
			for _, run := range cv.sealed {
				if j < s.Rows() {
					break
				}
				j -= s.Rows()
				s = run
			}
			if j < s.Rows() {
				cells[i] = s.AppendEntry(nil, int(s.VID(j)))
			} else {
				cells[i] = cv.tail[j-s.Rows()]
			}
		}
		return cells
	}
	return render, entries, nil
}

// SetSealIdleHook installs h to run in every background seal build that
// found the tail short of a run, before the build stops counting as
// pending; nil clears it.
func (db *DB) SetSealIdleHook(h func(table string)) { db.mergeHooks.sealIdle = h }
