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
