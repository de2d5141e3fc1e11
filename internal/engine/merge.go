package engine

import (
	"context"
	"fmt"
	"slices"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/ridset"
)

// MergeInfo is the observable state of a table's delta/merge lifecycle —
// what MERGE STATUS reports to remote clients.
type MergeInfo struct {
	// Generation counts main-store versions: it starts at 0 and every
	// completed merge swap bumps it.
	Generation uint64
	// Merging reports an in-flight merge pipeline (pin, enclave rebuild,
	// or swap).
	Merging bool
	// MainRows and DeltaRows describe the current version's store sizes;
	// DeltaBytes and SealedRuns the delta chain feeding the next merge.
	MainRows   int
	DeltaRows  int
	DeltaBytes int
	SealedRuns int
	// Merges counts completed merges; LastError is the most recent merge
	// or seal-build failure ("" once a merge has succeeded since).
	Merges    uint64
	LastError string
}

// MergeStatus reports the table's delta/merge lifecycle state.
func (db *DB) MergeStatus(ctx context.Context, tableName string) (MergeInfo, error) {
	if err := ctxErr(ctx); err != nil {
		return MergeInfo{}, err
	}
	t, err := db.lookup(tableName)
	if err != nil {
		return MergeInfo{}, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return MergeInfo{
		Generation: t.gen,
		Merging:    t.merging.Load(),
		MainRows:   t.mainRows,
		DeltaRows:  t.deltaRows,
		DeltaBytes: t.deltaBytesLocked(),
		SealedRuns: t.sealedRunsLocked(),
		Merges:     t.merges,
		LastError:  t.lastMergeErr,
	}, nil
}

// Merge folds each column's delta chain into its main store (paper §4.3):
// inside the enclave, the valid rows of the main store and every sealed
// delta run are reconstructed, re-encrypted under fresh IVs, and rebuilt
// under the column's encrypted dictionary with a fresh rotation/shuffle, so
// the new main store carries no linkable relation to the old stores.
// Invalidated rows are garbage collected. Plain columns are rebuilt locally
// with the same algorithms.
//
// The call is synchronous — it returns when the merge has been applied —
// but the table is locked only for two brief critical sections (pinning the
// base version, swapping the rebuilt store in); the enclave rebuild itself
// runs off-lock, so concurrent Selects and writers on this table proceed
// throughout. Writes that land during the rebuild survive it: the swap
// replays validity changes onto the new store and keeps the tail rows
// appended since the pin as the new delta. At most one merge per table runs
// at a time; a second Merge waits its turn.
func (db *DB) Merge(ctx context.Context, tableName string) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	t, err := db.lookup(tableName)
	if err != nil {
		return err
	}
	t.mergeMu.Lock()
	defer t.mergeMu.Unlock()
	return db.mergePass(tableName, t)
}

// MergeAsync starts a background merge and returns immediately. It reports
// false if a merge is already in flight (the table will be merged anyway)
// and an error if the table does not exist, is not queryable, or the
// database is closed. The merge's own outcome is observable through
// MergeStatus.
func (db *DB) MergeAsync(ctx context.Context, tableName string) (started bool, err error) {
	if err := ctxErr(ctx); err != nil {
		return false, err
	}
	t, err := db.lookup(tableName)
	if err != nil {
		return false, err
	}
	if err := t.readyCheck(); err != nil {
		return false, err
	}
	if !t.mergeMu.TryLock() {
		return false, nil
	}
	// Admission and wg.Add are one step under closeMu, so Close's drain
	// always covers a merge it raced with.
	db.closeMu.Lock()
	if db.closed.Load() {
		db.closeMu.Unlock()
		t.mergeMu.Unlock()
		return false, ErrClosed
	}
	db.wg.Add(1)
	go func() {
		defer db.wg.Done()
		defer t.mergeMu.Unlock()
		db.mergePass(tableName, t) //nolint:errcheck // recorded in lastMergeErr
	}()
	db.closeMu.Unlock()
	return true, nil
}

// mergePass runs one merge pipeline and records its outcome in
// lastMergeErr so MergeStatus surfaces synchronous and background failures
// alike; the caller holds mergeMu.
func (db *DB) mergePass(tableName string, t *table) error {
	t.merging.Store(true)
	defer t.merging.Store(false)
	start := db.metrics.mergeStarted()
	defer db.metrics.mergeFinished(start)
	err := db.runMerge(tableName, t)
	if err != nil {
		t.mu.Lock()
		t.lastMergeErr = err.Error()
		t.mu.Unlock()
	}
	return err
}

// runMerge is the merge pipeline body; the caller holds mergeMu. It holds
// sealMu throughout, so no seal build takes rows the rebuild consumes; a
// write that finds the tail due meanwhile admits a build that waits for it.
func (db *DB) runMerge(tableName string, t *table) error {
	t.sealMu.Lock()
	defer t.sealMu.Unlock()
	// 1. Pin the version the rebuild will consume: main store, sealed runs
	// and tail. Brief critical section.
	t.mu.RLock()
	if err := t.ready(); err != nil {
		t.mu.RUnlock()
		return err
	}
	base := t.versionLocked()
	t.mu.RUnlock()
	if h := db.mergeHooks.afterPin; h != nil {
		h(tableName)
	}

	// 2. Rebuild off-lock: the enclave reconstructs and re-encrypts the
	// pinned stores while reads and writes proceed against the live table.
	merged, newRows, err := db.rebuild(tableName, base)
	if err != nil {
		return err
	}
	if h := db.mergeHooks.beforeSwap; h != nil {
		h(tableName)
	}

	// 3. Swap: install the new main store and replay what accrued during
	// the rebuild. Brief critical section — except when a commit log is
	// installed: the swap compacts the RecordID space, making every earlier
	// log record unreplayable onto the new store, so the exclusive append
	// gate is held from just before the swap until the checkpoint has
	// durably cut the post-swap image. Writers on this table stall for the
	// image write; queries proceed throughout.
	endGate := db.gateCheckpoint(tableName)
	defer endGate()
	t.mu.Lock()
	db.swapLocked(t, base, merged, newRows)
	gen := t.gen
	t.mu.Unlock()
	return db.checkpointMerged(tableName, gen)
}

// rebuild produces the new main store of every column from the pinned base
// version: the valid rows of the main store, all sealed runs and the tail,
// compacted in RecordID order. It takes no locks — base is immutable.
func (db *DB) rebuild(tableName string, base *version) (map[string]*dict.Split, int, error) {
	merged := make(map[string]*dict.Split, len(base.cols))
	newRows := -1
	for name, cv := range base.cols {
		var (
			s   *dict.Split
			err error
		)
		if cv.def.Plain {
			s, err = mergePlain(base, cv)
		} else {
			inputs := make([]enclave.MergeInput, 0, 2+len(cv.sealed))
			off := 0
			for _, split := range cv.splits() {
				inputs = append(inputs, enclave.MergeInput{
					Region: split, AV: split.Packed(), Valid: validBools(base.valid, off, split.Rows()),
				})
				off += split.Rows()
			}
			inputs = append(inputs, enclave.MergeInput{Region: cv.tail, Valid: validBools(base.valid, off, len(cv.tail))})
			s, err = db.encl.MergeColumns(columnMeta(cv.table, cv.def), cv.def.BSMax, inputs...)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("engine: merge %q.%q: %w", tableName, name, err)
		}
		if newRows >= 0 && s.Rows() != newRows {
			return nil, 0, fmt.Errorf("engine: merge %q: column %q rebuilt %d rows, want %d",
				tableName, name, s.Rows(), newRows)
		}
		merged[name] = s
		newRows = s.Rows()
	}
	return merged, newRows, nil
}

// swapLocked installs the rebuilt main stores and reconciles the state that
// accrued since base was pinned: rows invalidated during the rebuild are
// re-invalidated at their compacted positions in the new store, and the
// tail rows appended during the rebuild carry over (with their validity
// bits) as the new version's delta. The caller holds the table write lock,
// mergeMu and sealMu — so no run was sealed since the pin, and the live
// tail still begins with the pinned one.
func (db *DB) swapLocked(t *table, base *version, merged map[string]*dict.Split, newRows int) {
	// Rows [0, baseRows) were fed to the rebuild; everything past them is
	// delta appended during the rebuild and survives the swap.
	baseRows := base.rows()
	surviving := t.mainRows + t.deltaRows - baseRows
	cur := t.valid

	valid := ridset.New(newRows + surviving)
	newRID := 0
	for j := 0; j < baseRows; j++ {
		if !base.valid.Contains(uint32(j)) {
			continue // garbage collected by the rebuild
		}
		if cur.Contains(uint32(j)) {
			valid.Add(uint32(newRID))
		}
		newRID++
	}
	for i := 0; i < surviving; i++ {
		if cur.Contains(uint32(baseRows + i)) {
			valid.Add(uint32(newRows + i))
		}
	}

	for name, c := range t.cols {
		c.main = merged[name]
		c.sealed = nil
		c.tail = c.tail.cut(len(base.cols[name].tail))
		c.imported = c.imported || newRows > 0
	}
	t.mainRows = newRows
	t.deltaRows = surviving
	t.valid = valid
	t.gen++
	t.merges++
	t.lastMergeErr = ""
}

// mergePlain rebuilds a plain column locally from the valid rows of the
// pinned base version.
func mergePlain(base *version, cv *colVersion) (*dict.Split, error) {
	var col [][]byte
	off := 0
	for _, split := range cv.splits() {
		col = appendCells(col, split, base.valid, off)
		off += split.Rows()
	}
	for j, e := range cv.tail {
		if base.valid.Contains(uint32(off + j)) {
			col = append(col, e)
		}
	}
	return buildPlain(cv.def, col)
}

// appendCells appends, in row order, the cells of split's rows j whose
// RecordID off+j is in keep — every row's when keep is nil.
func appendCells(col [][]byte, split *dict.Split, keep *ridset.Set, off int) [][]byte {
	rows := make([]uint32, 0, split.Rows())
	for j := 0; j < split.Rows(); j++ {
		if keep == nil || keep.Contains(uint32(off+j)) {
			rows = append(rows, uint32(j))
		}
	}
	n := len(col)
	col = slices.Grow(col, len(rows))[:n+len(rows)]
	split.Gather(nil, col[n:], rows)
	return col
}

// buildPlain splits a plain column locally under its kind, with a fresh
// shuffle and rotation.
func buildPlain(def ColumnDef, col [][]byte) (*dict.Split, error) {
	rnd, err := dict.NewRand()
	if err != nil {
		return nil, err
	}
	return dict.Build(col, dict.Params{
		Kind:   def.Kind,
		MaxLen: def.MaxLen,
		BSMax:  def.BSMax,
		Plain:  true,
		Rand:   rnd,
	})
}
