package engine

import (
	"context"
	"fmt"
	"slices"
	"time"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/ridset"
)

// deltaStore is the active tail of the write-optimized store of paper §4.3:
// an append-only ED9 dictionary (one entry per inserted row, unsorted by
// arrival, frequency hiding by construction) whose attribute vector is the
// identity AV[i] = i by construction — it is never materialized; consumers
// compute codes on the fly. Inserting into it leaks neither order nor
// frequency. Appends happen only under the table write lock; readers work
// against length-capped captures of entries, which appends never rewrite
// below the captured length.
type deltaStore struct {
	entries [][]byte
	bytes   int
}

func newDeltaStore() *deltaStore {
	return &deltaStore{}
}

// append adds one re-encrypted value.
func (d *deltaStore) append(payload []byte) {
	d.entries = append(d.entries, payload)
	d.bytes += len(payload)
}

// sizeBytes returns the storage footprint of the tail. The identity
// attribute vector is implicit and costs nothing.
func (d *deltaStore) sizeBytes() int { return d.bytes }

// cut returns the tail without its first n rows, which a seal build or a
// merge consumed. The rest is copied so the consumed entries can be freed;
// pinned versions keep their own captures.
func (d *deltaStore) cut(n int) *deltaStore {
	rest := &deltaStore{entries: slices.Clone(d.entries[n:])}
	for _, e := range rest.entries {
		rest.bytes += len(e)
	}
	return rest
}

// startSeal admits a background seal build of the table if its tail is due
// (sealDue) and no build is pending. Admission and wg.Add are one step under
// closeMu, as for MergeAsync, so Close drains a build it raced with and
// admits none after. A write that makes the tail due while a build is
// finishing loses the admission race to it, so a build that leaves the tail
// short calls startSeal again once it is no longer pending.
func (db *DB) startSeal(t *table) {
	if !db.sealDue(t) || !t.sealing.CompareAndSwap(false, true) {
		return
	}
	db.closeMu.Lock()
	defer db.closeMu.Unlock()
	if db.closed.Load() {
		t.sealing.Store(false)
		return
	}
	db.wg.Add(1)
	go func() {
		defer db.wg.Done()
		short := db.sealRuns(t)
		if h := db.mergeHooks.sealIdle; h != nil && short {
			h(t.schema.Table)
		}
		t.sealing.Store(false)
		if short {
			db.startSeal(t)
		}
	}()
}

// sealDue reports whether a seal build could seal a run of t now: its tail
// holds a full run, and the enclave holds the column keys or none are needed.
func (db *DB) sealDue(t *table) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.tailLenLocked() >= db.opts.sealRows && (t.plain || db.encl.Provisioned())
}

// sealRuns seals the tail's leading sealRows rows, as long as it holds that
// many: each column's rows are rebuilt as a split of the column's own kind
// and appended to its sealed chain, so a sealed run is searched, scanned,
// rendered and merged like the main store. The build reads a capture of the
// entries and runs off the table lock; only the install — append the
// splits, cut their rows from the tail — takes the write lock, and it moves
// no RecordID. Until then the rows are ordinary tail rows. sealMu serializes
// builds with each other and with the merge pipeline, so neither consumes
// rows the other took. Encrypted columns need the column keys: before the
// enclave is provisioned (recovery replays earlier) their rows stay in the
// tail, to be sealed once Provision hands the enclave its key. A failed
// build is recorded in lastMergeErr and leaves the tail as it was. It
// reports whether it stopped because the tail was short of a run.
func (db *DB) sealRuns(t *table) (short bool) {
	t.sealMu.Lock()
	defer t.sealMu.Unlock()
	n := db.opts.sealRows
	for !db.closed.Load() && (t.plain || db.encl.Provisioned()) {
		t.mu.RLock()
		if t.tailLenLocked() < n {
			t.mu.RUnlock()
			return true
		}
		tails := make(map[string][][]byte, len(t.cols))
		for name, c := range t.cols {
			tails[name] = c.tail.entries[:n:n]
		}
		t.mu.RUnlock()
		if h := db.mergeHooks.sealBuild; h != nil {
			h(t.schema.Table)
		}
		start := time.Now()
		runs := make(map[string]*dict.Split, len(t.cols))
		var err error
		for name, c := range t.cols {
			if runs[name], err = db.buildRun(c, tails[name]); err != nil {
				break
			}
		}
		db.metrics.sealFinished(start)
		t.mu.Lock()
		if err != nil {
			t.lastMergeErr = fmt.Sprintf("engine: seal %q: %v", t.schema.Table, err)
			t.mu.Unlock()
			return false
		}
		for name, c := range t.cols {
			// Readers read a captured chain only below its length, which
			// append never rewrites.
			c.sealed = append(c.sealed, runs[name])
			c.tail = c.tail.cut(n)
		}
		t.mu.Unlock()
	}
	return false
}

// buildRun rebuilds a column's captured tail rows, in row order, as a split
// of the column's kind: inside the enclave through the merge ECALL for an
// encrypted column (the rows' ED9 identity attribute vector is MergeInput's
// nil AV), locally for a plain one.
func (db *DB) buildRun(c *column, entries [][]byte) (*dict.Split, error) {
	if c.def.Plain {
		return buildPlain(c.def, entries)
	}
	return db.encl.MergeColumns(columnMeta(c.table, c.def), c.def.BSMax, enclave.MergeInput{Region: tailRegion(entries)})
}

// Row is one inserted row: column name to value. Values of encrypted columns
// are PAE ciphertexts under the column key (produced by the proxy); values
// of plain columns are plaintext.
type Row map[string][]byte

// prepareRow validates a row and produces the payloads to store: encrypted
// values are re-encrypted inside the enclave with a fresh IV so the stored
// ciphertext cannot be linked to the insert message (paper §4.3); plain
// values are length-checked and defensively copied. No table state is read
// or written, so preparation runs outside the table lock — write critical
// sections stay brief.
func (db *DB) prepareRow(t *table, row Row) (Row, error) {
	payloads := make(Row, len(t.cols))
	for name, c := range t.cols {
		v, ok := row[name]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrMissingColumn, name)
		}
		if c.def.Plain {
			if len(v) > c.def.MaxLen {
				return nil, fmt.Errorf("engine: value for %q exceeds max length %d", name, c.def.MaxLen)
			}
			payloads[name] = append([]byte(nil), v...)
			continue
		}
		fresh, err := db.encl.ReencryptValue(columnMeta(c.table, c.def), v)
		if err != nil {
			return nil, fmt.Errorf("engine: insert %q: %w", name, err)
		}
		payloads[name] = fresh
	}
	return payloads, nil
}

// commitRowsLocked appends fully prepared rows to the tail and installs the
// grown copy-on-write validity bitmap. It cannot fail — preparation already
// validated everything — which is what makes multi-row writes atomic. The
// caller, holding the table write lock, starts a seal build (startSeal) once
// it has released it.
func (db *DB) commitRowsLocked(t *table, payloads []Row) {
	for _, p := range payloads {
		for name, c := range t.cols {
			c.tail.append(p[name])
		}
	}
	n := t.mainRows + t.deltaRows
	valid := t.valid.Clone()
	valid.Grow(n + len(payloads))
	for i := range payloads {
		valid.Add(uint32(n + i))
	}
	t.deltaRows += len(payloads)
	t.valid = valid
}

// InsertBatch appends rows to the table's delta stores — the paper's
// insert (§4.3): each value is re-encrypted inside the enclave, then
// appended. A single INSERT is a batch of one. The batch is all-or-nothing:
// every row is validated and re-encrypted before any table state changes,
// so a bad row leaves the table untouched. Only this table is write-locked,
// once per batch and only for the bitmap update and tail append, so traffic
// on other tables and concurrent reads of this one proceed. Under the commit
// log's append gate and that lock one write record carrying every row is
// logged and applied in memory; durability is awaited after both are
// released, before acknowledging.
func (db *DB) InsertBatch(ctx context.Context, tableName string, rows []Row) error {
	if len(rows) == 0 {
		return nil
	}
	if err := ctxErr(ctx); err != nil {
		return err
	}
	t, err := db.lookup(tableName)
	if err != nil {
		return err
	}
	if err := t.checkWriteDigest(ctx, tableName); err != nil {
		return err
	}
	if err := t.readyCheck(); err != nil {
		return err
	}
	payloads := make([]Row, len(rows))
	for i, row := range rows {
		if payloads[i], err = db.prepareRow(t, row); err != nil {
			return fmt.Errorf("engine: batch row %d: %w", i, err)
		}
	}
	end := db.gateWrite(tableName)
	t.mu.Lock()
	if err := t.ready(); err != nil {
		t.mu.Unlock()
		end()
		return err
	}
	commit, err := db.logWriteLocked(t, tableName, nil, payloads)
	if err != nil {
		t.mu.Unlock()
		end()
		return err
	}
	db.commitRowsLocked(t, payloads)
	t.mu.Unlock()
	end()
	db.startSeal(t)
	if commit != nil {
		if err := commit(); err != nil {
			return err
		}
	}
	return nil
}

// Delete invalidates all rows matching the filters and returns how many rows
// it removed. Deletions are realized as validity-bit updates (paper §4.3):
// one word-parallel AndNot into a fresh copy-on-write bitmap. Match and
// invalidation happen atomically under the table write lock so a concurrent
// merge swap cannot remap RecordIDs in between.
func (db *DB) Delete(ctx context.Context, tableName string, filters []Filter) (int, error) {
	if err := ctxErr(ctx); err != nil {
		return 0, err
	}
	t, err := db.lookup(tableName)
	if err != nil {
		return 0, err
	}
	if err := t.checkWriteDigest(ctx, tableName); err != nil {
		return 0, err
	}
	end := db.gateWrite(tableName)
	t.mu.Lock()
	if err := t.ready(); err != nil {
		t.mu.Unlock()
		end()
		return 0, err
	}
	match, err := db.matchValidLocked(ctx, t, filters)
	if err != nil {
		t.mu.Unlock()
		end()
		return 0, err
	}
	removed := match.Len()
	var rids []uint32
	if db.cl != nil {
		rids = match.Slice()
	}
	commit, err := db.logWriteLocked(t, tableName, rids, nil)
	if err != nil {
		t.mu.Unlock()
		end()
		return 0, err
	}
	valid := t.valid.Clone()
	valid.AndNot(match)
	t.valid = valid
	t.mu.Unlock()
	end()
	if commit != nil {
		if err := commit(); err != nil {
			return 0, err
		}
	}
	return removed, nil
}

// Update rewrites all rows matching the filters: the old row is invalidated
// and a new row — the old cells with the set values substituted — is
// appended to the delta store. Match, render, invalidate and append happen
// atomically under the table write lock, and the whole statement is
// all-or-nothing: every replacement row is validated and re-encrypted
// before any state changes. Returns the number of updated rows.
func (db *DB) Update(ctx context.Context, tableName string, filters []Filter, set Row) (int, error) {
	if err := ctxErr(ctx); err != nil {
		return 0, err
	}
	t, err := db.lookup(tableName)
	if err != nil {
		return 0, err
	}
	if err := t.checkWriteDigest(ctx, tableName); err != nil {
		return 0, err
	}
	end := db.gateWrite(tableName)
	t.mu.Lock()
	if err := t.ready(); err != nil {
		t.mu.Unlock()
		end()
		return 0, err
	}
	match, err := db.matchValidLocked(ctx, t, filters)
	if err != nil {
		t.mu.Unlock()
		end()
		return 0, err
	}
	rids := match.Slice()
	if len(rids) == 0 {
		t.mu.Unlock()
		end()
		return 0, nil
	}
	// Render the full matching rows (all columns) before invalidating.
	v := t.versionLocked()
	rows := make([]Row, len(rids))
	for i := range rows {
		rows[i] = make(Row, len(t.cols))
	}
	var buf cellBuf
	for name, cv := range v.cols {
		cells := v.render(cv, rids, &buf)
		for i, cell := range cells {
			rows[i][name] = append([]byte(nil), cell...)
		}
	}
	for _, row := range rows {
		for name, val := range set {
			// Copy defensively: set aliases caller buffers, and the row
			// maps outlive this statement inside prepareRow's plain path.
			row[name] = append([]byte(nil), val...)
		}
	}
	payloads := make([]Row, len(rows))
	for i, row := range rows {
		if payloads[i], err = db.prepareRow(t, row); err != nil {
			t.mu.Unlock()
			end()
			return 0, err
		}
	}
	// One record carries both halves of the statement, so replay applies
	// the invalidations and the replacement rows atomically.
	commit, err := db.logWriteLocked(t, tableName, rids, payloads)
	if err != nil {
		t.mu.Unlock()
		end()
		return 0, err
	}
	valid := t.valid.Clone()
	valid.AndNot(match)
	t.valid = valid
	db.commitRowsLocked(t, payloads)
	t.mu.Unlock()
	end()
	db.startSeal(t)
	if commit != nil {
		if err := commit(); err != nil {
			return 0, err
		}
	}
	return len(rids), nil
}

// matchValidLocked evaluates filters and applies validity; the caller holds
// at least the table's read lock.
func (db *DB) matchValidLocked(ctx context.Context, t *table, filters []Filter) (*ridset.Set, error) {
	return db.matchValid(ctx, t.versionLocked(), filters, 0)
}
