package engine

import (
	"context"
	"fmt"

	"github.com/encdbdb/encdbdb/internal/av"
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

// deltaRun is a sealed, immutable delta run: the frozen entries of a former
// tail plus the bit-packed identity attribute vector built at seal time,
// which lets the word-parallel packed membership kernel answer the
// attribute-vector phase instead of the O(rows) per-probe linear path the
// tail uses.
type deltaRun struct {
	entries [][]byte
	bytes   int
	packed  *av.Vector
}

// sealRun freezes a tail into an immutable run. The identity codes are
// materialized once, only to feed the packer; the packed vector is the run's
// lasting representation. Identity codes ascend strictly, so PackEncoded's
// per-block frame-of-reference narrows every full block to 10 bits
// regardless of the run's total width.
func sealRun(d *deltaStore) *deltaRun {
	n := len(d.entries)
	return &deltaRun{
		entries: d.entries[:n:n],
		bytes:   d.bytes,
		packed:  av.PackEncoded(identCodes(n), n),
	}
}

// rows returns the run's row count.
func (r *deltaRun) rows() int { return len(r.entries) }

// Len returns the run's row count (implements search.Region).
func (r *deltaRun) Len() int { return len(r.entries) }

// AppendEntry appends run entry i (implements search.Region).
func (r *deltaRun) AppendEntry(dst []byte, i int) []byte { return append(dst, r.entries[i]...) }

// sizeBytes returns the storage footprint of the run including its packed
// attribute vector.
func (r *deltaRun) sizeBytes() int { return r.bytes + r.packed.MemBytes() }

// identCodes materializes the identity ValueID vector 0..n-1, the input
// sealRun packs into a run's attribute vector.
func identCodes(n int) []uint32 {
	codes := make([]uint32, n)
	for i := range codes {
		codes[i] = uint32(i)
	}
	return codes
}

// sealTailLocked seals every column's active tail into a run if the tail
// has reached threshold rows (0 seals any non-empty tail). All columns seal
// together so run boundaries align across the table. The caller holds the
// table write lock.
func (t *table) sealTailLocked(threshold int) {
	n := t.tailLenLocked()
	if n == 0 || n < threshold {
		return
	}
	for _, c := range t.cols {
		run := sealRun(c.tail)
		// Append into a fresh slice so a pinned version's captured chain
		// header never observes in-place growth.
		chain := make([]*deltaRun, 0, len(c.sealed)+1)
		chain = append(chain, c.sealed...)
		c.sealed = append(chain, run)
		c.tail = newDeltaStore()
	}
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
		fresh, err := db.encl.ReencryptValue(db.columnMeta(c), v)
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
// caller holds the table write lock.
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
	t.sealTailLocked(db.opts.sealRows)
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
