package engine

import (
	"fmt"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/ridset"
)

// ColumnSnapshot is the serializable state of one column store. Delta is the
// flattened delta chain — sealed runs in order followed by the active tail —
// in RecordID order, each row as a self-contained PAE ciphertext (or plain
// value); the sealed/tail boundary is a runtime performance detail and is
// not persisted.
type ColumnSnapshot struct {
	Name  string
	Main  *dict.Split
	Delta [][]byte
}

// TableSnapshot is the serializable state of one table: schema, validity
// vectors and all column stores. The storage package persists it to disk
// (the paper's in-memory database uses disk as secondary storage for
// persistency, §2.1); the wire package ships it for bulk deployment. The
// validity vectors keep their []bool wire shape even though the engine
// tracks validity as a bitmap, so existing snapshots stay readable.
type TableSnapshot struct {
	Schema     Schema
	MainValid  []bool
	DeltaValid []bool
	Columns    []ColumnSnapshot
}

// Snapshot captures the full state of a table. It pins a version like a
// query does, so an in-flight background merge or concurrent writers never
// block it — the snapshot is consistent as of the pin.
func (db *DB) Snapshot(tableName string) (*TableSnapshot, error) {
	t, err := db.lookup(tableName)
	if err != nil {
		return nil, err
	}
	t.mu.RLock()
	v := t.versionLocked()
	t.mu.RUnlock()
	snap := &TableSnapshot{
		Schema:     t.schema,
		MainValid:  validBools(v.valid, 0, v.mainRows),
		DeltaValid: validBools(v.valid, v.mainRows, v.deltaRows),
	}
	for _, def := range t.schema.Columns {
		cv := v.cols[def.Name]
		cs := ColumnSnapshot{Name: def.Name, Main: cv.main}
		for _, run := range cv.sealed {
			cs.Delta = appendCells(cs.Delta, run, nil, 0)
		}
		cs.Delta = append(cs.Delta, cv.tail...)
		snap.Columns = append(snap.Columns, cs)
	}
	return snap, nil
}

// Restore installs a snapshot as a new table. The table must not exist.
// With a commit log installed, the restore is made durable by cutting a
// checkpoint image of the snapshot (no per-row records are logged); the
// restore is acknowledged only once the image is on disk, and a failed
// checkpoint rolls the in-memory table back out.
func (db *DB) Restore(snap *TableSnapshot) error {
	if err := snap.Schema.Validate(); err != nil {
		return err
	}
	if len(snap.Columns) != len(snap.Schema.Columns) {
		return fmt.Errorf("engine: snapshot has %d column stores for %d schema columns",
			len(snap.Columns), len(snap.Schema.Columns))
	}
	endGate := db.gateCheckpoint(snap.Schema.Table)
	t, err := db.restoreGated(snap)
	endGate()
	if err != nil {
		return err
	}
	// A restored delta beyond the seal threshold gets its sealed runs before
	// Restore returns, exactly as if the rows had arrived through inserts.
	// The seal runs outside the append gate, which a merge of the new table
	// may be waiting for while it holds the seal lock.
	db.sealRuns(t)
	return nil
}

// restoreGated installs and checkpoints the snapshot's table; the caller
// holds the table's exclusive append gate.
func (db *DB) restoreGated(snap *TableSnapshot) (*table, error) {
	if err := db.createTable(snap.Schema, false); err != nil {
		return nil, err
	}
	restore := func(t *table) error {
		t.mu.Lock()
		defer t.mu.Unlock()
		mainRows := -1
		for _, cs := range snap.Columns {
			c, ok := t.cols[cs.Name]
			if !ok {
				return fmt.Errorf("%w: %q", ErrNoSuchColumn, cs.Name)
			}
			s := cs.Main
			if s == nil {
				return fmt.Errorf("engine: restore %q: no main store", cs.Name)
			}
			if s.Kind != c.def.Kind || s.Plain != c.def.Plain {
				return fmt.Errorf("engine: restore %q: split kind mismatch", cs.Name)
			}
			if mainRows >= 0 && s.Rows() != mainRows {
				return fmt.Errorf("%w: %q", ErrRowMismatch, cs.Name)
			}
			mainRows = s.Rows()
			c.main = s
			c.imported = s.Rows() > 0
			for _, e := range cs.Delta {
				c.tail.append(e)
			}
			if len(cs.Delta) != len(snap.DeltaValid) {
				return fmt.Errorf("engine: restore %q: %d delta rows, %d validity flags",
					cs.Name, len(cs.Delta), len(snap.DeltaValid))
			}
		}
		if mainRows != len(snap.MainValid) {
			return fmt.Errorf("engine: snapshot has %d main rows but %d validity flags",
				mainRows, len(snap.MainValid))
		}
		t.mainRows = mainRows
		t.deltaRows = len(snap.DeltaValid)
		valid := ridset.New(mainRows + t.deltaRows)
		for i, ok := range snap.MainValid {
			if ok {
				valid.Add(uint32(i))
			}
		}
		for i, ok := range snap.DeltaValid {
			if ok {
				valid.Add(uint32(mainRows + i))
			}
		}
		t.valid = valid
		return nil
	}
	t, err := db.lookup(snap.Schema.Table)
	if err == nil {
		err = restore(t)
	}
	if err != nil {
		// Leave no half-restored table behind.
		_ = db.dropTable(snap.Schema.Table, false)
		return nil, err
	}
	if db.cl != nil {
		if err := db.cl.Checkpoint(snap.Schema.Table, 0, snap); err != nil {
			_ = db.dropTable(snap.Schema.Table, false)
			return nil, fmt.Errorf("engine: restore %q: checkpoint: %w", snap.Schema.Table, err)
		}
	}
	return t, nil
}
