package engine

import (
	"fmt"

	"github.com/encdbdb/encdbdb/internal/dict"
)

// RecordType classifies a commit-log record.
type RecordType uint8

// Log record types. Write records carry the appended row payloads and/or the
// invalidated RecordIDs of one engine write statement; the DDL records carry
// the schema, the drop, or one bulk-imported column split.
const (
	RecordCreate RecordType = iota + 1
	RecordDrop
	RecordImport
	RecordWrite
)

// LogRecord is one logical mutation of a table, in the exact order the
// mutation was applied to the in-memory store. Records are self-contained
// for replay: row payloads are the post-re-encryption ciphertexts (or plain
// values) as stored in the delta tail, so replay needs no enclave and no
// provisioned keys.
type LogRecord struct {
	// LSN is the log sequence number, assigned by the log on append.
	LSN uint64
	// Type selects which of the payload fields below are meaningful.
	Type RecordType
	// Table names the mutated table; Gen is the table's main-store
	// generation at append time. A checkpoint image plus the records whose
	// LSN exceeds the checkpoint watermark at the recorded generation
	// reproduces the table exactly; a generation mismatch during replay
	// means the log and image diverged and recovery must fail loudly.
	Table string
	Gen   uint64

	// Write fields. Base is the RecordID the first appended row receives
	// (the table's total row count at append time) — replay validates it so
	// applying a record twice or out of order is impossible. Removed lists
	// the RecordIDs invalidated by the statement; Rows the fully prepared
	// payloads appended by it, column name to stored value.
	Base    uint32
	Removed []uint32
	Rows    []Row

	// Create payload.
	Schema *Schema
	// Import payload.
	Column string
	Split  *dict.Split
}

// CommitLog is the durability hook the engine threads its write path
// through. The engine calls Append under the table (or registry) write lock,
// after all validation and immediately before applying the mutation in
// memory — so per-table log order is exactly apply order — and calls the
// returned commit function after releasing the lock to await durability per
// the log's sync policy before acknowledging the client.
//
// BeginWrite/BeginCheckpoint form a per-table gate: writers hold the shared
// side across append+apply, checkpoints hold the exclusive side across
// swap+image-cut, so a checkpoint observes either all or none of a write.
// Lock order is gate first, then table lock; the engine never acquires the
// gate while holding a table lock.
type CommitLog interface {
	// BeginWrite enters the shared side of the table's append gate; the
	// returned function leaves it.
	BeginWrite(table string) func()
	// Append assigns the record its LSN and buffers it. The returned commit
	// function blocks until the record is durable per the sync policy (a
	// no-op under relaxed policies). An Append error means nothing was
	// logged and the engine must not apply the mutation.
	Append(rec *LogRecord) (commit func() error, err error)
	// BeginCheckpoint enters the exclusive side of the table's append gate,
	// waiting out in-flight writers and blocking new ones.
	BeginCheckpoint(table string) func()
	// Checkpoint durably cuts a new storage image for the table at
	// generation gen and truncates the table's replay obligation to the
	// current log position. The caller holds the exclusive gate.
	Checkpoint(table string, gen uint64, snap *TableSnapshot) error
}

// SetCommitLog installs the durability hook. It must be called before the
// database serves traffic (recovery replays through the public write API,
// so the hook is installed only after replay completes); it is not safe to
// install or swap concurrently with writes.
func (db *DB) SetCommitLog(cl CommitLog) { db.cl = cl }

// gateWrite enters the commit log's shared append gate for the table,
// returning a no-op release when no log is installed.
func (db *DB) gateWrite(table string) func() {
	if db.cl == nil {
		return func() {}
	}
	return db.cl.BeginWrite(table)
}

// gateCheckpoint enters the commit log's exclusive append gate for the
// table, returning a no-op release when no log is installed.
func (db *DB) gateCheckpoint(table string) func() {
	if db.cl == nil {
		return func() {}
	}
	return db.cl.BeginCheckpoint(table)
}

// checkpointMerged cuts a durable image of the table's post-swap state —
// the merge pipeline's durability step, since a merge compacts the RecordID
// space and makes every earlier log record unreplayable onto the new image.
// The caller holds the exclusive append gate and mergeMu, so the snapshot
// taken here is exactly the post-swap version.
func (db *DB) checkpointMerged(tableName string, gen uint64) error {
	if db.cl == nil {
		return nil
	}
	snap, err := db.Snapshot(tableName)
	if err != nil {
		return fmt.Errorf("engine: checkpoint %q: %w", tableName, err)
	}
	if err := db.cl.Checkpoint(tableName, gen, snap); err != nil {
		return fmt.Errorf("engine: checkpoint %q: %w", tableName, err)
	}
	return nil
}

// logWriteLocked appends one write record — removed RecordIDs and/or
// prepared row payloads — before the in-memory apply. The caller holds the
// table write lock; the returned commit function (nil when no log is
// installed or the record is empty) is invoked after the lock is released.
func (db *DB) logWriteLocked(t *table, tableName string, removed []uint32, payloads []Row) (func() error, error) {
	if db.cl == nil || (len(removed) == 0 && len(payloads) == 0) {
		return nil, nil
	}
	rec := &LogRecord{
		Type:    RecordWrite,
		Table:   tableName,
		Gen:     t.gen,
		Base:    uint32(t.mainRows + t.deltaRows),
		Removed: removed,
		Rows:    payloads,
	}
	return db.cl.Append(rec)
}

// ApplyRecord replays one log record against the store through the same
// code paths normal traffic uses, minus crypto and logging: payloads are
// already re-encrypted, and replay runs before SetCommitLog installs the
// hook. Replay is idempotence-checked rather than idempotent — a write
// record whose Base does not equal the table's current row count is
// rejected, so applying a record twice or out of order fails loudly instead
// of corrupting the store.
func (db *DB) ApplyRecord(rec *LogRecord) error {
	switch rec.Type {
	case RecordCreate:
		if rec.Schema == nil {
			return fmt.Errorf("engine: replay lsn %d: create record without schema", rec.LSN)
		}
		return db.CreateTable(*rec.Schema)
	case RecordDrop:
		return db.DropTable(rec.Table)
	case RecordImport:
		if rec.Split == nil {
			return fmt.Errorf("engine: replay lsn %d: import record without split", rec.LSN)
		}
		return db.ImportColumn(rec.Table, rec.Column, rec.Split)
	case RecordWrite:
		return db.applyWrite(rec)
	default:
		return fmt.Errorf("engine: replay lsn %d: unknown record type %d", rec.LSN, rec.Type)
	}
}

// applyWrite re-applies a write record: invalidations first, then appends —
// the order Update used when the record was written (InsertBatch and Delete
// records carry only one of the two). A tail the appends make due is sealed
// before it returns, so replay leaves the sealed runs the writes left.
func (db *DB) applyWrite(rec *LogRecord) error {
	t, err := db.lookup(rec.Table)
	if err != nil {
		return fmt.Errorf("engine: replay lsn %d: %w", rec.LSN, err)
	}
	t.mu.Lock()
	err = db.applyWriteLocked(t, rec)
	t.mu.Unlock()
	db.sealRuns(t)
	return err
}

// applyWriteLocked is applyWrite's part under the table write lock.
func (db *DB) applyWriteLocked(t *table, rec *LogRecord) error {
	n := t.mainRows + t.deltaRows
	if len(rec.Rows) > 0 && int(rec.Base) != n {
		return fmt.Errorf("engine: replay lsn %d: record base %d, table has %d rows",
			rec.LSN, rec.Base, n)
	}
	for i, row := range rec.Rows {
		for name := range t.cols {
			if _, ok := row[name]; !ok {
				return fmt.Errorf("engine: replay lsn %d: row %d: %w: %q",
					rec.LSN, i, ErrMissingColumn, name)
			}
		}
	}
	if len(rec.Removed) > 0 {
		valid := t.valid.Clone()
		for _, r := range rec.Removed {
			if int(r) >= n {
				return fmt.Errorf("engine: replay lsn %d: removed RecordID %d out of range %d",
					rec.LSN, r, n)
			}
			valid.Remove(r)
		}
		t.valid = valid
	}
	if len(rec.Rows) > 0 {
		db.commitRowsLocked(t, rec.Rows)
	}
	return nil
}
