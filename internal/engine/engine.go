// Package engine is the untrusted provider-side column store of the paper's
// architecture: versioned copy-on-write tables whose encrypted dictionaries
// are searched inside the enclave while the attribute-vector phase scans
// bit-packed vectors (internal/av) in plain Go.
//
// A table is a chain of immutable pieces plus one mutable tip: a
// generation-stamped main store, sealed delta runs (splits of the column's
// kind, built off-lock from full tails), an append-only active tail, and a
// copy-on-write validity bitmap. Select pins that version under a brief
// read lock and scans lock-free; writers extend the tail; Merge is a
// three-stage pipeline (pin, enclave rebuild off-lock, swap with replay)
// that is semantically invisible to concurrent queries. Locking is sharded
// per table, so cross-table work never serializes.
//
// Queries have one evaluator: every filter's dictionary search runs first,
// then one accumulator bitmap seeded from the validity bitmap takes every
// compiled predicate's match words, the main store scanned morsel-at-a-time
// by a bounded worker pool (WithWorkers) and each delta region after it.
// Merges have one pipeline, the off-lock one above. WithMetrics instruments
// the query and merge paths on a metrics.Registry; without it the engine
// pays zero instrumentation overhead.
package engine

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/metrics"
	"github.com/encdbdb/encdbdb/internal/ridset"
)

// Errors returned by the engine.
var (
	ErrNoSuchTable    = errors.New("engine: no such table")
	ErrNoSuchColumn   = errors.New("engine: no such column")
	ErrTableExists    = errors.New("engine: table already exists")
	ErrRowMismatch    = errors.New("engine: column row counts differ")
	ErrNotImported    = errors.New("engine: column has no imported data")
	ErrAlreadyLoaded  = errors.New("engine: column already imported")
	ErrMissingColumn  = errors.New("engine: row is missing a column value")
	ErrEnclaveMissing = errors.New("engine: encrypted columns require an enclave")
	ErrClosed         = errors.New("engine: database closed")
	// ErrSchemaChanged rejects a query whose Query.SchemaDigest is not the
	// digest of the table's schema: the table was dropped and re-created
	// with other columns since the caller planned the query.
	ErrSchemaChanged = errors.New("engine: table schema changed")
)

// RequestErrors are the errors above that reject a request for what it
// asks — a table or column that does not exist or already does, a row
// without a column, a stale schema digest — and say nothing about the
// health of the provider that answered it.
var RequestErrors = []error{ErrNoSuchTable, ErrNoSuchColumn, ErrTableExists, ErrMissingColumn, ErrSchemaChanged}

// defaultSealRows is the default tail size at which the tail's rows are
// sealed into a run: a split of the column's kind.
const defaultSealRows = 4096

// Option configures a DB.
type Option interface {
	apply(*options)
}

type options struct {
	workers     int
	reorder     bool
	sealRows    int
	streamChunk int
	metricsReg  *metrics.Registry
}

type workersOption int

func (o workersOption) apply(opts *options) { opts.workers = int(o) }

// WithWorkers fixes the evaluation parallelism: the number of workers that
// claim main-store morsels of one query's scan. The default (0) uses
// GOMAXPROCS.
func WithWorkers(n int) Option { return workersOption(n) }

type reorderOption bool

func (o reorderOption) apply(opts *options) { opts.reorder = bool(o) }

// WithFilterReorder toggles the query optimizer's cheapest-first filter
// ordering (default on). Disabled, filters run in the order given — useful
// for measuring the optimizer's effect.
func WithFilterReorder(on bool) Option { return reorderOption(on) }

type sealRowsOption int

func (o sealRowsOption) apply(opts *options) {
	if o > 0 {
		opts.sealRows = int(o)
	}
}

// WithSealThreshold sets the tail size (rows) at which that many tail rows
// are sealed into a run (default 4096): rebuilt in the background as a
// split of the column's own kind, then searched, scanned, rendered and
// merged like the main store, so only the small unsealed tail pays the ED9
// linear search.
func WithSealThreshold(rows int) Option { return sealRowsOption(rows) }

type metricsOption struct{ reg *metrics.Registry }

func (o metricsOption) apply(opts *options) { opts.metricsReg = o.reg }

// WithMetrics registers the engine's metric families (select/scan counters,
// merge durations and backlog gauges — see docs/metrics.md) on reg and
// records into them. Without it the engine runs with zero instrumentation
// overhead.
func WithMetrics(reg *metrics.Registry) Option { return metricsOption{reg: reg} }

// DB is an EncDBDB database instance at the DBaaS provider: a set of tables
// plus the enclave used for protected dictionary searches.
//
// Locking is sharded per table and versioned within a table: DB.mu guards
// only the tables registry, and each table's store state is a set of
// immutable pieces (generation-stamped main store, sealed delta runs, a
// copy-on-write validity bitmap) plus an append-only tail. Readers pin a
// version under a brief critical section and then scan entirely lock-free,
// so a long Select never blocks writers and an in-flight background merge
// never blocks either. The enclave itself is internally synchronized and
// safe for concurrent ECALLs.
type DB struct {
	encl    *enclave.Enclave
	opts    options
	metrics *engineMetrics

	// cl is the durability hook (nil for a volatile database). Installed
	// via SetCommitLog before traffic starts; every write path appends to
	// it before applying, under the per-table append gate.
	cl CommitLog

	mu     sync.RWMutex
	tables map[string]*table

	// closeMu orders background merge and seal-build admission against
	// Close: closed and wg.Add are read/written together under it, so a
	// merge or build admitted before Close is always covered by Close's
	// wg.Wait. closed is also mirrored atomically for lock-free fast-path
	// checks.
	closeMu sync.Mutex
	closed  atomic.Bool
	wg      sync.WaitGroup

	// mergeHooks are test instrumentation points inside the background
	// merge and seal pipelines (nil in production). Installed before
	// traffic starts.
	mergeHooks struct {
		afterPin   func(table string)
		beforeSwap func(table string)
		sealBuild  func(table string)
		sealIdle   func(table string)
	}
}

// table is the per-table store: one column store per column plus the shared
// versioned state (paper §4.3). mu serializes writers against each other and
// guards the brief version-pin critical section; everything a pinned version
// references is immutable, so readers touch mu only long enough to capture
// pointers. schema, digest and the cols map are fixed at CreateTable and may
// be read without it.
type table struct {
	schema Schema
	digest uint64 // schema.Digest()
	cols   map[string]*column
	plain  bool // every column is plain: seal builds need no enclave

	mu  sync.RWMutex
	gen uint64 // main-store generation; bumped by every merge swap
	// mainRows is the main store's row count; deltaRows the rows across
	// all sealed runs plus the active tail.
	mainRows  int
	deltaRows int
	// valid is the row validity bitmap over [0, mainRows+deltaRows):
	// RecordIDs below mainRows are main-store rows, the rest delta rows.
	// Deletions clear bits (paper §4.3); query results are ANDed with it.
	// The bitmap is copy-on-write: every mutation installs a fresh copy,
	// so a pinned version's bitmap epoch is frozen.
	valid *ridset.Set

	// mergeMu admits one merge pipeline at a time; merging mirrors it for
	// lock-free status reads. lastMergeErr (under mu) surfaces background
	// merge failures through MergeStatus.
	mergeMu      sync.Mutex
	merging      atomic.Bool
	merges       uint64
	lastMergeErr string

	// sealMu serializes seal builds with each other and with the merge
	// pipeline (taken after mergeMu, before mu); sealing marks a background
	// seal build admitted and not yet finished.
	sealMu  sync.Mutex
	sealing atomic.Bool
}

// column pairs the read-optimized main store with the write-optimized delta
// chain: zero or more sealed immutable runs plus the active append-only
// tail. All store pointers are guarded by the table's mu; the pieces they
// reference are immutable once published.
type column struct {
	table string
	def   ColumnDef
	main  *dict.Split
	// sealed is the chain of sealed delta runs, oldest first: splits of
	// the column's kind. Elements below a published length are never
	// rewritten, so a pinned version's captured header stays valid.
	sealed []*dict.Split
	tail   *deltaStore
	// imported marks a bulk-loaded main store; tables may also start
	// empty and grow purely through the delta store.
	imported bool
}

// New creates a database backed by the given enclave. A nil enclave is
// allowed for plaintext-only databases (the PlainDBDB baseline).
func New(encl *enclave.Enclave, opts ...Option) *DB {
	o := options{
		reorder:     true,
		sealRows:    defaultSealRows,
		streamChunk: defaultStreamChunk,
	}
	for _, opt := range opts {
		opt.apply(&o)
	}
	db := &DB{encl: encl, opts: o, tables: make(map[string]*table)}
	if o.metricsReg != nil {
		db.metrics = newEngineMetrics(o.metricsReg, db)
	}
	return db
}

// Enclave returns the enclave backing this database (nil for plaintext-only
// databases). The data owner uses it for attestation and provisioning.
func (db *DB) Enclave() *enclave.Enclave { return db.encl }

// Provision deploys the data owner's sealed master key into the enclave
// (paper Fig. 5 step 2) and starts a seal build for every table whose tail
// is due: recovery replays rows before the enclave holds the column keys,
// and their tables would otherwise stay unsealed until their next write.
func (db *DB) Provision(sk enclave.SealedKey) error {
	if db.encl == nil {
		return ErrEnclaveMissing
	}
	if err := db.encl.Provision(sk); err != nil {
		return err
	}
	db.mu.RLock()
	tables := slices.Collect(maps.Values(db.tables))
	db.mu.RUnlock()
	for _, t := range tables {
		db.startSeal(t)
	}
	return nil
}

// Close stops accepting new background merges and seal builds and waits
// for in-flight ones to finish. Queries and writes remain possible
// afterwards; only the asynchronous merge and seal machinery shuts down,
// so later tail rows stay in the ED9 tail.
func (db *DB) Close() error {
	db.closeMu.Lock()
	db.closed.Store(true)
	db.closeMu.Unlock()
	db.wg.Wait()
	return nil
}

// lookup resolves a table name under the registry lock. The caller locks the
// returned table as needed; a table concurrently dropped from the registry
// stays usable until its last in-flight operation releases it.
func (db *DB) lookup(name string) (*table, error) {
	db.mu.RLock()
	t, ok := db.tables[name]
	db.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	return t, nil
}

// CreateTable registers a table schema with empty column stores.
func (db *DB) CreateTable(s Schema) error { return db.createTable(s, true) }

// createTable is CreateTable with logging control: recovery replay and
// snapshot Restore install tables without emitting commit-log records (the
// former because the record already exists, the latter because the restore
// is made durable by a checkpoint instead).
func (db *DB) createTable(s Schema, logged bool) error {
	if err := s.Validate(); err != nil {
		return err
	}
	// The table keeps the schema for its lifetime; the caller's column
	// slice may be reused (the wire server decodes into pooled requests).
	s.Columns = slices.Clone(s.Columns)
	t := &table{schema: s, digest: s.Digest(), cols: make(map[string]*column, len(s.Columns)), valid: ridset.New(0), plain: true}
	for _, def := range s.Columns {
		t.plain = t.plain && def.Plain
		if !def.Plain && db.encl == nil {
			return fmt.Errorf("%w: column %q", ErrEnclaveMissing, def.Name)
		}
		t.cols[def.Name] = &column{
			table: s.Table,
			def:   def,
			main:  dict.Empty(def.Kind, def.MaxLen, def.BSMax, def.Plain),
			tail:  newDeltaStore(),
		}
	}
	var end func()
	if logged && db.cl != nil {
		end = db.cl.BeginWrite(s.Table)
		defer end()
	}
	db.mu.Lock()
	if _, ok := db.tables[s.Table]; ok {
		db.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrTableExists, s.Table)
	}
	var commit func() error
	if logged && db.cl != nil {
		// Log inside the registry critical section, after the existence
		// check: two racing creates cannot both emit a create record.
		sc := s
		c, err := db.cl.Append(&LogRecord{Type: RecordCreate, Table: s.Table, Schema: &sc})
		if err != nil {
			db.mu.Unlock()
			return err
		}
		commit = c
	}
	db.tables[s.Table] = t
	db.mu.Unlock()
	if commit != nil {
		return commit()
	}
	return nil
}

// DropTable removes a table from the registry. In-flight operations holding
// the table finish against the orphaned store.
func (db *DB) DropTable(name string) error { return db.dropTable(name, true) }

// dropTable is DropTable with logging control (unlogged for replay and for
// rolling back a failed Restore).
func (db *DB) dropTable(name string, logged bool) error {
	var end func()
	if logged && db.cl != nil {
		end = db.cl.BeginWrite(name)
		defer end()
	}
	db.mu.Lock()
	if _, ok := db.tables[name]; !ok {
		db.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	var commit func() error
	if logged && db.cl != nil {
		c, err := db.cl.Append(&LogRecord{Type: RecordDrop, Table: name})
		if err != nil {
			db.mu.Unlock()
			return err
		}
		commit = c
	}
	delete(db.tables, name)
	db.mu.Unlock()
	if commit != nil {
		return commit()
	}
	return nil
}

// Tables lists the registered table names.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	return names
}

// Schema returns the schema of the named table.
func (db *DB) Schema(name string) (Schema, error) {
	t, err := db.lookup(name)
	if err != nil {
		return Schema{}, err
	}
	return t.schema, nil
}

// ImportColumn installs a pre-built split as the main store of a column —
// the data owner's bulk deployment (paper Fig. 5 step 4). Every column of a
// table must be imported with the same row count; the first import fixes it.
func (db *DB) ImportColumn(tableName, columnName string, s *dict.Split) error {
	t, err := db.lookup(tableName)
	if err != nil {
		return err
	}
	c, ok := t.cols[columnName]
	if !ok {
		return fmt.Errorf("%w: %q.%q", ErrNoSuchColumn, tableName, columnName)
	}
	end := db.gateWrite(tableName)
	defer end()
	commit, err := db.importColumnLocked(t, c, tableName, columnName, s)
	if err != nil {
		return err
	}
	if commit != nil {
		return commit()
	}
	return nil
}

// importColumnLocked validates and installs the split under the table write
// lock, logging an import record (the serialized split, so replay needs no
// enclave) before the install.
func (db *DB) importColumnLocked(t *table, c *column, tableName, columnName string, s *dict.Split) (func() error, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c.imported {
		return nil, fmt.Errorf("%w: %q.%q", ErrAlreadyLoaded, tableName, columnName)
	}
	if t.deltaRows > 0 {
		return nil, fmt.Errorf("engine: cannot bulk import %q.%q after inserts", tableName, columnName)
	}
	// A merge pipeline sets merging before it pins its base version, and
	// the pin takes this lock — so any import that passes this check
	// completes strictly before the base version is pinned, and the swap's
	// replay bookkeeping never sees imported rows it mistakes for
	// mid-rebuild appends.
	if t.merging.Load() {
		return nil, fmt.Errorf("engine: cannot bulk import %q.%q during an in-flight merge", tableName, columnName)
	}
	if s.Kind != c.def.Kind || s.Plain != c.def.Plain {
		return nil, fmt.Errorf("engine: split kind %v/plain=%v does not match column %q (%v/plain=%v)",
			s.Kind, s.Plain, columnName, c.def.Kind, c.def.Plain)
	}
	loaded := t.importedRows()
	if loaded >= 0 && s.Rows() != loaded {
		return nil, fmt.Errorf("%w: %q.%q has %d rows, table has %d",
			ErrRowMismatch, tableName, columnName, s.Rows(), loaded)
	}
	var commit func() error
	if db.cl != nil {
		c2, err := db.cl.Append(&LogRecord{
			Type: RecordImport, Table: tableName, Gen: t.gen,
			Column: columnName, Split: s,
		})
		if err != nil {
			return nil, err
		}
		commit = c2
	}
	c.main = s
	c.imported = true
	if loaded < 0 {
		t.mainRows = s.Rows()
		t.valid = ridset.Full(s.Rows())
	}
	return commit, nil
}

// ImportPlaintextColumn is the trusted-setup bulk load variant of paper
// §4.2: the uploaded plaintext column is split and encrypted inside the
// enclave, then installed as the main store. Use only when the provider is
// trusted during setup; the standard path (ImportColumn) never exposes
// plaintext to the provider.
func (db *DB) ImportPlaintextColumn(tableName, columnName string, values [][]byte) error {
	t, err := db.lookup(tableName)
	if err != nil {
		return err
	}
	c, ok := t.cols[columnName]
	if !ok {
		return fmt.Errorf("%w: %q.%q", ErrNoSuchColumn, tableName, columnName)
	}
	var split *dict.Split
	if c.def.Plain {
		split, err = buildPlain(c.def, values)
	} else {
		if db.encl == nil {
			return fmt.Errorf("%w: column %q", ErrEnclaveMissing, columnName)
		}
		split, err = db.encl.BuildColumn(columnMeta(c.table, c.def), c.def.BSMax, values)
	}
	if err != nil {
		return fmt.Errorf("engine: trusted setup %q.%q: %w", tableName, columnName, err)
	}
	return db.ImportColumn(tableName, columnName, split)
}

// importedRows returns the row count fixed by previous imports, or -1 if no
// column is imported yet.
func (t *table) importedRows() int {
	for _, c := range t.cols {
		if c.imported {
			return c.main.Rows()
		}
	}
	return -1
}

// ready reports whether the table is queryable: either no column was bulk
// imported (the table grows purely through inserts) or every column was.
// The caller holds at least the table's read lock.
func (t *table) ready() error {
	imported := 0
	for _, c := range t.cols {
		if c.imported {
			imported++
		}
	}
	if imported == 0 || imported == len(t.cols) {
		return nil
	}
	for name, c := range t.cols {
		if !c.imported {
			return fmt.Errorf("%w: %q", ErrNotImported, name)
		}
	}
	return nil
}

// readyCheck verifies readiness under a brief read lock.
func (t *table) readyCheck() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.ready()
}

// validBools renders count validity flags starting at RecordID start as the
// []bool shape the snapshot format and the enclave merge ECALL consume.
func validBools(valid *ridset.Set, start, count int) []bool {
	if count == 0 {
		return nil
	}
	out := make([]bool, count)
	for i := range out {
		out[i] = valid.Contains(uint32(start + i))
	}
	return out
}

// anyCol returns one column as the representative for per-table shape
// invariants that hold identically across columns by construction — every
// write appends to all columns together, so sealed-run counts and tail
// lengths always align. The caller holds at least the table's read lock.
func (t *table) anyCol() *column {
	for _, c := range t.cols {
		return c
	}
	return nil
}

// sealedRunsLocked returns the table's sealed-run chain length; the caller
// holds at least the table's read lock.
func (t *table) sealedRunsLocked() int {
	if c := t.anyCol(); c != nil {
		return len(c.sealed)
	}
	return 0
}

// tailLenLocked returns the active tail's row count; the caller holds at
// least the table's read lock.
func (t *table) tailLenLocked() int {
	if c := t.anyCol(); c != nil {
		return len(c.tail.entries)
	}
	return 0
}

// deltaBytesLocked sums the delta chain's stored bytes across all columns:
// each sealed run's split size and the tail's payload bytes. The caller
// holds at least the table's read lock.
func (t *table) deltaBytesLocked() int {
	total := 0
	for _, c := range t.cols {
		for _, r := range c.sealed {
			total += r.SizeBytes()
		}
		total += c.tail.sizeBytes()
	}
	return total
}

// Rows returns the table's total row count including invalidated rows.
func (db *DB) Rows(tableName string) (int, error) {
	t, err := db.lookup(tableName)
	if err != nil {
		return 0, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.mainRows + t.deltaRows, nil
}

// StorageBytes returns the summed storage footprint of all column stores of
// a table (paper Table 6 accounting): main store, sealed runs and tail. The
// tail's identity attribute vector is implicit and costs nothing.
func (db *DB) StorageBytes(tableName string) (int, error) {
	t, err := db.lookup(tableName)
	if err != nil {
		return 0, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	total := t.deltaBytesLocked()
	for _, c := range t.cols {
		total += c.main.SizeBytes()
	}
	return total, nil
}
