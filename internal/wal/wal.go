// Package wal is the durability layer: a checksummed, length-prefixed
// write-ahead log with group commit, checkpointing into the storage
// package's table-image format, and crash recovery that replays the log
// tail over the last checkpoint images.
//
// The engine appends one record per write statement (under its per-table
// append gate, in apply order) and the log makes it durable per the
// configured sync policy: SyncAlways fsyncs before acknowledging — with
// group commit, so one fsync covers every writer that queued while the
// previous fsync ran — SyncInterval fsyncs on a timer, SyncNone only at
// checkpoints and shutdown. Checkpoints ride the merge pipeline's swap
// stage: the post-swap table image is cut atomically (temp file, fsync,
// rename, directory fsync), the manifest flips to it, and the superseded
// log prefix is pruned. Recovery restores the manifest's images, replays
// the remaining records in LSN order — stopping at the first torn,
// truncated, or checksum-failing record in the final segment — and then
// checkpoints every table so the store restarts from a clean baseline.
package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"time"

	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/metrics"
	"github.com/encdbdb/encdbdb/internal/storage"
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// segMagic heads every segment file. Its last byte is the segment format
// version: version 4 writes record payloads in package codec's primitives,
// with engine's schema and row layouts and dict's split layout.
var segMagic = []byte("EDBWAL\x00\x04")

// ErrSegmentVersion is returned by Open for a segment of another format
// version; recovery refuses it rather than misread its records.
var ErrSegmentVersion = errors.New("wal: unsupported segment version")

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs before every acknowledgment (group-committed:
	// writers that arrive during an in-flight fsync share the next one).
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a timer; a crash loses at most the last
	// interval of acknowledged writes.
	SyncInterval
	// SyncNone fsyncs only at checkpoints and clean shutdown.
	SyncNone
)

// ParseSyncPolicy maps the -sync flag spelling to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval or none)", s)
}

// Option configures a Log.
type Option func(*Log)

// WithSyncPolicy selects the durability/latency trade-off (default
// SyncAlways).
func WithSyncPolicy(p SyncPolicy) Option { return func(l *Log) { l.policy = p } }

// WithSyncEvery sets the SyncInterval timer period (default 10ms).
func WithSyncEvery(d time.Duration) Option {
	return func(l *Log) {
		if d > 0 {
			l.every = d
		}
	}
}

// WithFS replaces the filesystem — the fault-injection harness's hook.
func WithFS(fs FS) Option { return func(l *Log) { l.fs = fs } }

// WithMetrics registers the WAL metric families (see docs/metrics.md) on
// reg.
func WithMetrics(reg *metrics.Registry) Option { return func(l *Log) { l.reg = reg } }

// segment is one log file: records with LSN in [firstLSN, next segment's
// firstLSN). The last entry is the active segment being appended to; closed
// segments keep their handle open until pruned so a straggling group-commit
// fsync never races a close.
type segment struct {
	seq      uint64
	firstLSN uint64
	name     string
	file     File
}

// tableState is the log's per-table bookkeeping, guarded by Log.mu.
type tableState struct {
	// image/gen/ckptLSN mirror the table's entry in the on-disk manifest
	// ("" image = never checkpointed); they are updated only after a
	// successful manifest write, so pruning decisions always reflect what
	// recovery would actually read.
	image   string
	gen     uint64
	ckptLSN uint64
	// createLSN pins the table's create record when no checkpoint image
	// exists yet.
	createLSN uint64
	// bad suspends appends after a failed checkpoint: the in-memory store
	// is ahead of anything recovery could reconstruct (the merge swap
	// already compacted RecordIDs), so accepting more writes would
	// acknowledge updates that a restart silently loses.
	bad    bool
	badErr error
}

// Log is the write-ahead log over one data directory. It implements
// engine.CommitLog.
type Log struct {
	dir    string
	fs     FS
	policy SyncPolicy
	every  time.Duration
	reg    *metrics.Registry
	m      *walMetrics

	// mu guards the append state: the active segment, LSN assignment, the
	// per-table bookkeeping, and the segment list. smu guards the
	// group-commit sync state; it may be taken while holding mu, never the
	// reverse.
	mu           sync.Mutex
	active       File
	bw           *bufio.Writer
	segs         []segment
	segRecords   int // records appended to the active segment
	nextLSN      uint64
	lastLSN      uint64
	tables       map[string]*tableState
	pendingDrops map[string]uint64
	dropImages   map[string]string
	err          error
	closed       bool

	smu       sync.Mutex
	scond     *sync.Cond
	syncing   bool
	syncedLSN uint64
	syncErr   error

	// ckptMu serializes manifest writers (checkpoints, drop commits) so
	// concurrent rewrites cannot lose each other's entries.
	ckptMu sync.Mutex

	// gmu/gates are the per-table append gates backing
	// BeginWrite/BeginCheckpoint.
	gmu   sync.Mutex
	gates map[string]*sync.RWMutex

	// stop/tick run the SyncInterval timer goroutine.
	stop chan struct{}
	tick sync.WaitGroup

	stats Stats
}

// Stats reports what recovery found and did.
type Stats struct {
	// RestoredTables counts checkpoint images restored from the manifest;
	// ReplayedRecords the log records applied over them. TruncatedTail is
	// true when the final segment ended in a torn or checksum-failing
	// record (the expected signature of a crash mid-append).
	RestoredTables  int
	ReplayedRecords int
	TruncatedTail   bool
	// ReplayDuration is the wall time of restore + replay + the
	// post-recovery checkpoint.
	ReplayDuration time.Duration
}

// Stats returns the recovery statistics captured by Open.
func (l *Log) Stats() Stats { return l.stats }

// Dir returns the data directory.
func (l *Log) Dir() string { return l.dir }

func segmentName(seq uint64) string { return fmt.Sprintf("wal-%08d.log", seq) }

func imageName(table string, gen, lsn uint64) string {
	return fmt.Sprintf("img-%x-%d-%016x.tbl", table, gen, lsn)
}

// gate returns the table's append gate, creating it on first use. Gates are
// never deleted: a dropped table's gate is a few words and keeps the
// drop/recreate path race-free.
func (l *Log) gate(table string) *sync.RWMutex {
	l.gmu.Lock()
	defer l.gmu.Unlock()
	g := l.gates[table]
	if g == nil {
		g = &sync.RWMutex{}
		l.gates[table] = g
	}
	return g
}

// BeginWrite implements engine.CommitLog.
func (l *Log) BeginWrite(table string) func() {
	g := l.gate(table)
	g.RLock()
	return g.RUnlock
}

// BeginCheckpoint implements engine.CommitLog.
func (l *Log) BeginCheckpoint(table string) func() {
	g := l.gate(table)
	g.Lock()
	return g.Unlock
}

// Append implements engine.CommitLog: assign the next LSN, frame and buffer
// the record, and return a commit function that waits for durability per
// the sync policy. The caller holds the engine-side lock that defines apply
// order, so buffer order equals apply order per table.
func (l *Log) Append(rec *engine.LogRecord) (func() error, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, ErrClosed
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return nil, fmt.Errorf("wal: log failed: %w", err)
	}
	st := l.tables[rec.Table]
	switch rec.Type {
	case engine.RecordCreate:
		if st != nil {
			l.mu.Unlock()
			return nil, fmt.Errorf("wal: create %q: table already tracked", rec.Table)
		}
	case engine.RecordDrop:
		if st == nil {
			l.mu.Unlock()
			return nil, fmt.Errorf("wal: drop %q: table not tracked", rec.Table)
		}
	default:
		if st == nil {
			l.mu.Unlock()
			return nil, fmt.Errorf("wal: append for untracked table %q", rec.Table)
		}
		if st.bad {
			err := st.badErr
			l.mu.Unlock()
			return nil, fmt.Errorf("wal: table %q suspended until next successful checkpoint: %w", rec.Table, err)
		}
		if rec.Gen != st.gen {
			l.mu.Unlock()
			return nil, fmt.Errorf("wal: table %q at generation %d, record claims %d", rec.Table, st.gen, rec.Gen)
		}
	}
	rec.LSN = l.nextLSN
	frame, err := encodeRecord(rec)
	if err != nil {
		l.mu.Unlock()
		return nil, err
	}
	if _, err := l.bw.Write(frame); err != nil {
		l.err = err
		l.mu.Unlock()
		return nil, fmt.Errorf("wal: append: %w", err)
	}
	l.nextLSN++
	l.lastLSN = rec.LSN
	l.segRecords++
	switch rec.Type {
	case engine.RecordCreate:
		l.tables[rec.Table] = &tableState{createLSN: rec.LSN}
	case engine.RecordDrop:
		// The drop record must stay replayable until a manifest without
		// the table is durable, or a crash would resurrect it from its
		// last checkpoint image.
		delete(l.tables, rec.Table)
		l.pendingDrops[rec.Table] = rec.LSN
		if st.image != "" {
			l.dropImages[rec.Table] = st.image
		}
	}
	lsn := rec.LSN
	table := rec.Table
	isDrop := rec.Type == engine.RecordDrop
	l.mu.Unlock()
	if l.m != nil {
		l.m.records.Inc()
		l.m.appendedBytes.Add(uint64(len(frame)))
	}
	if isDrop {
		return func() error {
			if err := l.commitWait(lsn); err != nil {
				return err
			}
			return l.dropCommitted(table)
		}, nil
	}
	return func() error { return l.commitWait(lsn) }, nil
}

// commitWait blocks until lsn is durable under SyncAlways, electing itself
// the group-commit syncer when no fsync is in flight; under the relaxed
// policies it returns immediately.
func (l *Log) commitWait(lsn uint64) error {
	if l.policy != SyncAlways {
		return nil
	}
	l.smu.Lock()
	for {
		if l.syncedLSN >= lsn {
			l.smu.Unlock()
			return nil
		}
		if l.syncErr != nil {
			err := l.syncErr
			l.smu.Unlock()
			return fmt.Errorf("wal: commit: %w", err)
		}
		if !l.syncing {
			l.syncing = true
			l.smu.Unlock()
			l.syncActive() //nolint:errcheck // recorded in syncErr for every waiter
			l.smu.Lock()
			l.syncing = false
			continue
		}
		l.scond.Wait()
	}
}

// syncActive flushes the append buffer and fsyncs the active segment,
// advancing the durable watermark to the highest LSN the flush covered and
// waking every waiter. Called without mu or smu held.
func (l *Log) syncActive() error {
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		l.finishSync(err, 0)
		return err
	}
	if err := l.bw.Flush(); err != nil {
		l.err = err
		l.mu.Unlock()
		l.finishSync(err, 0)
		return err
	}
	f, target := l.active, l.lastLSN
	l.mu.Unlock()
	start := time.Now()
	err := f.Sync()
	if l.m != nil {
		l.m.fsyncSeconds.Observe(time.Since(start).Seconds())
	}
	if err != nil {
		// A checkpoint roll may have retired this segment (syncing it
		// first) between our capture and the Sync call; if the watermark
		// already covers the target, the records are durable and the
		// error is a benign sync-after-retire.
		l.smu.Lock()
		covered := l.syncedLSN >= target
		l.smu.Unlock()
		if covered {
			return nil
		}
		l.mu.Lock()
		if l.err == nil {
			l.err = err
		}
		l.mu.Unlock()
		l.finishSync(err, 0)
		return err
	}
	l.finishSync(nil, target)
	return nil
}

// finishSync publishes a sync outcome under smu and wakes all waiters.
func (l *Log) finishSync(err error, target uint64) {
	l.smu.Lock()
	if err != nil {
		if l.syncErr == nil {
			l.syncErr = err
		}
	} else if target > l.syncedLSN {
		l.syncedLSN = target
	}
	l.scond.Broadcast()
	l.smu.Unlock()
}

// roll makes every buffered record durable in the active segment and opens
// a fresh one, so the old segment becomes prunable once no table needs its
// records. A no-op when the active segment holds no records. The caller
// holds ckptMu.
func (l *Log) roll() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.segRecords == 0 {
		return nil
	}
	if err := l.bw.Flush(); err != nil {
		l.err = err
		l.finishSync(err, 0)
		return err
	}
	target := l.lastLSN
	start := time.Now()
	if err := l.active.Sync(); err != nil {
		l.err = err
		l.finishSync(err, 0)
		return err
	}
	if l.m != nil {
		l.m.fsyncSeconds.Observe(time.Since(start).Seconds())
	}
	l.finishSync(nil, target)
	seq := l.segs[len(l.segs)-1].seq + 1
	if err := l.openSegmentLocked(seq); err != nil {
		l.err = err
		l.finishSync(err, 0)
		return err
	}
	return nil
}

// openSegmentLocked creates segment seq with a durable header and directory
// entry and makes it the active segment. The caller holds mu (or is still
// single-threaded in Open).
func (l *Log) openSegmentLocked(seq uint64) error {
	name := segmentName(seq)
	f, err := l.fs.Create(filepath.Join(l.dir, name))
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if _, err := f.Write(segMagic); err != nil {
		f.Close()
		return fmt.Errorf("wal: segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync segment header: %w", err)
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync data dir: %w", err)
	}
	l.segs = append(l.segs, segment{seq: seq, firstLSN: l.nextLSN, name: name, file: f})
	l.active = f
	l.bw = bufio.NewWriterSize(f, 1<<16)
	l.segRecords = 0
	return nil
}

// Checkpoint implements engine.CommitLog: cut a durable image of the
// table's current state, flip the manifest to it, and prune the superseded
// log prefix. The caller holds the table's exclusive append gate, so the
// watermark read here bounds every record of this table.
func (l *Log) Checkpoint(table string, gen uint64, snap *engine.TableSnapshot) error {
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	watermark := l.lastLSN
	l.mu.Unlock()

	img := imageName(table, gen, watermark)
	if err := l.writeImage(img, snap); err != nil {
		l.markBad(table, err)
		return err
	}
	// Roll before the manifest flip: every record the new manifest still
	// needs (other tables' tails) is durable in a closed segment, and this
	// table's superseded prefix becomes prunable.
	if err := l.roll(); err != nil {
		l.markBad(table, err)
		return err
	}

	l.mu.Lock()
	m := l.manifestLocked()
	m.Tables[table] = manifestTable{Image: img, Gen: gen, CheckpointLSN: watermark}
	l.mu.Unlock()
	if err := writeManifest(l.fs, l.dir, m); err != nil {
		l.markBad(table, err)
		return err
	}

	// The manifest is durable: only now may the in-memory mirror (which
	// pruning reads) advance.
	l.mu.Lock()
	st := l.tables[table]
	if st == nil {
		st = &tableState{}
		l.tables[table] = st
	}
	oldImg := st.image
	st.image, st.gen, st.ckptLSN = img, gen, watermark
	st.bad, st.badErr = false, nil
	removals := l.manifestCommittedLocked(m)
	l.mu.Unlock()
	if oldImg != "" && oldImg != img {
		removals = append(removals, oldImg)
	}
	for _, name := range removals {
		_ = l.fs.Remove(filepath.Join(l.dir, name))
	}
	l.prune()
	if l.m != nil {
		l.m.checkpoints.Inc()
	}
	return nil
}

// writeImage writes a table image atomically (replaceFile). The image is
// in storage's table format, so images and SaveTable files are
// interchangeable.
func (l *Log) writeImage(name string, snap *engine.TableSnapshot) error {
	return replaceFile(l.fs, l.dir, name, func(w io.Writer) error {
		return storage.WriteTable(w, snap)
	})
}

// replaceFile installs dir/name atomically with the bytes write produces:
// write a temp file, fsync it, close it, rename it over name, fsync the
// directory. A crash at any step leaves the old file or the new one under
// name, never a torn mix.
func replaceFile(fs FS, dir, name string, write func(io.Writer) error) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: create %s: %w", tmp, err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	if err := write(bw); err != nil {
		f.Close()
		return fmt.Errorf("wal: write %s: %w", tmp, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("wal: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: close %s: %w", tmp, err)
	}
	if err := fs.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("wal: install %s: %w", name, err)
	}
	if err := fs.SyncDir(dir); err != nil {
		return fmt.Errorf("wal: sync data dir: %w", err)
	}
	return nil
}

// markBad suspends a table's appends after a failed checkpoint.
func (l *Log) markBad(table string, err error) {
	l.mu.Lock()
	if st := l.tables[table]; st != nil {
		st.bad = true
		st.badErr = err
	}
	l.mu.Unlock()
}

// manifestLocked renders the current checkpoint state as a manifest. The
// caller holds mu.
func (l *Log) manifestLocked() *manifestData {
	m := &manifestData{Version: manifestVersion, Tables: map[string]manifestTable{}}
	for name, st := range l.tables {
		if st.image != "" {
			m.Tables[name] = manifestTable{Image: st.image, Gen: st.gen, CheckpointLSN: st.ckptLSN}
		}
	}
	return m
}

// manifestCommittedLocked clears pending-drop retention for every table the
// durable manifest m no longer resurrects, returning the image files that
// can now be deleted. The caller holds mu.
func (l *Log) manifestCommittedLocked(m *manifestData) []string {
	var removals []string
	for table := range l.pendingDrops {
		old, hasOld := l.dropImages[table]
		if cur, ok := m.Tables[table]; ok && hasOld && cur.Image == old {
			continue // manifest still restores the pre-drop image
		}
		if hasOld {
			removals = append(removals, old)
		}
		delete(l.pendingDrops, table)
		delete(l.dropImages, table)
	}
	return removals
}

// dropCommitted rewrites the manifest without the dropped table once its
// drop record is durable, so pruning the drop record can never resurrect
// the table from a stale image.
func (l *Log) dropCommitted(table string) error {
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()
	l.mu.Lock()
	m := l.manifestLocked()
	l.mu.Unlock()
	if err := writeManifest(l.fs, l.dir, m); err != nil {
		// The drop record itself is durable and pinned by pendingDrops;
		// recovery replays it over the stale manifest.
		return fmt.Errorf("wal: drop %q: %w", table, err)
	}
	l.mu.Lock()
	removals := l.manifestCommittedLocked(m)
	l.mu.Unlock()
	for _, name := range removals {
		_ = l.fs.Remove(filepath.Join(l.dir, name))
	}
	l.prune()
	return nil
}

// prune deletes closed segments every table has checkpointed past (and no
// pending drop still pins). The caller holds ckptMu.
func (l *Log) prune() {
	l.mu.Lock()
	bound := l.lastLSN
	for _, st := range l.tables {
		var b uint64
		switch {
		case st.image != "":
			b = st.ckptLSN
		case st.createLSN > 0:
			b = st.createLSN - 1
		}
		if b < bound {
			bound = b
		}
	}
	for _, lsn := range l.pendingDrops {
		if lsn-1 < bound {
			bound = lsn - 1
		}
	}
	var removals []segment
	for len(l.segs) > 1 {
		// The head segment's records all precede the next segment's first
		// LSN; it is prunable when that whole range is ≤ bound.
		if l.segs[1].firstLSN-1 > bound {
			break
		}
		removals = append(removals, l.segs[0])
		l.segs = l.segs[1:]
	}
	l.mu.Unlock()
	for _, s := range removals {
		if s.file != nil {
			s.file.Close()
		}
		_ = l.fs.Remove(filepath.Join(l.dir, s.name))
	}
}

// Close flushes and fsyncs the log (regardless of policy) and closes every
// segment handle. The log is unusable afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	if l.stop != nil {
		close(l.stop)
		l.tick.Wait()
	}
	err := l.syncActive()
	l.mu.Lock()
	for _, s := range l.segs {
		if s.file != nil {
			s.file.Close()
		}
	}
	l.segs = nil
	l.mu.Unlock()
	return err
}
