package wal

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/storage"
)

// replayTable is the recovery-time expectation for one table: records at or
// below ckptLSN are superseded by the restored image; later records must
// carry gen or the image and log have diverged.
type replayTable struct {
	gen     uint64
	ckptLSN uint64
}

// Open opens (or initializes) the write-ahead log in dir and recovers db
// from it: the manifest's checkpoint images are restored, the log tail is
// replayed over them in LSN order — stopping at the first torn, truncated,
// or checksum-failing record in the final segment — and every live table is
// then checkpointed so the store restarts from a clean baseline with an
// empty replay obligation. db must be a freshly created, empty database;
// after Open returns, install the log with db.SetCommitLog(l) before
// serving traffic.
func Open(dir string, db *engine.DB, opts ...Option) (*Log, error) {
	l := &Log{
		dir:          dir,
		fs:           OSFS{},
		policy:       SyncAlways,
		every:        10 * time.Millisecond,
		tables:       map[string]*tableState{},
		pendingDrops: map[string]uint64{},
		dropImages:   map[string]string{},
		gates:        map[string]*sync.RWMutex{},
	}
	l.scond = sync.NewCond(&l.smu)
	for _, o := range opts {
		o(l)
	}
	if len(db.Tables()) > 0 {
		return nil, errors.New("wal: recovery requires an empty database")
	}
	if err := l.fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("wal: create data dir: %w", err)
	}
	start := time.Now()

	man, err := readManifest(l.fs, dir)
	if err != nil {
		return nil, err
	}
	state := make(map[string]*replayTable, len(man.Tables))
	names := make([]string, 0, len(man.Tables))
	for name := range man.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mt := man.Tables[name]
		snap, err := l.readImage(mt.Image)
		if err != nil {
			return nil, fmt.Errorf("wal: restore %q: %w", name, err)
		}
		if snap.Schema.Table != name {
			return nil, fmt.Errorf("wal: image %s holds table %q, manifest says %q",
				mt.Image, snap.Schema.Table, name)
		}
		if err := db.Restore(snap); err != nil {
			return nil, fmt.Errorf("wal: restore %q: %w", name, err)
		}
		state[name] = &replayTable{gen: mt.Gen, ckptLSN: mt.CheckpointLSN}
		l.stats.RestoredTables++
	}

	segNames, maxSeq, err := l.listSegments()
	if err != nil {
		return nil, err
	}
	replayed := map[string]bool{}
	var maxLSN uint64
	for i, name := range segNames {
		last := i == len(segNames)-1
		if err := l.replaySegment(db, name, state, replayed, &maxLSN, last); err != nil {
			return nil, err
		}
	}

	// Fresh start: a new active segment, a checkpoint of every live table,
	// and a manifest whose replay obligation is empty — then everything
	// the old manifest and segments pinned is deleted.
	l.nextLSN = maxLSN + 1
	l.lastLSN = maxLSN
	if err := l.openSegmentLocked(maxSeq + 1); err != nil {
		return nil, err
	}
	keep := map[string]bool{}
	m := &manifestData{Version: manifestVersion, Tables: map[string]manifestTable{}}
	live := db.Tables()
	sort.Strings(live)
	for _, name := range live {
		info, err := db.MergeStatus(context.Background(), name)
		if err != nil {
			return nil, fmt.Errorf("wal: recovery checkpoint %q: %w", name, err)
		}
		gen := info.Generation
		img := ""
		if mt, ok := man.Tables[name]; ok && !replayed[name] && gen == mt.Gen {
			// Clean shutdown or no traffic since the last checkpoint: the
			// existing image is already exact, so reuse it instead of
			// rewriting every table on boot.
			img = mt.Image
		} else {
			img = imageName(name, gen, maxLSN)
			snap, err := db.Snapshot(name)
			if err != nil {
				return nil, fmt.Errorf("wal: recovery checkpoint %q: %w", name, err)
			}
			if err := l.writeImage(img, snap); err != nil {
				return nil, fmt.Errorf("wal: recovery checkpoint %q: %w", name, err)
			}
		}
		keep[img] = true
		m.Tables[name] = manifestTable{Image: img, Gen: gen, CheckpointLSN: maxLSN}
		l.tables[name] = &tableState{image: img, gen: gen, ckptLSN: maxLSN}
	}
	if err := writeManifest(l.fs, dir, m); err != nil {
		return nil, err
	}
	for _, name := range segNames {
		_ = l.fs.Remove(filepath.Join(dir, name))
	}
	if err := l.removeStaleFiles(keep); err != nil {
		return nil, err
	}

	l.stats.ReplayDuration = time.Since(start)
	l.registerMetrics()
	if l.policy == SyncInterval {
		l.stop = make(chan struct{})
		l.tick.Add(1)
		go func() {
			defer l.tick.Done()
			t := time.NewTicker(l.every)
			defer t.Stop()
			for {
				select {
				case <-l.stop:
					return
				case <-t.C:
					l.syncActive() //nolint:errcheck // sticky in syncErr
				}
			}
		}()
	}
	return l, nil
}

// readImage loads one checkpoint image.
func (l *Log) readImage(name string) (*engine.TableSnapshot, error) {
	f, err := l.fs.Open(filepath.Join(l.dir, name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return storage.ReadTable(bufio.NewReaderSize(f, 1<<16))
}

// listSegments returns the segment file names in sequence order and the
// highest sequence number present.
func (l *Log) listSegments() ([]string, uint64, error) {
	entries, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: list data dir: %w", err)
	}
	type seg struct {
		seq  uint64
		name string
	}
	var segs []seg
	for _, name := range entries {
		var seq uint64
		if n, err := fmt.Sscanf(name, "wal-%d.log", &seq); err == nil && n == 1 &&
			strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log") {
			segs = append(segs, seg{seq: seq, name: name})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	names := make([]string, len(segs))
	var maxSeq uint64
	for i, s := range segs {
		names[i] = s.name
		if s.seq > maxSeq {
			maxSeq = s.seq
		}
	}
	return names, maxSeq, nil
}

// replaySegment reads one segment and applies its records. In the final
// segment a torn, truncated, or checksum-failing record marks the crash
// point: everything before it is applied, everything after is discarded
// (it was never acknowledged under SyncAlways). The same damage in an
// earlier segment is corruption and fails recovery.
func (l *Log) replaySegment(db *engine.DB, name string, state map[string]*replayTable,
	replayed map[string]bool, maxLSN *uint64, last bool) error {
	f, err := l.fs.Open(filepath.Join(l.dir, name))
	if err != nil {
		return fmt.Errorf("wal: open segment %s: %w", name, err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	hdr := make([]byte, len(segMagic))
	if _, err := io.ReadFull(br, hdr); err != nil {
		if last && (err == io.EOF || err == io.ErrUnexpectedEOF) {
			// Crash between creating the segment file and making its
			// header durable: an empty tail.
			l.stats.TruncatedTail = true
			return nil
		}
		return fmt.Errorf("wal: segment %s: header: %w", name, err)
	}
	if !bytes.Equal(hdr[:len(hdr)-1], segMagic[:len(segMagic)-1]) {
		return fmt.Errorf("wal: segment %s: bad magic", name)
	}
	if v := hdr[len(hdr)-1]; v != segMagic[len(segMagic)-1] {
		return fmt.Errorf("%w: segment %s has version %d, this build reads %d",
			ErrSegmentVersion, name, v, segMagic[len(segMagic)-1])
	}
	for {
		payload, err := readFrame(br)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			if errors.Is(err, errTorn) && last {
				l.stats.TruncatedTail = true
				return nil
			}
			return fmt.Errorf("wal: segment %s: %w", name, err)
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			// The frame checksum passed but the payload is malformed —
			// that is corruption, not a torn tail, in any segment.
			return fmt.Errorf("wal: segment %s: %w", name, err)
		}
		if rec.LSN <= *maxLSN {
			return fmt.Errorf("wal: segment %s: LSN %d not above %d", name, rec.LSN, *maxLSN)
		}
		*maxLSN = rec.LSN
		applied, err := applyReplay(db, rec, state)
		if err != nil {
			return fmt.Errorf("wal: segment %s: %w", name, err)
		}
		if applied {
			replayed[rec.Table] = true
			l.stats.ReplayedRecords++
		}
	}
}

// applyReplay applies one record under the idempotence rules: records at or
// below a table's checkpoint watermark are superseded by its image;
// records for tables the manifest no longer knows (dropped, with the drop
// already durable in a manifest rewrite) are skipped; a generation mismatch
// on a live table means the image and log diverged and recovery fails.
func applyReplay(db *engine.DB, rec *engine.LogRecord, state map[string]*replayTable) (bool, error) {
	st, ok := state[rec.Table]
	switch rec.Type {
	case engine.RecordCreate:
		if ok {
			if rec.LSN <= st.ckptLSN {
				return false, nil // superseded by the restored image
			}
			return false, fmt.Errorf("wal: replay lsn %d: create for live table %q", rec.LSN, rec.Table)
		}
		if err := db.ApplyRecord(rec); err != nil {
			return false, err
		}
		state[rec.Table] = &replayTable{}
		return true, nil
	case engine.RecordDrop:
		if !ok || rec.LSN <= st.ckptLSN {
			return false, nil
		}
		if err := db.ApplyRecord(rec); err != nil {
			return false, err
		}
		delete(state, rec.Table)
		return true, nil
	default:
		if !ok || rec.LSN <= st.ckptLSN {
			return false, nil
		}
		if rec.Gen != st.gen {
			return false, fmt.Errorf("wal: replay lsn %d: table %q at generation %d, record claims %d (image/log diverged)",
				rec.LSN, rec.Table, st.gen, rec.Gen)
		}
		if err := db.ApplyRecord(rec); err != nil {
			return false, err
		}
		return true, nil
	}
}

// removeStaleFiles deletes images the fresh manifest does not reference and
// any temp files a crash left behind.
func (l *Log) removeStaleFiles(keep map[string]bool) error {
	entries, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: list data dir: %w", err)
	}
	for _, name := range entries {
		stale := strings.HasSuffix(name, ".tmp") ||
			(strings.HasPrefix(name, "img-") && strings.HasSuffix(name, ".tbl") && !keep[name])
		if stale {
			_ = l.fs.Remove(filepath.Join(l.dir, name))
		}
	}
	return nil
}
