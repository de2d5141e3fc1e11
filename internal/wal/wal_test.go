package wal_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/wal"
)

// The tests run the engine with plain (unencrypted) columns and no enclave:
// the log records re-encrypted ciphertexts verbatim either way, so plain
// payloads exercise the identical append/replay machinery without key
// provisioning.

func testSchema(table string) engine.Schema {
	return engine.Schema{Table: table, Columns: []engine.ColumnDef{
		{Name: "k", Kind: dict.ED9, MaxLen: 16, Plain: true},
		{Name: "v", Kind: dict.ED9, MaxLen: 16, Plain: true},
	}}
}

// openLog opens the WAL over dir, recovering db, and installs it.
func openLog(t *testing.T, dir string, db *engine.DB, opts ...wal.Option) *wal.Log {
	t.Helper()
	l, err := wal.Open(dir, db, opts...)
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	db.SetCommitLog(l)
	return l
}

func insert(t *testing.T, db *engine.DB, table, k, v string) {
	t.Helper()
	if err := db.InsertBatch(context.Background(), table, []engine.Row{{"k": []byte(k), "v": []byte(v)}}); err != nil {
		t.Fatalf("Insert(%s, %s=%s): %v", table, k, v, err)
	}
}

// keyFilter matches rows whose k column equals key (plain columns take
// plaintext bounds).
func keyFilter(key string) engine.Filter {
	return engine.SingleRange("k", enclave.EncRange{
		Start: []byte(key), End: []byte(key), StartIncl: true, EndIncl: true,
	})
}

// scan renders a table's visible rows as "k=v" strings in scan order.
func scan(t *testing.T, db *engine.DB, table string) []string {
	t.Helper()
	res, err := db.Select(context.Background(), engine.Query{Table: table, Project: []string{"k", "v"}})
	if err != nil {
		t.Fatalf("Select(%s): %v", table, err)
	}
	rows := make([]string, len(res.RecordIDs))
	for i := range res.RecordIDs {
		rows[i] = fmt.Sprintf("%s=%s", res.Columns[0].Cells[i], res.Columns[1].Cells[i])
	}
	return rows
}

// stateString summarizes the whole database for equality checks across
// crash/recovery/twin runs.
func stateString(db *engine.DB) string {
	tables := db.Tables()
	sort.Strings(tables)
	var b strings.Builder
	for _, tbl := range tables {
		res, err := db.Select(context.Background(), engine.Query{Table: tbl, Project: []string{"k", "v"}})
		if err != nil {
			return "error: " + err.Error()
		}
		fmt.Fprintf(&b, "%s:", tbl)
		for i := range res.RecordIDs {
			fmt.Fprintf(&b, " %s=%s", res.Columns[0].Cells[i], res.Columns[1].Cells[i])
		}
		b.WriteString("\n")
	}
	return b.String()
}

func TestParseSyncPolicy(t *testing.T) {
	for _, s := range []string{"always", "interval", "none"} {
		if _, err := wal.ParseSyncPolicy(s); err != nil {
			t.Errorf("ParseSyncPolicy(%q): %v", s, err)
		}
	}
	if _, err := wal.ParseSyncPolicy("fsync-maybe"); err == nil {
		t.Error("ParseSyncPolicy accepted garbage")
	}
}

func TestOpenEmptyDir(t *testing.T) {
	dir := t.TempDir()
	db := engine.New(nil)
	l := openLog(t, dir, db)
	if got := db.Tables(); len(got) != 0 {
		t.Fatalf("fresh dir produced tables %v", got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Reopen: still empty, no replay.
	db2 := engine.New(nil)
	l2 := openLog(t, dir, db2)
	defer l2.Close()
	st := l2.Stats()
	if st.RestoredTables != 0 || st.ReplayedRecords != 0 {
		t.Errorf("reopen of empty store replayed %+v", st)
	}
}

func TestRecoverWritesWithoutClose(t *testing.T) {
	dir := t.TempDir()
	db := engine.New(nil)
	openLog(t, dir, db)
	if err := db.CreateTable(testSchema("t")); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	insert(t, db, "t", "k1", "a")
	insert(t, db, "t", "k2", "b")
	insert(t, db, "t", "k3", "c")
	want := stateString(db)
	// No Close: the process "vanishes". SyncAlways means every acked write
	// is already on disk.
	db2 := engine.New(nil)
	l2 := openLog(t, dir, db2)
	defer l2.Close()
	if got := stateString(db2); got != want {
		t.Errorf("recovered state:\n%s\nwant:\n%s", got, want)
	}
	st := l2.Stats()
	if st.ReplayedRecords != 4 { // create + 3 inserts
		t.Errorf("ReplayedRecords = %d, want 4", st.ReplayedRecords)
	}
}

func TestRecoverDeleteUpdateMerge(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	db := engine.New(nil)
	openLog(t, dir, db)
	if err := db.CreateTable(testSchema("t")); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	for i := 0; i < 5; i++ {
		insert(t, db, "t", fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	if n, err := db.Delete(ctx, "t", []engine.Filter{keyFilter("k1")}); err != nil || n != 1 {
		t.Fatalf("Delete = %d, %v", n, err)
	}
	if n, err := db.Update(ctx, "t", []engine.Filter{keyFilter("k2")}, engine.Row{"k": []byte("k2"), "v": []byte("patched")}); err != nil || n != 1 {
		t.Fatalf("Update = %d, %v", n, err)
	}
	if err := db.Merge(ctx, "t"); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	insert(t, db, "t", "k9", "after-merge")
	want := stateString(db)

	db2 := engine.New(nil)
	l2 := openLog(t, dir, db2)
	defer l2.Close()
	if got := stateString(db2); got != want {
		t.Errorf("recovered state:\n%s\nwant:\n%s", got, want)
	}
	st := l2.Stats()
	if st.RestoredTables != 1 {
		t.Errorf("RestoredTables = %d, want 1 (merge checkpointed an image)", st.RestoredTables)
	}
	if st.ReplayedRecords != 1 { // only the post-merge insert outlives the checkpoint
		t.Errorf("ReplayedRecords = %d, want 1", st.ReplayedRecords)
	}
}

func TestRecoverDropTable(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	db := engine.New(nil)
	openLog(t, dir, db)
	for _, name := range []string{"keep", "gone", "ckpt"} {
		if err := db.CreateTable(testSchema(name)); err != nil {
			t.Fatalf("CreateTable(%s): %v", name, err)
		}
		insert(t, db, name, "k", "v")
	}
	// ckpt gets an image first, so its drop also exercises the
	// manifest-rewrite path rather than just log replay.
	if err := db.Merge(ctx, "ckpt"); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if err := db.DropTable("gone"); err != nil {
		t.Fatalf("DropTable(gone): %v", err)
	}
	if err := db.DropTable("ckpt"); err != nil {
		t.Fatalf("DropTable(ckpt): %v", err)
	}
	want := stateString(db)

	db2 := engine.New(nil)
	l2 := openLog(t, dir, db2)
	defer l2.Close()
	if got := stateString(db2); got != want {
		t.Errorf("recovered state:\n%s\nwant:\n%s", got, want)
	}
	if got := db2.Tables(); len(got) != 1 || got[0] != "keep" {
		t.Errorf("Tables = %v, want [keep]", got)
	}
}

func TestRecoverDropAndRecreate(t *testing.T) {
	dir := t.TempDir()
	db := engine.New(nil)
	openLog(t, dir, db)
	if err := db.CreateTable(testSchema("t")); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	insert(t, db, "t", "old", "x")
	if err := db.DropTable("t"); err != nil {
		t.Fatalf("DropTable: %v", err)
	}
	if err := db.CreateTable(testSchema("t")); err != nil {
		t.Fatalf("re-CreateTable: %v", err)
	}
	insert(t, db, "t", "new", "y")
	want := stateString(db)

	db2 := engine.New(nil)
	l2 := openLog(t, dir, db2)
	defer l2.Close()
	if got := stateString(db2); got != want {
		t.Errorf("recovered state:\n%s\nwant:\n%s", got, want)
	}
	if rows := scan(t, db2, "t"); len(rows) != 1 || rows[0] != "new=y" {
		t.Errorf("rows = %v, want [new=y]", rows)
	}
}

func TestSyncPoliciesRoundTrip(t *testing.T) {
	for _, policy := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncInterval, wal.SyncNone} {
		t.Run(fmt.Sprint(policy), func(t *testing.T) {
			dir := t.TempDir()
			db := engine.New(nil)
			l := openLog(t, dir, db, wal.WithSyncPolicy(policy))
			if err := db.CreateTable(testSchema("t")); err != nil {
				t.Fatalf("CreateTable: %v", err)
			}
			insert(t, db, "t", "k", "v")
			want := stateString(db)
			// Close flushes and fsyncs the tail under every policy.
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			db2 := engine.New(nil)
			l2 := openLog(t, dir, db2)
			defer l2.Close()
			if got := stateString(db2); got != want {
				t.Errorf("recovered state:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// lastSegment returns the path of the highest-numbered segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no segments in %s (err %v)", dir, err)
	}
	sort.Strings(matches)
	return matches[len(matches)-1]
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	db := engine.New(nil)
	openLog(t, dir, db)
	if err := db.CreateTable(testSchema("t")); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	insert(t, db, "t", "k1", "a")
	insert(t, db, "t", "k2", "b")

	// Chop a byte off the final record: the classic torn append.
	seg := lastSegment(t, dir)
	blob, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, blob[:len(blob)-1], 0o644); err != nil {
		t.Fatal(err)
	}

	db2 := engine.New(nil)
	l2 := openLog(t, dir, db2)
	defer l2.Close()
	st := l2.Stats()
	if !st.TruncatedTail {
		t.Error("TruncatedTail = false, want true")
	}
	if rows := scan(t, db2, "t"); len(rows) != 1 || rows[0] != "k1=a" {
		t.Errorf("rows = %v, want [k1=a] (torn k2 dropped)", rows)
	}
}

// TestOldSegmentVersionRefused rewrites a segment's version byte to each
// older format — 1, whose import records predate dict's split layout, 2,
// whose splits stored every entry's IV and length, and 3, whose records
// used fixed-width little-endian lengths: recovery must refuse it with
// ErrSegmentVersion rather than misread its records.
func TestOldSegmentVersionRefused(t *testing.T) {
	dir := t.TempDir()
	db := engine.New(nil)
	openLog(t, dir, db)
	if err := db.CreateTable(testSchema("t")); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	insert(t, db, "t", "k1", "a")
	seg := lastSegment(t, dir)
	blob, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []byte{1, 2, 3} {
		blob[7] = v // the last byte of the 8-byte segment magic
		if err := os.WriteFile(seg, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := wal.Open(dir, engine.New(nil)); !errors.Is(err, wal.ErrSegmentVersion) {
			t.Errorf("version %d: Open = %v, want ErrSegmentVersion", v, err)
		}
	}
}

func TestCorruptionBeforeFinalSegmentIsFatal(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	db := engine.New(nil)
	openLog(t, dir, db)
	// Two tables; checkpointing only one rolls a fresh segment but keeps the
	// first segment alive (the unmerged table's records still need it).
	for _, name := range []string{"a", "b"} {
		if err := db.CreateTable(testSchema(name)); err != nil {
			t.Fatalf("CreateTable: %v", err)
		}
		insert(t, db, name, "k", "v")
	}
	if err := db.Merge(ctx, "a"); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	insert(t, db, "b", "k2", "v2")

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	sort.Strings(segs)
	if len(segs) < 2 {
		t.Fatalf("want >= 2 segments, got %v", segs)
	}
	blob, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x40 // bit-flip mid-record in a non-final segment
	if err := os.WriteFile(segs[0], blob, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := wal.Open(dir, engine.New(nil)); err == nil {
		t.Fatal("Open succeeded on a log corrupted before its final segment")
	}
}

func TestCheckpointPrunesSegments(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	db := engine.New(nil)
	l := openLog(t, dir, db)
	defer l.Close()
	if err := db.CreateTable(testSchema("t")); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	for i := 0; i < 10; i++ {
		insert(t, db, "t", fmt.Sprintf("k%d", i), "v")
	}
	if err := db.Merge(ctx, "t"); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) != 1 {
		t.Errorf("segments after checkpoint = %v, want exactly the fresh one", segs)
	}
	imgs, _ := filepath.Glob(filepath.Join(dir, "img-*.tbl"))
	if len(imgs) != 1 {
		t.Errorf("images after checkpoint = %v, want exactly one", imgs)
	}
}

func TestFsyncFailurePoisonsLog(t *testing.T) {
	dir := t.TempDir()
	db := engine.New(nil)
	ffs := wal.NewFaultFS(wal.OSFS{})
	openLog(t, dir, db, wal.WithFS(ffs))
	if err := db.CreateTable(testSchema("t")); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	insert(t, db, "t", "k1", "a")

	ffs.FailSync(1)
	err := db.InsertBatch(context.Background(), "t", []engine.Row{{"k": []byte("k2"), "v": []byte("b")}})
	if !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("Insert after fsync fault = %v, want ErrInjected", err)
	}
	// The failure is sticky: durability can no longer be promised, so every
	// later commit fails too.
	err = db.InsertBatch(context.Background(), "t", []engine.Row{{"k": []byte("k3"), "v": []byte("c")}})
	if !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("Insert after poisoned log = %v, want sticky ErrInjected", err)
	}

	// Recovery discards whatever the failed fsync left behind and keeps the
	// acked prefix.
	db2 := engine.New(nil)
	l2 := openLog(t, dir, db2)
	defer l2.Close()
	rows := scan(t, db2, "t")
	if len(rows) < 1 || rows[0] != "k1=a" {
		t.Errorf("recovered rows = %v, want k1=a first", rows)
	}
}

func TestShortWritePoisonsAppend(t *testing.T) {
	dir := t.TempDir()
	db := engine.New(nil)
	ffs := wal.NewFaultFS(wal.OSFS{})
	openLog(t, dir, db, wal.WithFS(ffs))
	if err := db.CreateTable(testSchema("t")); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	insert(t, db, "t", "k1", "a")

	ffs.ShortWrite(1)
	var sawErr bool
	// The short write surfaces on whichever append flushes the buffer; keep
	// writing until the poison shows.
	for i := 0; i < 10_000 && !sawErr; i++ {
		err := db.InsertBatch(context.Background(), "t", []engine.Row{{"k": []byte("kx"), "v": []byte("y")}})
		sawErr = err != nil
	}
	if !sawErr {
		t.Fatal("short write never surfaced as an append error")
	}
	db2 := engine.New(nil)
	l2, err := wal.Open(dir, db2)
	if err != nil {
		t.Fatalf("recovery after short write: %v", err)
	}
	defer l2.Close()
	if rows := scan(t, db2, "t"); len(rows) < 1 || rows[0] != "k1=a" {
		t.Errorf("recovered rows = %v, want k1=a first", rows)
	}
}
