package storage_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/pae"
	"github.com/encdbdb/encdbdb/internal/proxy"
	"github.com/encdbdb/encdbdb/internal/storage"
)

// newStack builds a proxy+engine+enclave stack and returns the pieces needed
// to open a second database against the same master key.
func newStack(t testing.TB) (*proxy.Proxy, *engine.DB, pae.Key) {
	t.Helper()
	plat, err := enclave.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	encl, err := plat.Launch(enclave.Config{Identity: "storage-test"})
	if err != nil {
		t.Fatal(err)
	}
	master := pae.MustGen()
	sealed, err := enclave.SealKey(encl.Quote(nil), master)
	if err != nil {
		t.Fatal(err)
	}
	if err := encl.Provision(sealed); err != nil {
		t.Fatal(err)
	}
	db := engine.New(encl)
	p, err := proxy.New(master, db)
	if err != nil {
		t.Fatal(err)
	}
	return p, db, master
}

// cloneStack opens a fresh database + proxy sharing the master key, as after
// a server restart.
func cloneStack(t testing.TB, master pae.Key) (*proxy.Proxy, *engine.DB) {
	t.Helper()
	plat, err := enclave.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	encl, err := plat.Launch(enclave.Config{Identity: "storage-test"})
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := enclave.SealKey(encl.Quote(nil), master)
	if err != nil {
		t.Fatal(err)
	}
	if err := encl.Provision(sealed); err != nil {
		t.Fatal(err)
	}
	db := engine.New(encl)
	p, err := proxy.New(master, db)
	if err != nil {
		t.Fatal(err)
	}
	return p, db
}

func seed(t testing.TB, p *proxy.Proxy) {
	t.Helper()
	mustExec(t, p, "CREATE TABLE t1 (fname ED5(16) BSMAX 3, city ED1(16), note PLAIN ED3(20))")
	rows := [][3]string{
		{"Hans", "Berlin", "b2b"},
		{"Jessica", "Waterloo", "vip"},
		{"Archie", "Karlsruhe", "b2b"},
	}
	for _, r := range rows {
		mustExec(t, p, fmt.Sprintf("INSERT INTO t1 VALUES ('%s', '%s', '%s')", r[0], r[1], r[2]))
	}
	// One deleted row exercises validity persistence.
	mustExec(t, p, "DELETE FROM t1 WHERE fname = 'Hans'")
}

func mustExec(t testing.TB, p *proxy.Proxy, sql string) *proxy.Result {
	t.Helper()
	res, err := p.Execute(context.Background(), sql)
	if err != nil {
		t.Fatalf("Execute(%q): %v", sql, err)
	}
	return res
}

func TestRoundTripInMemory(t *testing.T) {
	p, db, master := newStack(t)
	seed(t, p)
	snap, err := db.Snapshot("t1")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := storage.WriteTable(&buf, snap); err != nil {
		t.Fatalf("WriteTable: %v", err)
	}
	got, err := storage.ReadTable(&buf)
	if err != nil {
		t.Fatalf("ReadTable: %v", err)
	}

	p2, db2 := cloneStack(t, master)
	if err := db2.Restore(got); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	res := mustExec(t, p2, "SELECT fname, city, note FROM t1 WHERE fname >= 'A'")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v, want 2 (Hans deleted)", res.Rows)
	}
	for _, r := range res.Rows {
		if r[0] == "Hans" {
			t.Error("deleted row resurrected after restore")
		}
	}
}

func TestSaveLoadFiles(t *testing.T) {
	p, db, master := newStack(t)
	seed(t, p)
	path := filepath.Join(t.TempDir(), "t1.encdb")
	if err := storage.SaveTable(db, "t1", path); err != nil {
		t.Fatalf("SaveTable: %v", err)
	}
	_, db2 := cloneStack(t, master)
	if err := storage.LoadTable(db2, path); err != nil {
		t.Fatalf("LoadTable: %v", err)
	}
	n, err := db2.Rows("t1")
	if err != nil || n != 3 {
		t.Errorf("rows = %d (%v), want 3", n, err)
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	p, db, _ := newStack(t)
	seed(t, p)
	snap, err := db.Snapshot("t1")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := storage.WriteTable(&buf, snap); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	t.Run("bit flip", func(t *testing.T) {
		for _, pos := range []int{20, len(raw) / 2, len(raw) - 10} {
			bad := append([]byte(nil), raw...)
			bad[pos] ^= 0x40
			if _, err := storage.ReadTable(bytes.NewReader(bad)); err == nil {
				t.Errorf("corruption at %d not detected", pos)
			}
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 4, len(raw) / 2, len(raw) - 1} {
			if _, err := storage.ReadTable(bytes.NewReader(raw[:n])); err == nil {
				t.Errorf("truncation to %d not detected", n)
			}
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[0] = 'X'
		if _, err := storage.ReadTable(bytes.NewReader(bad)); !errors.Is(err, storage.ErrBadMagic) {
			t.Errorf("err = %v, want ErrBadMagic", err)
		}
	})
}

func TestLoadTableMissingFile(t *testing.T) {
	_, db, _ := newStack(t)
	if err := storage.LoadTable(db, filepath.Join(t.TempDir(), "nope.encdb")); err == nil {
		t.Error("missing file not reported")
	}
}

func TestSnapshotUnknownTable(t *testing.T) {
	_, db, _ := newStack(t)
	if _, err := db.Snapshot("nope"); !errors.Is(err, engine.ErrNoSuchTable) {
		t.Errorf("err = %v, want ErrNoSuchTable", err)
	}
}

func TestRestoreRejectsExistingTable(t *testing.T) {
	p, db, _ := newStack(t)
	seed(t, p)
	snap, err := db.Snapshot("t1")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Restore(snap); !errors.Is(err, engine.ErrTableExists) {
		t.Errorf("err = %v, want ErrTableExists", err)
	}
}

// TestRestoreRejectsTamperedSplitRefs rewrites a split's first head
// reference in an image, checksum fixed up: the out-of-range reference must
// be refused at load, before it can cause an out-of-bounds access. A
// snapshot that decodes but does not fit its schema must fail Restore and
// leave no half-restored table behind.
func TestRestoreRejectsTamperedSplitRefs(t *testing.T) {
	p, db, master := newStack(t)
	seed(t, p)
	if err := db.Merge(context.Background(), "t1"); err != nil {
		t.Fatal(err)
	}
	snap, err := db.Snapshot("t1")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := storage.WriteTable(&buf, snap); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	main := snap.Columns[0].Main
	split := main.AppendBinary(nil)
	at := bytes.Index(raw, split)
	if at < 0 {
		t.Fatal("split bytes not found in the image")
	}
	// The head's offsets are 4 bytes each, followed by the u32 tail length
	// and the tail.
	head := at + len(split) - 4 - len(main.Tail()) - 4*main.Len()
	binary.LittleEndian.PutUint32(raw[head:], 1<<30)
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(raw[:len(raw)-4]))
	if _, err := storage.ReadTable(bytes.NewReader(raw)); !errors.Is(err, storage.ErrCorrupt) {
		t.Errorf("tampered head reference: err = %v, want ErrCorrupt", err)
	}

	for name, tamper := range map[string]func(s *engine.TableSnapshot){
		"validity flag missing": func(s *engine.TableSnapshot) { s.MainValid = s.MainValid[1:] },
		"split of another kind": func(s *engine.TableSnapshot) { s.Columns[0].Main = s.Columns[1].Main },
	} {
		bad := *snap
		bad.Columns = slices.Clone(snap.Columns)
		tamper(&bad)
		_, db2 := cloneStack(t, master)
		if err := db2.Restore(&bad); err == nil {
			t.Errorf("%s: Restore accepted the snapshot", name)
		}
		if got := db2.Tables(); len(got) != 0 {
			t.Errorf("%s: half-restored table left behind: %v", name, got)
		}
	}
}

// TestFormatMatrix pins the one on-disk format: an image WriteTable wrote
// restores a database that answers queries identically to the live
// original, with every split's codes surviving bit-for-bit, and an image
// carrying any other format version is refused with ErrBadVersion before
// anything past the header is parsed.
func TestFormatMatrix(t *testing.T) {
	p, db, master := newStack(t)
	seed(t, p)
	for i := 0; i < 256; i++ {
		mustExec(t, p, fmt.Sprintf("INSERT INTO t1 VALUES ('P%03d', 'C%02d', 'n%d')", i, i%16, i%4))
	}
	// Merge so the main stores hold data; keep one post-merge insert so
	// delta persistence is exercised too.
	if err := db.Merge(context.Background(), "t1"); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	mustExec(t, p, "INSERT INTO t1 VALUES ('Zoe', 'Aachen', 'vip')")

	snap, err := db.Snapshot("t1")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := storage.WriteTable(&buf, snap); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	t.Run("current", func(t *testing.T) {
		got, err := storage.ReadTable(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("ReadTable: %v", err)
		}
		for i, cs := range got.Columns {
			if want := snap.Columns[i].Main.AppendBinary(nil); !bytes.Equal(cs.Main.AppendBinary(nil), want) {
				t.Fatalf("column %q: split changed across the round trip", cs.Name)
			}
		}
		p2, db2 := cloneStack(t, master)
		if err := db2.Restore(got); err != nil {
			t.Fatalf("Restore: %v", err)
		}
		for _, q := range []string{
			"SELECT fname, city, note FROM t1 WHERE fname >= 'A'",
			"SELECT city FROM t1 WHERE city = 'Waterloo'",
			"SELECT COUNT(*) FROM t1 WHERE note = 'b2b'",
		} {
			want, got := mustExec(t, p, q), mustExec(t, p2, q)
			if want.Count != got.Count || !reflect.DeepEqual(want.Rows, got.Rows) {
				t.Errorf("%q: restored answered %d rows/count %d, original %d/%d",
					q, len(got.Rows), got.Count, len(want.Rows), want.Count)
			}
		}
	})
	t.Run("old version is refused", func(t *testing.T) {
		// The uvarint format version follows the 8-byte magic. Version 5
		// wrote a u16, whose low byte is where version 6's uvarint is.
		for _, ver := range []byte{0, 1, 2, 3, 4, 5, 7} {
			old := append([]byte(nil), raw...)
			old[8] = ver
			if _, err := storage.ReadTable(bytes.NewReader(old)); !errors.Is(err, storage.ErrBadVersion) {
				t.Errorf("version %d: err = %v, want ErrBadVersion", ver, err)
			}
		}
	})
}

// largeTailSnapshot snapshots a merged one-column table whose dictionary
// tail exceeds the decoder's 1 MiB read chunk — the size every realistic
// merged table and checkpoint image has.
func largeTailSnapshot(t testing.TB) *engine.TableSnapshot {
	t.Helper()
	db := engine.New(nil)
	schema := engine.Schema{Table: "big", Columns: []engine.ColumnDef{
		{Name: "c", Kind: dict.ED1, MaxLen: 1024, Plain: true},
	}}
	if err := db.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rows := make([]engine.Row, 1200)
	for i := range rows {
		rows[i] = engine.Row{"c": append(bytes.Repeat([]byte{'x'}, 1000), fmt.Sprintf("%04d", i)...)}
	}
	if err := db.InsertBatch(ctx, "big", rows); err != nil {
		t.Fatal(err)
	}
	if err := db.Merge(ctx, "big"); err != nil {
		t.Fatal(err)
	}
	snap, err := db.Snapshot("big")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(snap.Columns[0].Main.Tail()); n <= 1<<20 {
		t.Fatalf("tail is %d bytes, want > 1 MiB", n)
	}
	return snap
}

func TestRoundTripLargeTail(t *testing.T) {
	snap := largeTailSnapshot(t)
	var buf bytes.Buffer
	if err := storage.WriteTable(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := storage.ReadTable(&buf)
	if err != nil {
		t.Fatalf("ReadTable: %v", err)
	}
	if !bytes.Equal(got.Columns[0].Main.AppendBinary(nil), snap.Columns[0].Main.AppendBinary(nil)) {
		t.Error("split changed across the round trip")
	}
	if err := engine.New(nil).Restore(got); err != nil {
		t.Errorf("Restore: %v", err)
	}
}

func TestRoundTripEmptyTable(t *testing.T) {
	p, db, master := newStack(t)
	mustExec(t, p, "CREATE TABLE empty (c ED1(8))")
	snap, err := db.Snapshot("empty")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := storage.WriteTable(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := storage.ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p2, db2 := cloneStack(t, master)
	if err := db2.Restore(got); err != nil {
		t.Fatal(err)
	}
	// The restored empty table must accept inserts and queries.
	mustExec(t, p2, "INSERT INTO empty VALUES ('x')")
	res := mustExec(t, p2, "SELECT COUNT(*) FROM empty")
	if res.Count != 1 {
		t.Errorf("count = %d, want 1", res.Count)
	}
}
