package storage_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/storage"
)

// fuzzSeedSnapshot builds a small but representative snapshot: plain
// columns (no enclave needed), main and delta regions both populated, an
// invalidated row. The fuzzer mutates its serialized forms.
func fuzzSeedSnapshot(f *testing.F) *engine.TableSnapshot {
	db := engine.New(nil)
	schema := engine.Schema{Table: "fz", Columns: []engine.ColumnDef{
		{Name: "a", Kind: dict.ED9, MaxLen: 12, Plain: true},
		{Name: "b", Kind: dict.ED1, MaxLen: 12, BSMax: 3, Plain: true},
	}}
	if err := db.CreateTable(schema); err != nil {
		f.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		row := engine.Row{
			"a": []byte(fmt.Sprintf("a%02d", i)),
			"b": []byte(fmt.Sprintf("b%02d", i%3)),
		}
		if err := db.InsertBatch(ctx, "fz", []engine.Row{row}); err != nil {
			f.Fatal(err)
		}
	}
	if err := db.Merge(ctx, "fz"); err != nil {
		f.Fatal(err)
	}
	if err := db.InsertBatch(ctx, "fz", []engine.Row{{"a": []byte("tail"), "b": []byte("tail")}}); err != nil {
		f.Fatal(err)
	}
	snap, err := db.Snapshot("fz")
	if err != nil {
		f.Fatal(err)
	}
	return snap
}

// FuzzReadTable feeds ReadTable arbitrary bytes, seeded with valid images
// (a small table, and one whose dictionary tail spans several read chunks)
// plus truncated and bit-flipped variants. Corrupt input must surface as an
// error — never a panic, hang, or huge allocation.
func FuzzReadTable(f *testing.F) {
	for _, snap := range []*engine.TableSnapshot{fuzzSeedSnapshot(f), largeTailSnapshot(f)} {
		var buf bytes.Buffer
		if err := storage.WriteTable(&buf, snap); err != nil {
			f.Fatal(err)
		}
		blob := buf.Bytes()
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
		flipped := append([]byte(nil), blob...)
		flipped[len(flipped)/3] ^= 0x20
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte("ENCDBDB"))

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := storage.ReadTable(bytes.NewReader(data))
		if err == nil && snap == nil {
			t.Fatal("ReadTable returned nil snapshot without error")
		}
	})
}
