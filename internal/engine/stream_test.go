package engine_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"testing"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/search"
)

// drainStream collects a stream's chunks into one flat row list per column.
func drainStream(t *testing.T, st engine.ResultStream) (chunks int, cells map[string][][]byte) {
	t.Helper()
	cells = make(map[string][][]byte)
	for {
		chunk, err := st.Next()
		if err == io.EOF {
			return chunks, cells
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		chunks++
		if chunk.Count != len(chunk.RecordIDs) {
			t.Fatalf("chunk Count = %d, rids = %d", chunk.Count, len(chunk.RecordIDs))
		}
		// A chunk's cells are valid until the next Next: the cursor
		// renders every chunk into the same memory.
		for _, rc := range chunk.Columns {
			for _, cell := range rc.Cells {
				cells[rc.Column] = append(cells[rc.Column], bytes.Clone(cell))
			}
		}
	}
}

// TestSelectStreamMatchesSelect pins that streaming returns exactly the rows
// a materialized Select does, in the same order, across multiple chunks.
func TestSelectStreamMatchesSelect(t *testing.T) {
	v := newEnvWith(t, engine.WithStreamChunk(8))
	def := engine.ColumnDef{Name: "c", Kind: dict.ED5, MaxLen: 8, BSMax: 3}
	schema := engine.Schema{Table: "s1", Columns: []engine.ColumnDef{def}}
	if err := v.db.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	var col [][]byte
	for i := 0; i < 100; i++ {
		col = append(col, fmt.Appendf(nil, "v%03d", i%37))
	}
	v.loadColumn(t, "s1", def, col)

	f := v.filter(t, "s1", def, search.Closed([]byte("v000"), []byte("v020")))
	q := engine.Query{Table: "s1", Filters: []engine.Filter{f}}
	ctx := context.Background()

	want, err := v.db.Select(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	st, err := v.db.SelectStream(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Count() != want.Count {
		t.Fatalf("stream Count = %d, want %d", st.Count(), want.Count)
	}
	chunks, cells := drainStream(t, st)
	if want.Count > 8 && chunks < 2 {
		t.Fatalf("chunks = %d for %d rows with chunk size 8", chunks, want.Count)
	}
	got := cells["c"]
	if len(got) != want.Count {
		t.Fatalf("streamed %d cells, want %d", len(got), want.Count)
	}
	for i, cell := range want.Columns[0].Cells {
		if string(got[i]) != string(cell) {
			t.Fatalf("cell %d differs between stream and select", i)
		}
	}
}

// TestSelectStreamCountOnly: a count-only stream has no chunks but carries
// the total.
func TestSelectStreamCountOnly(t *testing.T) {
	v := newEnv(t)
	fname, _ := v.standardTable(t, dict.ED1, dict.ED1)
	f := v.filter(t, "t1", fname, search.Eq([]byte("Jessica")))
	st, err := v.db.SelectStream(context.Background(), engine.Query{
		Table: "t1", Filters: []engine.Filter{f}, CountOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Count() != 3 {
		t.Fatalf("Count = %d, want 3", st.Count())
	}
	if _, err := st.Next(); err != io.EOF {
		t.Fatalf("Next = %v, want io.EOF", err)
	}
}

// TestSelectContextCancelled: a cancelled context fails Select with
// context.Canceled before any scan work runs.
func TestSelectContextCancelled(t *testing.T) {
	v := newEnv(t)
	fname, _ := v.standardTable(t, dict.ED1, dict.ED1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := v.filter(t, "t1", fname, search.Eq([]byte("Jessica")))
	_, err := v.db.Select(ctx, engine.Query{Table: "t1", Filters: []engine.Filter{f}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Select err = %v, want context.Canceled", err)
	}
}

// TestSelectStreamCancelledMidway: cancelling between chunks surfaces
// context.Canceled from the next chunk fetch.
func TestSelectStreamCancelledMidway(t *testing.T) {
	v := newEnvWith(t, engine.WithStreamChunk(2))
	fname, _ := v.standardTable(t, dict.ED1, dict.ED1)
	ctx, cancel := context.WithCancel(context.Background())
	f := v.filter(t, "t1", fname, search.Closed([]byte("A"), []byte("Z")))
	st, err := v.db.SelectStream(ctx, engine.Query{Table: "t1", Filters: []engine.Filter{f}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Next(); err != nil {
		t.Fatalf("first chunk: %v", err)
	}
	cancel()
	if _, err := st.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel = %v, want context.Canceled", err)
	}
}

// TestWriteContextCancelled: the write paths check the context up front.
func TestWriteContextCancelled(t *testing.T) {
	v := newEnv(t)
	fname, _ := v.standardTable(t, dict.ED1, dict.ED1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	row := engine.Row{"fname": v.encryptValue(t, "t1", "fname", "Zed"), "city": v.encryptValue(t, "t1", "city", "Bonn")}
	if err := v.db.InsertBatch(ctx, "t1", []engine.Row{row}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Insert err = %v", err)
	}
	f := v.filter(t, "t1", fname, search.Eq([]byte("Jessica")))
	if _, err := v.db.Delete(ctx, "t1", []engine.Filter{f}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Delete err = %v", err)
	}
	if _, err := v.db.Update(ctx, "t1", []engine.Filter{f}, row); !errors.Is(err, context.Canceled) {
		t.Fatalf("Update err = %v", err)
	}
	if err := v.db.Merge(ctx, "t1"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Merge err = %v", err)
	}
}

// TestSelectStreamSeesDeltaAndDeletes: the stream path applies validity and
// covers main + delta chain like Select.
func TestSelectStreamSeesDeltaAndDeletes(t *testing.T) {
	ctx := context.Background()
	v := newEnvWith(t, engine.WithStreamChunk(2))
	fname, city := v.standardTable(t, dict.ED5, dict.ED9)
	for _, name := range []string{"Nora", "Nellie"} {
		row := engine.Row{
			"fname": v.encryptValue(t, "t1", "fname", name),
			"city":  v.encryptValue(t, "t1", "city", "Oslo"),
		}
		if err := v.db.InsertBatch(ctx, "t1", []engine.Row{row}); err != nil {
			t.Fatal(err)
		}
	}
	// Delete one main-store row (Ella).
	if _, err := v.db.Delete(ctx, "t1", []engine.Filter{v.filter(t, "t1", fname, search.Eq([]byte("Ella")))}); err != nil {
		t.Fatal(err)
	}
	st, err := v.db.SelectStream(ctx, engine.Query{
		Table:   "t1",
		Filters: []engine.Filter{v.filter(t, "t1", fname, search.Closed([]byte("A"), []byte("Zz")))},
		Project: []string{"city"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, cells := drainStream(t, st)
	got := v.decryptCells(t, engine.ResultColumn{Table: "t1", Column: "city", Cells: cells["city"]}, false)
	want := map[string]int{"Berlin": 2, "Waterloo": 1, "Karlsruhe": 2, "Oslo": 2}
	counts := map[string]int{}
	for _, c := range got {
		counts[c]++
	}
	for k, n := range want {
		if counts[k] != n {
			t.Fatalf("city %q count = %d, want %d (all: %v)", k, counts[k], n, counts)
		}
	}
	if len(got) != 7 {
		t.Fatalf("rows = %d, want 7", len(got))
	}
	_ = city
}
