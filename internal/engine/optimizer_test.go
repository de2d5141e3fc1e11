package engine_test

import (
	"context"
	"fmt"
	"testing"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/search"
)

// optimizerTable loads a two-column table: a cheap sorted column and an
// expensive unsorted one, with n rows.
func optimizerTable(t *testing.T, v *env, n int, opts ...engine.Option) (cheap, costly engine.ColumnDef) {
	t.Helper()
	cheap = engine.ColumnDef{Name: "cheap", Kind: dict.ED1, MaxLen: 8}
	costly = engine.ColumnDef{Name: "costly", Kind: dict.ED9, MaxLen: 8}
	if err := v.db.CreateTable(engine.Schema{Table: "opt", Columns: []engine.ColumnDef{cheap, costly}}); err != nil {
		t.Fatal(err)
	}
	colA := make([][]byte, n)
	colB := make([][]byte, n)
	for i := range colA {
		colA[i] = []byte(fmt.Sprintf("a%05d", i%50))
		colB[i] = []byte(fmt.Sprintf("b%05d", i))
	}
	v.loadColumn(t, "opt", cheap, colA)
	v.loadColumn(t, "opt", costly, colB)
	return cheap, costly
}

func TestOptimizerShortCircuitsUnsortedScan(t *testing.T) {
	v := newEnvWith(t)
	cheap, costly := optimizerTable(t, v, 500)

	// The cheap equality filter matches nothing; with reordering the ED9
	// linear scan (500 loads) must never run, regardless of the order the
	// filters were written in.
	filters := []engine.Filter{
		v.filter(t, "opt", costly, search.Closed([]byte("b00000"), []byte("b99999"))),
		v.filter(t, "opt", cheap, search.Eq([]byte("nomatch"))),
	}
	v.db.Enclave().ResetStats()
	res, err := v.db.Select(context.Background(), engine.Query{Table: "opt", Filters: filters, CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 {
		t.Fatalf("count = %d, want 0", res.Count)
	}
	if loads := v.db.Enclave().Stats().Loads; loads > 32 {
		t.Errorf("optimizer ran %d loads, want only the cheap binary search", loads)
	}
}

func TestOptimizerDisabledRunsInGivenOrder(t *testing.T) {
	v := newEnvWith(t, engine.WithFilterReorder(false))
	cheap, costly := optimizerTable(t, v, 500)
	filters := []engine.Filter{
		v.filter(t, "opt", costly, search.Closed([]byte("b00000"), []byte("b99999"))),
		v.filter(t, "opt", cheap, search.Eq([]byte("nomatch"))),
	}
	v.db.Enclave().ResetStats()
	if _, err := v.db.Select(context.Background(), engine.Query{Table: "opt", Filters: filters, CountOnly: true}); err != nil {
		t.Fatal(err)
	}
	if loads := v.db.Enclave().Stats().Loads; loads < 500 {
		t.Errorf("without reordering the unsorted scan should run first, loads = %d", loads)
	}
}

func TestOptimizerPreservesResults(t *testing.T) {
	v := newEnvWith(t)
	cheap, costly := optimizerTable(t, v, 300)
	// Both filters match: result must be identical regardless of plan.
	filters := []engine.Filter{
		v.filter(t, "opt", costly, search.Closed([]byte("b00000"), []byte("b00149"))),
		v.filter(t, "opt", cheap, search.Closed([]byte("a00000"), []byte("a00024"))),
	}
	res, err := v.db.Select(context.Background(), engine.Query{Table: "opt", Filters: filters, CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	// Rows 0..149 where i%50 < 25: i in [0,24], [50,74], [100,124] = 75.
	if res.Count != 75 {
		t.Errorf("count = %d, want 75", res.Count)
	}
}

func TestOptimizerUnknownColumnStillErrors(t *testing.T) {
	v := newEnvWith(t)
	optimizerTable(t, v, 50)
	_, err := v.db.Select(context.Background(), engine.Query{Table: "opt", Filters: []engine.Filter{
		{Column: "nope"},
		{Column: "cheap"},
	}})
	if err == nil {
		t.Error("unknown filter column accepted")
	}
}

// TestOptimizerChargesSealedRunsByKind: with every row in sealed delta
// runs, the sorted filter costs a binary search per run and the unsorted
// one a load per row, so the planner runs the sorted filter first whatever
// the written order, and its dictionary-level empty result spares the
// unsorted scan.
func TestOptimizerChargesSealedRunsByKind(t *testing.T) {
	v := newEnvWith(t, engine.WithSealThreshold(64))
	cheap := engine.ColumnDef{Name: "cheap", Kind: dict.ED1, MaxLen: 8}
	costly := engine.ColumnDef{Name: "costly", Kind: dict.ED9, MaxLen: 8}
	if err := v.db.CreateTable(engine.Schema{Table: "opt", Columns: []engine.ColumnDef{cheap, costly}}); err != nil {
		t.Fatal(err)
	}
	const rows = 640
	batch := make([]engine.Row, rows)
	for i := range batch {
		batch[i] = engine.Row{
			"cheap":  v.encryptValue(t, "opt", "cheap", fmt.Sprintf("a%05d", i%50)),
			"costly": v.encryptValue(t, "opt", "costly", fmt.Sprintf("b%05d", i)),
		}
	}
	if err := v.db.InsertBatch(context.Background(), "opt", batch); err != nil {
		t.Fatal(err)
	}
	if runs, _ := v.db.SealedRuns("opt"); runs != rows/64 {
		t.Fatalf("sealed runs = %d, want %d", runs, rows/64)
	}
	filters := []engine.Filter{
		v.filter(t, "opt", costly, search.Closed([]byte("b00000"), []byte("b99999"))),
		v.filter(t, "opt", cheap, search.Eq([]byte("nomatch"))),
	}
	v.db.Enclave().ResetStats()
	res, err := v.db.Select(context.Background(), engine.Query{Table: "opt", Filters: filters, CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 {
		t.Fatalf("count = %d, want 0", res.Count)
	}
	if loads := v.db.Enclave().Stats().Loads; loads >= rows/2 {
		t.Errorf("the plan loaded %d entries; the sorted filter first costs a binary search per run, the unsorted one %d", loads, rows)
	}
}
