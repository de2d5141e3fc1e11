package engine_test

import (
	"context"
	"fmt"
	"io"
	"testing"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/search"
)

// TestCountOnlyShipsNoRecordIDs: a count-only Select or SelectStream answers
// with the match bitmap's popcount — the same Count the rendered query
// reports — and carries no RecordIDs, whether the matches live in the main
// store, a sealed delta run or the active tail, with deleted rows excluded.
func TestCountOnlyShipsNoRecordIDs(t *testing.T) {
	ctx := context.Background()
	for _, shape := range []struct {
		name        string
		main, delta int
		sealRows    int
	}{
		{name: "main-only", main: 300},
		{name: "sealed-runs", main: 100, delta: 200, sealRows: 64},
		{name: "tail", delta: 50, sealRows: 4096},
	} {
		for _, kind := range []dict.Kind{dict.ED1, dict.ED3, dict.ED5} {
			t.Run(fmt.Sprintf("%s/%v", shape.name, kind), func(t *testing.T) {
				v := newEnvWith(t, engine.WithSealThreshold(shape.sealRows))
				def := engine.ColumnDef{Name: "c", Kind: kind, MaxLen: 8, BSMax: 3}
				if err := v.db.CreateTable(engine.Schema{Table: "cnt", Columns: []engine.ColumnDef{def}}); err != nil {
					t.Fatal(err)
				}
				value := func(i int) string { return fmt.Sprintf("v%03d", i%37) }
				if shape.main > 0 {
					col := make([][]byte, shape.main)
					for i := range col {
						col[i] = []byte(value(i))
					}
					v.loadColumn(t, "cnt", def, col)
				}
				for i := shape.main; i < shape.main+shape.delta; i++ {
					if err := v.db.InsertBatch(ctx, "cnt", []engine.Row{{"c": v.encryptValue(t, "cnt", "c", value(i))}}); err != nil {
						t.Fatal(err)
					}
				}
				del := v.filter(t, "cnt", def, search.Eq([]byte(value(5))))
				if _, err := v.db.Delete(ctx, "cnt", []engine.Filter{del}); err != nil {
					t.Fatal(err)
				}

				f := v.filter(t, "cnt", def, search.Closed([]byte(value(3)), []byte(value(9))))
				q := engine.Query{Table: "cnt", Filters: []engine.Filter{f}}
				rendered, err := v.db.Select(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				if rendered.Count == 0 {
					t.Fatal("query matches nothing; the test has no signal")
				}
				q.CountOnly = true
				res, err := v.db.Select(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				if res.Count != rendered.Count || res.RecordIDs != nil || res.Columns != nil {
					t.Errorf("count-only Select = {Count %d, %d RecordIDs, %d columns}, want {Count %d, none, none}",
						res.Count, len(res.RecordIDs), len(res.Columns), rendered.Count)
				}
				st, err := v.db.SelectStream(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				if st.Count() != rendered.Count {
					t.Errorf("count-only stream Count = %d, want %d", st.Count(), rendered.Count)
				}
				if chunk, err := st.Next(); err != io.EOF {
					t.Errorf("count-only stream Next = %v, %v; want io.EOF", chunk, err)
				}
			})
		}
	}
}
