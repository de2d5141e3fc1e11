package engine_test

import (
	"context"
	"fmt"
	"testing"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/search"
)

// limitEnv builds a one-column table with main-store rows plus delta inserts,
// so a pushed-down LIMIT exercises both the match-set truncation and the
// delta-region early exit.
func limitEnv(t *testing.T, opts ...engine.Option) (*env, engine.ColumnDef) {
	t.Helper()
	v := newEnvWith(t, opts...)
	def := engine.ColumnDef{Name: "c", Kind: dict.ED1, MaxLen: 8}
	if err := v.db.CreateTable(engine.Schema{Table: "lim", Columns: []engine.ColumnDef{def}}); err != nil {
		t.Fatal(err)
	}
	var col [][]byte
	for i := 0; i < 60; i++ {
		col = append(col, fmt.Appendf(nil, "v%03d", i))
	}
	v.loadColumn(t, "lim", def, col)
	ctx := context.Background()
	for i := 60; i < 80; i++ {
		row := engine.Row{"c": v.encryptValue(t, "lim", "c", fmt.Sprintf("v%03d", i))}
		if err := v.db.InsertBatch(ctx, "lim", []engine.Row{row}); err != nil {
			t.Fatal(err)
		}
	}
	return v, def
}

// TestSelectLimitPushdown pins that Query.Limit returns exactly the first
// Limit matches in RecordID order — the same prefix a client-side cutoff of
// the unlimited result would keep. The fused scan is the only evaluator; its
// subtest keeps the name it had when a two-pass path ran beside it.
func TestSelectLimitPushdown(t *testing.T) {
	t.Run("fused=true", func(t *testing.T) {
		v, def := limitEnv(t)
		ctx := context.Background()
		f := v.filter(t, "lim", def, search.Closed([]byte("v000"), []byte("v099")))
		full, err := v.db.Select(ctx, engine.Query{Table: "lim", Filters: []engine.Filter{f}})
		if err != nil {
			t.Fatal(err)
		}
		if full.Count != 80 {
			t.Fatalf("full Count = %d, want 80", full.Count)
		}
		for _, limit := range []int{1, 10, 60, 65, 80, 200} {
			got, err := v.db.Select(ctx, engine.Query{
				Table: "lim", Filters: []engine.Filter{f}, Limit: limit,
			})
			if err != nil {
				t.Fatal(err)
			}
			want := min(limit, full.Count)
			if got.Count != want || len(got.RecordIDs) != want {
				t.Fatalf("limit %d: Count = %d, rids = %d, want %d", limit, got.Count, len(got.RecordIDs), want)
			}
			for i := 0; i < want; i++ {
				if got.RecordIDs[i] != full.RecordIDs[i] {
					t.Fatalf("limit %d: rid[%d] = %d, want %d", limit, i, got.RecordIDs[i], full.RecordIDs[i])
				}
				if string(got.Columns[0].Cells[i]) != string(full.Columns[0].Cells[i]) {
					t.Fatalf("limit %d: cell %d differs from unlimited prefix", limit, i)
				}
			}
		}
	})
}

// TestSelectLimitStream: the streaming cursor stops at the pushed-down limit
// and reports the truncated count.
func TestSelectLimitStream(t *testing.T) {
	v, def := limitEnv(t, engine.WithStreamChunk(7))
	ctx := context.Background()
	f := v.filter(t, "lim", def, search.Closed([]byte("v000"), []byte("v099")))
	st, err := v.db.SelectStream(ctx, engine.Query{
		Table: "lim", Filters: []engine.Filter{f}, Limit: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Count() != 25 {
		t.Fatalf("stream Count = %d, want 25", st.Count())
	}
	_, cells := drainStream(t, st)
	if len(cells["c"]) != 25 {
		t.Fatalf("streamed %d rows, want 25", len(cells["c"]))
	}
}

// TestSelectLimitCountOnly: a count query reports the full cardinality even
// when Limit is set — LIMIT bounds result rows, not the count's value.
func TestSelectLimitCountOnly(t *testing.T) {
	v, def := limitEnv(t)
	f := v.filter(t, "lim", def, search.Closed([]byte("v000"), []byte("v099")))
	res, err := v.db.Select(context.Background(), engine.Query{
		Table: "lim", Filters: []engine.Filter{f}, CountOnly: true, Limit: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 80 {
		t.Fatalf("CountOnly with Limit = %d, want 80", res.Count)
	}
}
