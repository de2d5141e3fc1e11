package engine_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/workload"
)

// TestRenderMatchesEntry: the batched render of a column equals the per-row
// reference (entry) cell for cell, for all nine kinds and a plain split, over
// a table holding main rows in several block encodings, two sealed runs and a
// one-row tail, for ascending RecordID lists of the lengths around the
// 256-row and 1024-row boundaries.
func TestRenderMatchesEntry(t *testing.T) {
	const sealRows, mainRows = 64, 2500
	defs := []engine.ColumnDef{{Name: "c", Kind: dict.ED1, MaxLen: 8, Plain: true}}
	for k := dict.ED1; k <= dict.ED9; k++ {
		defs = append(defs, engine.ColumnDef{Name: "c", Kind: k, MaxLen: 8, BSMax: 4})
	}
	rng := rand.New(rand.NewSource(71))
	for _, def := range defs {
		name := def.Kind.String()
		if def.Plain {
			name += "-plain"
		}
		t.Run(name, func(t *testing.T) {
			v := newEnvWith(t, engine.WithSealThreshold(sealRows))
			if err := v.db.CreateTable(engine.Schema{Table: "t", Columns: []engine.ColumnDef{def}}); err != nil {
				t.Fatal(err)
			}
			// Clustered values, a narrow spread, then random draws: where
			// the kind's ValueIDs follow the values, the main store's blocks
			// are RLE, FoR and packed.
			col := make([][]byte, mainRows)
			for i := range col {
				switch {
				case i < 1024:
					col[i] = []byte(fmt.Sprintf("r%04d", i/64))
				case i < 2048:
					col[i] = []byte(fmt.Sprintf("n%04d", rng.Intn(4)))
				default:
					col[i] = []byte(fmt.Sprintf("u%04d", rng.Intn(1000)))
				}
			}
			v.loadColumn(t, "t", def, col)
			for i := 0; i < 2*sealRows+1; i++ {
				val := []byte(fmt.Sprintf("d%04d", i))
				if !def.Plain {
					val = v.encryptValue(t, "t", "c", string(val))
				}
				if err := v.db.InsertBatch(context.Background(), "t", []engine.Row{{"c": val}}); err != nil {
					t.Fatal(err)
				}
			}
			if runs, _ := v.db.SealedRuns("t"); runs != 2 {
				t.Fatalf("sealed runs = %d, want 2", runs)
			}
			total := mainRows + 2*sealRows + 1
			for _, n := range []int{0, 1, 255, 256, 257, 1023, 1024, 1025} {
				// Always cross the main/delta boundary and hit the tail.
				edges := []uint32{mainRows - 1, mainRows, uint32(total - 1)}
				var rids []uint32
				if n >= len(edges) {
					rids = append(rids, edges...)
				}
				for _, r := range rng.Perm(total) {
					if len(rids) == n {
						break
					}
					if !slices.Contains(edges, uint32(r)) {
						rids = append(rids, uint32(r))
					}
				}
				slices.Sort(rids)
				render, entries, err := v.db.Renderers("t", "c")
				if err != nil {
					t.Fatal(err)
				}
				batched, perRow := render(rids), entries(rids)
				if len(rids) != n || len(batched) != n {
					t.Fatalf("%d rows: drew %d RecordIDs, render returned %d cells", n, len(rids), len(batched))
				}
				for i := range rids {
					if !bytes.Equal(batched[i], perRow[i]) {
						t.Fatalf("%d rows: row %d renders %x, entry says %x", len(rids), rids[i], batched[i], perRow[i])
					}
				}
			}
		})
	}
}

// TestRenderSizedByContent: rendering takes memory for the entries it copies,
// not for the most a column admits. A table declared with a MaxLen of 1 GiB,
// encrypted and plain, holding short values in its main store and delta,
// answers a materialized Select and a SelectStream within a few megabytes.
func TestRenderSizedByContent(t *testing.T) {
	const maxLen, mainRows, deltaRows = 1 << 30, 2000, 3
	v := newEnv(t)
	defs := []engine.ColumnDef{
		{Name: "e", Kind: dict.ED1, MaxLen: maxLen},
		{Name: "p", Kind: dict.ED1, MaxLen: maxLen, Plain: true},
	}
	if err := v.db.CreateTable(engine.Schema{Table: "t", Columns: defs}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	insert := func(n int) {
		rows := make([]engine.Row, n)
		for i := range rows {
			val := fmt.Sprintf("v%03d", i%100)
			rows[i] = engine.Row{"e": v.encryptValue(t, "t", "e", val), "p": []byte(val)}
		}
		if err := v.db.InsertBatch(ctx, "t", rows); err != nil {
			t.Fatal(err)
		}
	}
	insert(mainRows)
	if err := v.db.Merge(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	insert(deltaRows)

	const bound = 16 << 20
	allocated := func(run func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var res *engine.Result
	n := allocated(func() {
		var err error
		if res, err = v.db.Select(ctx, engine.Query{Table: "t"}); err != nil {
			t.Fatal(err)
		}
	})
	if res.Count != mainRows+deltaRows || len(res.Columns) != 2 {
		t.Fatalf("Select: %d rows, %d columns; want %d rows, 2 columns", res.Count, len(res.Columns), mainRows+deltaRows)
	}
	if n > bound {
		t.Errorf("Select allocated %d bytes, want at most %d", n, bound)
	}
	var cells map[string][][]byte
	n = allocated(func() {
		st, err := v.db.SelectStream(ctx, engine.Query{Table: "t"})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		_, cells = drainStream(t, st)
	})
	for _, def := range defs {
		if got := len(cells[def.Name]); got != mainRows+deltaRows {
			t.Errorf("SelectStream: column %s has %d cells, want %d", def.Name, got, mainRows+deltaRows)
		}
	}
	if n > bound {
		t.Errorf("SelectStream allocated %d bytes, want at most %d", n, bound)
	}
}

// BenchmarkRenderChunk renders the result-heavy answer shape: 10k random rows
// of a 500k-row table's three columns — ED1 over high-cardinality values, ED5
// (bs_max 10) over a Zipf-skewed 13k-value column, ED1 over random numbers —
// in 1024-row chunks, as a SelectStream cursor does.
func BenchmarkRenderChunk(b *testing.B) {
	const rows, answer, chunk = 500_000, 10_000, 1024
	v := newEnv(b)
	defs := []engine.ColumnDef{
		{Name: "a", Kind: dict.ED1, MaxLen: 12},
		{Name: "b", Kind: dict.ED5, MaxLen: 10, BSMax: 10},
		{Name: "c", Kind: dict.ED1, MaxLen: 8},
	}
	if err := v.db.CreateTable(engine.Schema{Table: "t", Columns: defs}); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	numbers := make([][]byte, rows)
	for i := range numbers {
		numbers[i] = []byte(fmt.Sprintf("%08d", rng.Intn(1_000_000)))
	}
	v.loadColumn(b, "t", defs[0], workload.Generate(workload.C1().Scaled(rows), 1).Values)
	v.loadColumn(b, "t", defs[1], workload.Generate(workload.C2().Scaled(rows), 2).Values)
	v.loadColumn(b, "t", defs[2], numbers)

	var rids []uint32
	for _, r := range rng.Perm(rows)[:answer] {
		rids = append(rids, uint32(r))
	}
	slices.Sort(rids)
	var renders []func([]uint32) [][]byte
	for _, def := range defs {
		render, _, err := v.db.Renderers("t", def.Name)
		if err != nil {
			b.Fatal(err)
		}
		renders = append(renders, render)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for lo := 0; lo < len(rids); lo += chunk {
			for _, render := range renders {
				render(rids[lo:min(lo+chunk, len(rids))])
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*answer*len(defs)), "ns/cell")
}
