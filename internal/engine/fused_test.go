package engine_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/engine"
)

// BenchmarkFusedConjunction times a 4-filter conjunctive SELECT over 1M
// rows of four independent random plain ED1 columns, ~10% selectivity per
// filter, on the default worker pool (workers=0, GOMAXPROCS) and on one
// worker: what the morsel-driven scan gains from parallelism.
func BenchmarkFusedConjunction(b *testing.B) {
	const (
		rows     = 1 << 20
		dictLen  = 1 << 12
		nfilters = 4
	)
	value := func(v int) []byte { return []byte(fmt.Sprintf("v%06d", v)) }
	rng := rand.New(rand.NewSource(1))
	defs := make([]engine.ColumnDef, nfilters)
	splits := make([]*dict.Split, nfilters)
	filters := make([]engine.Filter, nfilters)
	for c := range defs {
		defs[c] = engine.ColumnDef{Name: fmt.Sprintf("c%d", c), Kind: dict.ED1, MaxLen: 8, Plain: true}
		col := make([][]byte, rows)
		for i := range col {
			col[i] = value(rng.Intn(dictLen))
		}
		s, err := dict.Build(col, dict.Params{Kind: dict.ED1, MaxLen: 8, Plain: true, Rand: rand.New(rand.NewSource(int64(c)))})
		if err != nil {
			b.Fatal(err)
		}
		splits[c] = s
		// Staggered so each filter prunes.
		lo := (c + 1) * dictLen / 8
		filters[c] = engine.SingleRange(defs[c].Name, enclave.EncRange{
			Start: value(lo), End: value(lo + dictLen/10), StartIncl: true,
		})
	}
	// The splits are built once and imported into both databases: they are
	// plain (key-independent) and the workload is read-only.
	for _, workers := range []int{0, 1} {
		b.Run(fmt.Sprintf("filters=%d/workers=%d", nfilters, workers), func(b *testing.B) {
			db := engine.New(nil, engine.WithWorkers(workers))
			if err := db.CreateTable(engine.Schema{Table: "scan", Columns: defs}); err != nil {
				b.Fatal(err)
			}
			for c, def := range defs {
				if err := db.ImportColumn("scan", def.Name, splits[c]); err != nil {
					b.Fatal(err)
				}
			}
			q := engine.Query{Table: "scan", Filters: filters}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Select(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(rows, "rows")
		})
	}
}
