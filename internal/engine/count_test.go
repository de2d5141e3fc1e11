package engine_test

import (
	"context"
	"fmt"
	"io"
	"slices"
	"testing"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/search"
	"github.com/encdbdb/encdbdb/internal/wal"
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

// sealedDeltaTable creates table "sd" with an ED1 column "s" and an ED9
// column "u" and inserts rows rows into its delta, the same value into both
// columns of a row: value(i) for row i. It settles the seal builds and
// returns the column definitions.
func sealedDeltaTable(tb testing.TB, v *env, rows int) (s, u engine.ColumnDef) {
	tb.Helper()
	s = engine.ColumnDef{Name: "s", Kind: dict.ED1, MaxLen: 8}
	u = engine.ColumnDef{Name: "u", Kind: dict.ED9, MaxLen: 8}
	if err := v.db.CreateTable(engine.Schema{Table: "sd", Columns: []engine.ColumnDef{s, u}}); err != nil {
		tb.Fatal(err)
	}
	sc, uc := v.cipher(tb, "sd", "s"), v.cipher(tb, "sd", "u")
	for lo := 0; lo < rows; lo += 512 {
		batch := make([]engine.Row, 0, 512)
		for i := lo; i < min(rows, lo+512); i++ {
			es, err1 := sc.Encrypt([]byte(sealedValue(i)))
			eu, err2 := uc.Encrypt([]byte(sealedValue(i)))
			if err1 != nil || err2 != nil {
				tb.Fatal(err1, err2)
			}
			batch = append(batch, engine.Row{"s": es, "u": eu})
		}
		if err := v.db.InsertBatch(context.Background(), "sd", batch); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := v.db.SealedRuns("sd"); err != nil {
		tb.Fatal(err)
	}
	return s, u
}

// sealedValue is row i's value in sealedDeltaTable: 1,000 distinct values.
func sealedValue(i int) string { return fmt.Sprintf("v%04d", i%1000) }

// sealedRange is the range select of the work-count test and benchmark:
// values v0100..v0199, a tenth of the rows.
var sealedRange = search.Closed([]byte("v0100"), []byte("v0199"))

// TestSealedRunsSearchAsTheirKind: with its 20,480-row delta in five sealed
// runs, an ED1 column answers a range select with at least 4× fewer enclave
// decryptions than the same rows in an ED9 column — what every sealed run
// cost while runs were searched as ED9 — and both answer exactly the rows
// whose value is in range.
func TestSealedRunsSearchAsTheirKind(t *testing.T) {
	v := newEnv(t)
	const rows = 5 * 4096
	s, u := sealedDeltaTable(t, v, rows)
	if runs, _ := v.db.SealedRuns("sd"); runs != 5 {
		t.Fatalf("sealed runs = %d, want 5", runs)
	}
	var want []uint32
	for i := 0; i < rows; i++ {
		if sealedRange.Contains([]byte(sealedValue(i))) {
			want = append(want, uint32(i))
		}
	}
	selectCounting := func(def engine.ColumnDef) ([]uint32, uint64) {
		v.db.Enclave().ResetStats()
		res, err := v.db.Select(context.Background(), engine.Query{
			Table: "sd", Filters: []engine.Filter{v.filter(t, "sd", def, sealedRange)}, Project: []string{def.Name},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, cell := range v.decryptCells(t, res.Columns[0], false) {
			if cell != sealedValue(int(res.RecordIDs[i])) {
				t.Fatalf("%s row %d renders %q, want %q", def.Name, res.RecordIDs[i], cell, sealedValue(int(res.RecordIDs[i])))
			}
		}
		return res.RecordIDs, v.db.Enclave().Stats().Decryptions
	}
	gotS, decS := selectCounting(s)
	gotU, decU := selectCounting(u)
	if !slices.Equal(gotS, want) || !slices.Equal(gotU, want) {
		t.Fatalf("ED1 matched %d rows, ED9 %d, want %d", len(gotS), len(gotU), len(want))
	}
	t.Logf("decryptions per range select: ED1 %d, ED9 %d", decS, decU)
	if decS*4 > decU {
		t.Errorf("ED1 sealed runs cost %d decryptions, ED9 %d: want at least 4x fewer", decS, decU)
	}
}

// BenchmarkSealedDeltaRangeSelect times TestSealedRunsSearchAsTheirKind's
// ED1 range select over a 20,480-row delta in sealed runs and reports the
// enclave decryptions it costs.
func BenchmarkSealedDeltaRangeSelect(b *testing.B) {
	v := newEnv(b)
	s, _ := sealedDeltaTable(b, v, 5*4096)
	q := engine.Query{Table: "sd", Filters: []engine.Filter{v.filter(b, "sd", s, sealedRange)}, CountOnly: true}
	v.db.Enclave().ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.db.Select(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(v.db.Enclave().Stats().Decryptions)/float64(b.N), "decrypts/op")
}

// TestRecoveredDeltaSearchesAsSplits: a table whose delta sealed into runs,
// recovered by a database whose enclave holds the keys, comes back with the
// same sealed runs — from its write-ahead log, where replay seals as the
// writes did, and then from the checkpoint image that recovery cut, where
// Restore does — and its range select costs the runs' binary searches, not
// one decryption per delta row.
func TestRecoveredDeltaSearchesAsSplits(t *testing.T) {
	v := newEnvWith(t, engine.WithSealThreshold(512))
	dir := t.TempDir()
	l, err := wal.Open(dir, v.db)
	if err != nil {
		t.Fatal(err)
	}
	v.db.SetCommitLog(l)
	const rows = 4 * 512
	s, _ := sealedDeltaTable(t, v, rows)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{"replay", "restore"} {
		db := engine.New(v.db.Enclave(), engine.WithSealThreshold(512))
		l, err := wal.Open(dir, db)
		if err != nil {
			t.Fatal(err)
		}
		if st := l.Stats(); (path == "replay") != (st.ReplayedRecords > 0) || (path == "restore") != (st.RestoredTables > 0) {
			t.Fatalf("%s: recovery stats %+v", path, st)
		}
		if runs, _ := db.SealedRuns("sd"); runs != 4 {
			t.Fatalf("%s: recovered sealed runs = %d, want 4", path, runs)
		}
		db.Enclave().ResetStats()
		res, err := db.Select(context.Background(), engine.Query{
			Table: "sd", Filters: []engine.Filter{v.filter(t, "sd", s, sealedRange)}, CountOnly: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != 200 { // rows 100..199 and 1100..1199
			t.Errorf("%s: recovered count = %d, want 200", path, res.Count)
		}
		if dec := db.Enclave().Stats().Decryptions; dec*4 > rows {
			t.Errorf("%s: range select cost %d decryptions for %d delta rows: the runs were not searched as ED1", path, dec, rows)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
