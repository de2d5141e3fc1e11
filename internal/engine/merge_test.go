package engine_test

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/search"
)

// mergeEnv builds a one-column table with main-store rows, delta rows, and a
// deletion, so a merge has every kind of work to do.
func mergeEnv(t *testing.T, opts ...engine.Option) (*env, engine.ColumnDef, []string) {
	t.Helper()
	return mergeEnvKind(t, dict.ED5, opts...)
}

func mergeEnvKind(t *testing.T, kind dict.Kind, opts ...engine.Option) (*env, engine.ColumnDef, []string) {
	t.Helper()
	v := newEnvWith(t, opts...)
	def := engine.ColumnDef{Name: "c", Kind: kind, MaxLen: 8}
	if kind.Repetition() == dict.RepSmoothing {
		def.BSMax = 4
	}
	if err := v.db.CreateTable(engine.Schema{Table: "t", Columns: []engine.ColumnDef{def}}); err != nil {
		t.Fatal(err)
	}
	var model []string
	var col [][]byte
	for i := 0; i < 40; i++ {
		s := fmt.Sprintf("m%03d", i%10)
		model = append(model, s)
		col = append(col, []byte(s))
	}
	v.loadColumn(t, "t", def, col)
	for i := 0; i < 25; i++ {
		s := fmt.Sprintf("d%03d", i%7)
		if err := v.db.InsertBatch(context.Background(), "t", []engine.Row{{"c": v.encryptValue(t, "t", "c", s)}}); err != nil {
			t.Fatal(err)
		}
		model = append(model, s)
	}
	// Delete one main-store value and one delta value.
	for _, victim := range []string{"m003", "d002"} {
		if _, err := v.db.Delete(context.Background(), "t", []engine.Filter{v.filter(t, "t", def, search.Eq([]byte(victim)))}); err != nil {
			t.Fatal(err)
		}
		var kept []string
		for _, m := range model {
			if m != victim {
				kept = append(kept, m)
			}
		}
		model = kept
	}
	sort.Strings(model)
	return v, def, model
}

// allRows returns the sorted decrypted projection of every valid row.
func allRows(t *testing.T, v *env, def engine.ColumnDef) []string {
	t.Helper()
	res, err := v.db.Select(context.Background(), engine.Query{Table: "t", Project: []string{"c"}})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	got := v.decryptCells(t, res.Columns[0], def.Plain)
	sort.Strings(got)
	return got
}

// TestSelectDuringBackgroundMerge is the non-blocking regression test: a
// Select issued while a merge is mid-rebuild must start AND finish without
// waiting for the rebuild. The merge is parked between seal and swap on a
// hook channel, so if the Select shared a lock with the rebuild the test
// would time out.
func TestSelectDuringBackgroundMerge(t *testing.T) {
	v, def, model := mergeEnv(t)
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	v.db.SetMergeHooks(nil, func(string) {
		once.Do(func() { close(entered) })
		<-release
	})

	mergeDone := make(chan error, 1)
	go func() { mergeDone <- v.db.Merge(context.Background(), "t") }()
	<-entered // rebuild finished, swap parked — the merge is in flight

	type selRes struct {
		rows []string
		err  error
	}
	selDone := make(chan selRes, 1)
	go func() {
		res, err := v.db.Select(context.Background(), engine.Query{Table: "t", Project: []string{"c"}})
		if err != nil {
			selDone <- selRes{err: err}
			return
		}
		rows := v.decryptCells(t, res.Columns[0], def.Plain)
		sort.Strings(rows)
		selDone <- selRes{rows: rows}
	}()
	select {
	case sr := <-selDone:
		if sr.err != nil {
			t.Fatalf("Select during merge: %v", sr.err)
		}
		if fmt.Sprint(sr.rows) != fmt.Sprint(model) {
			t.Errorf("rows during merge = %v, want %v", sr.rows, model)
		}
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("Select blocked behind the in-flight merge")
	}

	// Writers must get through as well while the swap is parked.
	if err := v.db.InsertBatch(context.Background(), "t", []engine.Row{{"c": v.encryptValue(t, "t", "c", "w000")}}); err != nil {
		t.Fatalf("Insert during merge: %v", err)
	}
	model = append(model, "w000")
	sort.Strings(model)

	close(release)
	if err := <-mergeDone; err != nil {
		t.Fatalf("Merge: %v", err)
	}
	// The insert that landed during the rebuild survived the swap.
	if got := allRows(t, v, def); fmt.Sprint(got) != fmt.Sprint(model) {
		t.Errorf("rows after merge = %v, want %v", got, model)
	}
}

// TestWritesDuringRebuildAreReplayed pins down the swap's delta replay:
// inserts, a delete of a merged row, and a delete of a fresh row all land
// while the rebuild is parked, and all must be reflected after the swap.
func TestWritesDuringRebuildAreReplayed(t *testing.T) {
	v, def, model := mergeEnv(t)
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	v.db.SetMergeHooks(func(string) {
		once.Do(func() { close(entered) })
		<-release
	}, nil)

	mergeDone := make(chan error, 1)
	go func() { mergeDone <- v.db.Merge(context.Background(), "t") }()
	<-entered // sealed, rebuild not yet run

	apply := func(victim string) {
		if _, err := v.db.Delete(context.Background(), "t", []engine.Filter{v.filter(t, "t", def, search.Eq([]byte(victim)))}); err != nil {
			t.Fatal(err)
		}
		var kept []string
		for _, m := range model {
			if m != victim {
				kept = append(kept, m)
			}
		}
		model = kept
	}
	for _, s := range []string{"x001", "x002", "x003"} {
		if err := v.db.InsertBatch(context.Background(), "t", []engine.Row{{"c": v.encryptValue(t, "t", "c", s)}}); err != nil {
			t.Fatal(err)
		}
		model = append(model, s)
	}
	apply("m005") // rows being rebuilt right now
	apply("x002") // a row appended after the seal
	if n, err := v.db.Update(context.Background(), "t", []engine.Filter{v.filter(t, "t", def, search.Eq([]byte("d004")))},
		engine.Row{"c": v.encryptValue(t, "t", "c", "u004")}); err != nil {
		t.Fatal(err)
	} else if n == 0 {
		t.Fatal("update matched nothing")
	}
	var kept []string
	for _, m := range model {
		if m == "d004" {
			m = "u004"
		}
		kept = append(kept, m)
	}
	model = kept
	sort.Strings(model)

	close(release)
	if err := <-mergeDone; err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if got := allRows(t, v, def); fmt.Sprint(got) != fmt.Sprint(model) {
		t.Errorf("rows after merge = %v, want %v", got, model)
	}
	// A second, quiet merge compacts the replayed state too.
	if err := v.db.Merge(context.Background(), "t"); err != nil {
		t.Fatalf("second Merge: %v", err)
	}
	if got := allRows(t, v, def); fmt.Sprint(got) != fmt.Sprint(model) {
		t.Errorf("rows after second merge = %v, want %v", got, model)
	}
}

// TestConcurrentMergeBitIdentical is the stress half of the acceptance
// criteria: with the dataset frozen, a merge is semantically a no-op, so
// every Select running concurrently with a background merge storm must
// return exactly the rows sequential execution returns. Run with -race.
func TestConcurrentMergeBitIdentical(t *testing.T) {
	for _, kind := range []dict.Kind{dict.ED1, dict.ED5, dict.ED9} {
		t.Run(kind.String(), func(t *testing.T) {
			v, def, model := mergeEnvKind(t, kind)
			queries := []search.Range{
				search.Eq([]byte("m004")),
				search.Closed([]byte("d000"), []byte("d999")),
				search.Closed([]byte("a"), []byte("z")),
			}
			var want [][]string
			for _, q := range queries {
				res, err := v.db.Select(context.Background(), engine.Query{
					Table:   "t",
					Filters: []engine.Filter{v.filter(t, "t", def, q)},
					Project: []string{"c"},
				})
				if err != nil {
					t.Fatal(err)
				}
				rows := v.decryptCells(t, res.Columns[0], def.Plain)
				sort.Strings(rows)
				want = append(want, rows)
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			errs := make(chan error, 8)
			wg.Add(1)
			go func() { // merge storm
				defer wg.Done()
				for i := 0; i < 6; i++ {
					if err := v.db.Merge(context.Background(), "t"); err != nil {
						errs <- err
						return
					}
				}
				close(stop)
			}()
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						qi := (r + i) % len(queries)
						res, err := v.db.Select(context.Background(), engine.Query{
							Table:   "t",
							Filters: []engine.Filter{v.filter(t, "t", def, queries[qi])},
							Project: []string{"c"},
						})
						if err != nil {
							errs <- err
							return
						}
						rows := v.decryptCells(t, res.Columns[0], def.Plain)
						sort.Strings(rows)
						if fmt.Sprint(rows) != fmt.Sprint(want[qi]) {
							errs <- fmt.Errorf("reader %d query %d: got %v, want %v", r, qi, rows, want[qi])
							return
						}
					}
				}(r)
			}
			wg.Wait()
			select {
			case err := <-errs:
				t.Fatal(err)
			default:
			}
			if got := allRows(t, v, def); fmt.Sprint(got) != fmt.Sprint(model) {
				t.Errorf("rows after storm = %v, want %v", got, model)
			}
		})
	}
}

// TestSealedRunsAnswerQueries covers the packed sealed-run path: with a tiny
// seal threshold, inserts accumulate into multiple sealed runs plus a tail,
// and queries must see main, sealed, and tail rows alike.
func TestSealedRunsAnswerQueries(t *testing.T) {
	v := newEnvWith(t, engine.WithSealThreshold(4))
	def := engine.ColumnDef{Name: "c", Kind: dict.ED1, MaxLen: 8}
	if err := v.db.CreateTable(engine.Schema{Table: "t", Columns: []engine.ColumnDef{def}}); err != nil {
		t.Fatal(err)
	}
	v.loadColumn(t, "t", def, bcol("a01", "a02"))
	model := []string{"a01", "a02"}
	for i := 0; i < 11; i++ {
		s := fmt.Sprintf("b%02d", i)
		if err := v.db.InsertBatch(context.Background(), "t", []engine.Row{{"c": v.encryptValue(t, "t", "c", s)}}); err != nil {
			t.Fatal(err)
		}
		model = append(model, s)
	}
	runs, err := v.db.SealedRuns("t")
	if err != nil {
		t.Fatal(err)
	}
	if runs != 2 { // 11 delta rows at threshold 4: two sealed runs + 3-row tail
		t.Errorf("sealed runs = %d, want 2", runs)
	}
	if got := allRows(t, v, def); fmt.Sprint(got) != fmt.Sprint(model) {
		t.Errorf("rows = %v, want %v", got, model)
	}
	// Range hitting main + both sealed runs + tail; then delete from a
	// sealed run and re-check.
	res, err := v.db.Select(context.Background(), engine.Query{
		Table:     "t",
		Filters:   []engine.Filter{v.filter(t, "t", def, search.Closed([]byte("a02"), []byte("b09")))},
		CountOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 11 {
		t.Errorf("range count = %d, want 11", res.Count)
	}
	if _, err := v.db.Delete(context.Background(), "t", []engine.Filter{v.filter(t, "t", def, search.Eq([]byte("b01")))}); err != nil {
		t.Fatal(err)
	}
	if err := v.db.Merge(context.Background(), "t"); err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, m := range model {
		if m != "b01" {
			kept = append(kept, m)
		}
	}
	if got := allRows(t, v, def); fmt.Sprint(got) != fmt.Sprint(kept) {
		t.Errorf("rows after merge = %v, want %v", got, kept)
	}
	if runs, _ = v.db.SealedRuns("t"); runs != 0 {
		t.Errorf("sealed runs after merge = %d, want 0", runs)
	}
}

// TestMergeAsyncReportsInFlight checks the started flag: while one merge is
// parked, a second MergeAsync must decline rather than queue or block.
func TestMergeAsyncReportsInFlight(t *testing.T) {
	v, _, _ := mergeEnv(t)
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	v.db.SetMergeHooks(nil, func(string) {
		once.Do(func() { close(entered) })
		<-release
	})
	started, err := v.db.MergeAsync(context.Background(), "t")
	if err != nil || !started {
		t.Fatalf("first MergeAsync = %v, %v", started, err)
	}
	<-entered
	if info, err := v.db.MergeStatus(context.Background(), "t"); err != nil || !info.Merging {
		t.Errorf("status mid-merge = %+v, %v; want Merging", info, err)
	}
	started, err = v.db.MergeAsync(context.Background(), "t")
	if err != nil {
		t.Fatalf("second MergeAsync: %v", err)
	}
	if started {
		t.Error("second MergeAsync claimed to start while one was in flight")
	}
	close(release)
	if err := v.db.Close(); err != nil {
		t.Fatal(err)
	}
	if info, err := v.db.MergeStatus(context.Background(), "t"); err != nil || info.Merges != 1 || info.Merging {
		t.Errorf("final status = %+v, %v; want exactly one completed merge", info, err)
	}
	if _, err := v.db.MergeAsync(context.Background(), "t"); err != engine.ErrClosed {
		t.Errorf("MergeAsync after Close = %v, want ErrClosed", err)
	}
}

// TestUpdateDoesNotAliasSetBuffers: mutating the caller's set buffer after
// Update returns must not corrupt stored rows.
func TestUpdateDoesNotAliasSetBuffers(t *testing.T) {
	v := newEnv(t)
	def := engine.ColumnDef{Name: "c", Kind: dict.ED1, MaxLen: 8, Plain: true}
	if err := v.db.CreateTable(engine.Schema{Table: "t", Columns: []engine.ColumnDef{def}}); err != nil {
		t.Fatal(err)
	}
	v.loadColumn(t, "t", def, bcol("old"))
	buf := []byte("new")
	if _, err := v.db.Update(context.Background(), "t",
		[]engine.Filter{v.filter(t, "t", def, search.Eq([]byte("old")))},
		engine.Row{"c": buf}); err != nil {
		t.Fatal(err)
	}
	copy(buf, "XXX") // caller reuses its buffer
	if got := allRows(t, v, def); fmt.Sprint(got) != "[new]" {
		t.Errorf("rows = %v, want [new] (Update aliased the caller's buffer)", got)
	}
}
