package engine_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/search"
)

// TestConcurrentReadersAndWriters exercises the engine under parallel
// selects, inserts and merges, with a seal threshold low enough that
// background seal builds interleave with all of them. Run with -race to
// validate the locking discipline; assertions check only invariants that
// hold under any interleaving.
func TestConcurrentReadersAndWriters(t *testing.T) {
	v := newEnvWith(t, engine.WithSealThreshold(8))
	def := engine.ColumnDef{Name: "c", Kind: dict.ED5, MaxLen: 8, BSMax: 3}
	if err := v.db.CreateTable(engine.Schema{Table: "cc", Columns: []engine.ColumnDef{def}}); err != nil {
		t.Fatal(err)
	}
	var seedRows [][]byte
	for i := 0; i < 50; i++ {
		seedRows = append(seedRows, []byte(fmt.Sprintf("v%03d", i%10)))
	}
	v.loadColumn(t, "cc", def, seedRows)

	const (
		readers = 3
		writers = 2
		rounds  = 25
	)
	var wg sync.WaitGroup
	errs := make(chan error, readers+writers+1)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				q := search.Eq([]byte(fmt.Sprintf("v%03d", i%10)))
				f := v.filter(t, "cc", def, q)
				res, err := v.db.Select(context.Background(), engine.Query{Table: "cc", Filters: []engine.Filter{f}, CountOnly: true})
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if res.Count != 5 { // the seed rows holding the value; writers add none
					errs <- fmt.Errorf("reader %d: %d rows hold %q, want 5", r, res.Count, q.Start)
					return
				}
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				val := fmt.Sprintf("w%d_%03d", w, i)
				if err := v.db.InsertBatch(context.Background(), "cc", []engine.Row{{"c": v.encryptValue(t, "cc", "c", val)}}); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if err := v.db.Merge(context.Background(), "cc"); err != nil {
				errs <- fmt.Errorf("merger: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// All writes must be present afterwards.
	res, err := v.db.Select(context.Background(), engine.Query{Table: "cc", CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	want := len(seedRows) + writers*rounds
	if res.Count != want {
		t.Errorf("final count = %d, want %d", res.Count, want)
	}
}

// TestConcurrentDeleteUpdateMerge interleaves the write operations whose
// match/mutate sequences must be atomic against merges: every update
// preserves the row count, every delete removes exactly the rows it
// reported.
func TestConcurrentDeleteUpdateMerge(t *testing.T) {
	v := newEnv(t)
	def := engine.ColumnDef{Name: "c", Kind: dict.ED1, MaxLen: 12}
	if err := v.db.CreateTable(engine.Schema{Table: "dm", Columns: []engine.ColumnDef{def}}); err != nil {
		t.Fatal(err)
	}
	var seedRows [][]byte
	for i := 0; i < 60; i++ {
		seedRows = append(seedRows, []byte(fmt.Sprintf("keep%03d", i)))
	}
	v.loadColumn(t, "dm", def, seedRows)

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		deleted int
	)
	errs := make(chan error, 8)
	// Updaters rewrite values (count-preserving).
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				f := v.filter(t, "dm", def, search.Eq([]byte(fmt.Sprintf("keep%03d", w*10+i))))
				set := engine.Row{"c": v.encryptValue(t, "dm", "c", fmt.Sprintf("upd%d_%03d", w, i))}
				if _, err := v.db.Update(context.Background(), "dm", []engine.Filter{f}, set); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	// A deleter removes a disjoint value range and tallies removals.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 40; i < 50; i++ {
			f := v.filter(t, "dm", def, search.Eq([]byte(fmt.Sprintf("keep%03d", i))))
			n, err := v.db.Delete(context.Background(), "dm", []engine.Filter{f})
			if err != nil {
				errs <- err
				return
			}
			mu.Lock()
			deleted += n
			mu.Unlock()
		}
	}()
	// A merger runs throughout.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := v.db.Merge(context.Background(), "dm"); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	res, err := v.db.Select(context.Background(), engine.Query{Table: "dm", CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	want := len(seedRows) - deleted
	mu.Unlock()
	if res.Count != want {
		t.Errorf("final count = %d, want %d (updates preserve, deletes removed %d)",
			res.Count, want, deleted)
	}
	if deleted != 10 {
		t.Errorf("deleted = %d, want 10", deleted)
	}
}

// TestConcurrentCrossTableStress drives simultaneous Select, Insert, and
// Merge traffic where every goroutine targets a *different* table: with
// per-table locking none of them contend, and -race validates that the
// registry/table lock split leaves no unsynchronized state. A roaming reader
// additionally selects from every table to cross goroutine/table pairs.
func TestConcurrentCrossTableStress(t *testing.T) {
	v := newEnv(t)
	const tables = 4
	def := engine.ColumnDef{Name: "c", Kind: dict.ED5, MaxLen: 10, BSMax: 3}
	for i := 0; i < tables; i++ {
		name := fmt.Sprintf("x%d", i)
		if err := v.db.CreateTable(engine.Schema{Table: name, Columns: []engine.ColumnDef{def}}); err != nil {
			t.Fatal(err)
		}
		var rows [][]byte
		for j := 0; j < 30; j++ {
			rows = append(rows, []byte(fmt.Sprintf("v%03d", j%6)))
		}
		v.loadColumn(t, name, def, rows)
	}

	const rounds = 15
	var wg sync.WaitGroup
	errs := make(chan error, 3*tables+1)
	for i := 0; i < tables; i++ {
		name := fmt.Sprintf("x%d", i)
		// One selector per table.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				f := v.filter(t, name, def, search.Eq([]byte(fmt.Sprintf("v%03d", j%6))))
				if _, err := v.db.Select(context.Background(), engine.Query{Table: name, Filters: []engine.Filter{f}}); err != nil {
					errs <- fmt.Errorf("select %s: %w", name, err)
					return
				}
			}
		}()
		// One inserter per table.
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				row := engine.Row{"c": v.encryptValue(t, name, "c", fmt.Sprintf("i%d_%02d", i, j))}
				if err := v.db.InsertBatch(context.Background(), name, []engine.Row{row}); err != nil {
					errs <- fmt.Errorf("insert %s: %w", name, err)
					return
				}
			}
		}(i)
		// One merger per table.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				if err := v.db.Merge(context.Background(), name); err != nil {
					errs <- fmt.Errorf("merge %s: %w", name, err)
					return
				}
			}
		}()
	}
	// A roaming reader hits every table.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < rounds*tables; j++ {
			name := fmt.Sprintf("x%d", j%tables)
			if _, err := v.db.Select(context.Background(), engine.Query{Table: name, CountOnly: true}); err != nil {
				errs <- fmt.Errorf("roam %s: %w", name, err)
				return
			}
		}
	}()
	// A stats poller hammers the enclave's boundary counters — now
	// atomics bumped lock-free by every concurrent dictionary probe —
	// while the searches above run; -race validates the counter paths,
	// and interleaved resets must never make a snapshot go backwards
	// between resets or trip anything racy.
	wg.Add(1)
	go func() {
		defer wg.Done()
		encl := v.db.Enclave()
		var prev uint64
		for j := 0; j < rounds*tables; j++ {
			s := encl.Stats()
			if s.Loads < prev {
				errs <- fmt.Errorf("stats went backwards: loads %d after %d", s.Loads, prev)
				return
			}
			prev = s.Loads
			if j%16 == 15 {
				encl.ResetStats()
				prev = 0
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Every table must hold its seed rows plus its inserter's rows.
	for i := 0; i < tables; i++ {
		name := fmt.Sprintf("x%d", i)
		res, err := v.db.Select(context.Background(), engine.Query{Table: name, CountOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		if want := 30 + rounds; res.Count != want {
			t.Errorf("table %s final count = %d, want %d", name, res.Count, want)
		}
	}
}

// TestParallelFilterEquivalence is the property test for the parallel
// conjunction path: on random multi-filter conjunctions, an engine scanning
// the main store's morsels on one worker and one scanning them on eight
// must return identical RecordID lists — morsels own disjoint accumulator
// words, so the claim order must not perturb the result.
func TestParallelFilterEquivalence(t *testing.T) {
	seq := newEnvWith(t, engine.WithWorkers(1))
	par := newEnvWith(t, engine.WithWorkers(8))
	rng := rand.New(rand.NewSource(99))

	defs := []engine.ColumnDef{
		{Name: "a", Kind: dict.ED1, MaxLen: 8},
		{Name: "b", Kind: dict.ED5, MaxLen: 8, BSMax: 3},
		{Name: "c", Kind: dict.ED9, MaxLen: 8},
	}
	const rows = 200
	cols := make(map[string][][]byte, len(defs))
	for _, def := range defs {
		var col [][]byte
		for i := 0; i < rows; i++ {
			col = append(col, []byte(fmt.Sprintf("%s%02d", def.Name, rng.Intn(20))))
		}
		cols[def.Name] = col
	}
	// A few delta rows so both stores participate; drawn once so both
	// engines hold identical data.
	deltaRows := make([]map[string]string, 10)
	for i := range deltaRows {
		deltaRows[i] = make(map[string]string, len(defs))
		for _, def := range defs {
			deltaRows[i][def.Name] = fmt.Sprintf("%s%02d", def.Name, rng.Intn(20))
		}
	}
	for _, v := range []*env{seq, par} {
		if err := v.db.CreateTable(engine.Schema{Table: "pf", Columns: defs}); err != nil {
			t.Fatal(err)
		}
		for _, def := range defs {
			v.loadColumn(t, "pf", def, cols[def.Name])
		}
		for _, dr := range deltaRows {
			row := engine.Row{}
			for name, val := range dr {
				row[name] = v.encryptValue(t, "pf", name, val)
			}
			if err := v.db.InsertBatch(context.Background(), "pf", []engine.Row{row}); err != nil {
				t.Fatal(err)
			}
		}
	}

	randRange := func(def engine.ColumnDef) search.Range {
		lo, hi := rng.Intn(20), rng.Intn(20)
		if lo > hi {
			lo, hi = hi, lo
		}
		return search.Range{
			Start: []byte(fmt.Sprintf("%s%02d", def.Name, lo)), StartIncl: true,
			End: []byte(fmt.Sprintf("%s%02d", def.Name, hi)), EndIncl: true,
		}
	}
	for trial := 0; trial < 40; trial++ {
		nf := 1 + rng.Intn(3)
		ranges := make([]search.Range, 0, nf)
		picked := make([]engine.ColumnDef, 0, nf)
		for i := 0; i < nf; i++ {
			def := defs[rng.Intn(len(defs))]
			picked = append(picked, def)
			ranges = append(ranges, randRange(def))
		}
		var got [2][]uint32
		for vi, v := range []*env{seq, par} {
			filters := make([]engine.Filter, nf)
			for i := range filters {
				filters[i] = v.filter(t, "pf", picked[i], ranges[i])
			}
			res, err := v.db.Select(context.Background(), engine.Query{Table: "pf", Filters: filters})
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			got[vi] = res.RecordIDs
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Fatalf("trial %d: sequential %v != parallel %v", trial, got[0], got[1])
		}
	}
}

// TestParallelFilterErrorConsistency pins the error semantics of the
// parallel conjunction: a filter the sequential path would never evaluate
// (because an earlier filter emptied the conjunction) must not surface an
// error from the parallel path either, and an error the sequential path
// would hit must surface identically. Reordering is disabled so the filter
// positions are fixed.
func TestParallelFilterErrorConsistency(t *testing.T) {
	for _, workers := range []int{1, 8} {
		v := newEnvWith(t, engine.WithWorkers(workers), engine.WithFilterReorder(false))
		def := engine.ColumnDef{Name: "c", Kind: dict.ED1, MaxLen: 8}
		if err := v.db.CreateTable(engine.Schema{Table: "ec", Columns: []engine.ColumnDef{def}}); err != nil {
			t.Fatal(err)
		}
		v.loadColumn(t, "ec", def, bcol("a", "b", "c"))

		matchSome := v.filter(t, "ec", def, search.Eq([]byte("a")))
		matchNone := v.filter(t, "ec", def, search.Eq([]byte("zz")))
		badColumn := engine.Filter{Column: "nosuch", Ranges: matchSome.Ranges}

		// Empty result before the bad filter: both paths return 0 rows, no error.
		res, err := v.db.Select(context.Background(), engine.Query{
			Table:     "ec",
			Filters:   []engine.Filter{matchSome, matchNone, badColumn},
			CountOnly: true,
		})
		if err != nil {
			t.Errorf("workers=%d: error surfaced past an empty conjunction: %v", workers, err)
		} else if res.Count != 0 {
			t.Errorf("workers=%d: count = %d, want 0", workers, res.Count)
		}

		// Bad filter before the conjunction empties: both paths error.
		_, err = v.db.Select(context.Background(), engine.Query{
			Table:     "ec",
			Filters:   []engine.Filter{matchSome, badColumn, matchNone},
			CountOnly: true,
		})
		if err == nil {
			t.Errorf("workers=%d: expected ErrNoSuchColumn, got nil", workers)
		}
	}
}

// TestConcurrentDistinctTables checks independent tables do not contend
// incorrectly.
func TestConcurrentDistinctTables(t *testing.T) {
	v := newEnv(t)
	const tables = 4
	for i := 0; i < tables; i++ {
		name := fmt.Sprintf("t%d", i)
		def := engine.ColumnDef{Name: "c", Kind: dict.ED1, MaxLen: 8}
		if err := v.db.CreateTable(engine.Schema{Table: name, Columns: []engine.ColumnDef{def}}); err != nil {
			t.Fatal(err)
		}
		v.loadColumn(t, name, def, [][]byte{[]byte("x"), []byte("y")})
	}
	var wg sync.WaitGroup
	errs := make(chan error, tables)
	for i := 0; i < tables; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("t%d", i)
			def := engine.ColumnDef{Name: "c", Kind: dict.ED1, MaxLen: 8}
			for j := 0; j < 20; j++ {
				f := v.filter(t, name, def, search.Eq([]byte("x")))
				res, err := v.db.Select(context.Background(), engine.Query{Table: name, Filters: []engine.Filter{f}, CountOnly: true})
				if err != nil {
					errs <- err
					return
				}
				if res.Count != 1 {
					errs <- fmt.Errorf("table %s count = %d", name, res.Count)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
