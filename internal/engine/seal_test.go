package engine_test

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/leakage"
	"github.com/encdbdb/encdbdb/internal/metrics"
	"github.com/encdbdb/encdbdb/internal/wal"
)

// insertValues inserts one row per value into the one-column table, as a
// single batch.
func insertValues(t *testing.T, v *env, table, column string, values []string) {
	t.Helper()
	rows := make([]engine.Row, len(values))
	for i, val := range values {
		rows[i] = engine.Row{column: v.encryptValue(t, table, column, val)}
	}
	if err := v.db.InsertBatch(context.Background(), table, rows); err != nil {
		t.Fatal(err)
	}
}

// TestCloseDrainsSealBuild: Close waits for a seal build in flight, which
// still installs its run, admits no build after it, and leaves no goroutine
// behind.
func TestCloseDrainsSealBuild(t *testing.T) {
	before := runtime.NumGoroutine()
	v := newEnvWith(t, engine.WithSealThreshold(64))
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	v.db.SetSealHook(func(string) {
		once.Do(func() { close(entered) })
		<-release
	})
	def := engine.ColumnDef{Name: "c", Kind: dict.ED1, MaxLen: 8}
	if err := v.db.CreateTable(engine.Schema{Table: "t", Columns: []engine.ColumnDef{def}}); err != nil {
		t.Fatal(err)
	}
	values := make([]string, 64)
	for i := range values {
		values[i] = fmt.Sprintf("v%03d", i)
	}
	insertValues(t, v, "t", "c", values)
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no seal build started for a due tail")
	}
	closed := make(chan struct{})
	go func() {
		v.db.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a seal build was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return once the seal build finished")
	}
	insertValues(t, v, "t", "c", values)
	info, err := v.db.MergeStatus(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	if info.SealedRuns != 1 || info.DeltaRows != 128 {
		t.Errorf("after Close: %d sealed runs, %d delta rows; want the drained build's 1 run and 128 rows", info.SealedRuns, info.DeltaRows)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the database existed", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSealedRunLeaksWhatMergeLeaks compares what the provider stores for a
// sealed run with what it stores for the same rows once a merge has folded
// them into the main store. A sorted run orders its rows' ValueIDs exactly
// as the merged store does: for ED1, row i's ValueID is below, equal to or
// above row j's in the run iff it is in the merged store; for ED7 the same
// holds for every pair of distinct values. The provider learns this order
// one seal earlier instead of one merge later, and nothing beyond it. A
// frequency-hiding run (ED7–ED9) gives every row its own ValueID, as the
// ED9 tail it was built from does, and an ED9 run's layout carries no
// order.
func TestSealedRunLeaksWhatMergeLeaks(t *testing.T) {
	for _, kind := range []dict.Kind{dict.ED1, dict.ED7, dict.ED8, dict.ED9} {
		t.Run(kind.String(), func(t *testing.T) {
			const rows = 512
			v := newEnvWith(t, engine.WithSealThreshold(rows))
			def := engine.ColumnDef{Name: "c", Kind: kind, MaxLen: 8}
			if err := v.db.CreateTable(engine.Schema{Table: "lk", Columns: []engine.ColumnDef{def}}); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(kind)))
			values := make([]string, rows)
			for i := range values {
				values[i] = fmt.Sprintf("v%03d", rng.Intn(97))
			}
			insertValues(t, v, "lk", "c", values)
			if runs, _ := v.db.SealedRuns("lk"); runs != 1 {
				t.Fatalf("sealed runs = %d, want 1", runs)
			}
			_, sealed, _ := v.db.Splits("lk", "c")
			run := sealed[0]
			if err := v.db.Merge(context.Background(), "lk"); err != nil {
				t.Fatal(err)
			}
			merged, _, _ := v.db.Splits("lk", "c")
			if run.Kind != kind || run.Rows() != rows || merged.Rows() != rows {
				t.Fatalf("run %v with %d rows, merged store %d rows; want %v and %d", run.Kind, run.Rows(), merged.Rows(), kind, rows)
			}
			runAV, mergedAV := run.AVCodes(), merged.AVCodes()
			if kind.Order() == dict.OrderSorted {
				for i := 0; i < rows; i++ {
					for j := i + 1; j < rows; j++ {
						if kind == dict.ED7 && values[i] == values[j] {
							continue
						}
						if r, m := cmp.Compare(runAV[i], runAV[j]), cmp.Compare(mergedAV[i], mergedAV[j]); r != m {
							t.Fatalf("rows %d, %d: run orders them %d, merged store %d", i, j, r, m)
						}
					}
				}
			}
			if kind.Repetition() != dict.RepHiding {
				return
			}
			rep, err := leakage.Analyze(run, v.cipher(t, "lk", "c").Decrypt)
			if err != nil {
				t.Fatal(err)
			}
			if rep.MaxVidFrequency != 1 || rep.DictLen != rows {
				t.Errorf("run: %d entries, a ValueID on up to %d rows; want one entry per row", rep.DictLen, rep.MaxVidFrequency)
			}
			if kind == dict.ED9 && (rep.AdjacentOrderScore < 0.35 || rep.AdjacentOrderScore > 0.65) {
				t.Errorf("ED9 run's adjacent entries are in order %.2f of the time, want about 0.5", rep.AdjacentOrderScore)
			}
		})
	}
}

// TestSealMetrics: every seal build counts in seal_builds_total and
// seal_seconds, and merge_backlog_bytes counts a sealed run at its stored
// split size.
func TestSealMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	v := newEnvWith(t, engine.WithSealThreshold(64), engine.WithMetrics(reg))
	def := engine.ColumnDef{Name: "c", Kind: dict.ED1, MaxLen: 8}
	if err := v.db.CreateTable(engine.Schema{Table: "t", Columns: []engine.ColumnDef{def}}); err != nil {
		t.Fatal(err)
	}
	values := make([]string, 128)
	for i := range values {
		values[i] = fmt.Sprintf("v%03d", i%10)
	}
	insertValues(t, v, "t", "c", values)
	if runs, _ := v.db.SealedRuns("t"); runs != 2 {
		t.Fatalf("sealed runs = %d, want 2", runs)
	}
	_, sealed, _ := v.db.Splits("t", "c")
	backlog := sealed[0].SizeBytes() + sealed[1].SizeBytes()
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"encdbdb_engine_seal_builds_total 2\n",
		"encdbdb_engine_seal_seconds_count 2\n",
		fmt.Sprintf("encdbdb_engine_merge_backlog_bytes %d\n", backlog),
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// waitSealedRuns polls the table's merge status until it reports at least
// want sealed runs, without settling builds itself as SealedRuns does.
func waitSealedRuns(t *testing.T, db *engine.DB, table string, want int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		info, err := db.MergeStatus(context.Background(), table)
		if err != nil {
			t.Fatal(err)
		}
		if info.SealedRuns >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d sealed runs and %d delta rows after 10s, want %d runs", info.SealedRuns, info.DeltaRows, want)
		}
	}
}

// TestSealReadmitsDueTail: rows that make the tail due while a build is
// finishing — after its last length check, before it stops counting as
// pending — lose the admission race to that build, which then admits the
// next build itself: the second run seals with no further write.
func TestSealReadmitsDueTail(t *testing.T) {
	v := newEnvWith(t, engine.WithSealThreshold(64))
	defer v.db.Close()
	idle, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	v.db.SetSealIdleHook(func(string) {
		once.Do(func() {
			close(idle)
			<-release
		})
	})
	def := engine.ColumnDef{Name: "c", Kind: dict.ED1, MaxLen: 8}
	if err := v.db.CreateTable(engine.Schema{Table: "t", Columns: []engine.ColumnDef{def}}); err != nil {
		t.Fatal(err)
	}
	values := make([]string, 64)
	for i := range values {
		values[i] = fmt.Sprintf("v%03d", i)
	}
	insertValues(t, v, "t", "c", values)
	select {
	case <-idle:
	case <-time.After(10 * time.Second):
		t.Fatal("the first build never found the tail short")
	}
	insertValues(t, v, "t", "c", values)
	close(release)
	waitSealedRuns(t, v.db, "t", 2)
}

// TestProvisionSealsRecoveredTail: rows that write-ahead-log replay brings
// back into a provider whose enclave holds no key yet stay in the tail, as
// sealing an encrypted column needs its key; Provision then seals them with
// no further write.
func TestProvisionSealsRecoveredTail(t *testing.T) {
	const threshold, rows = 64, 3*64 + 10
	v := newEnvWith(t, engine.WithSealThreshold(threshold))
	dir := t.TempDir()
	l, err := wal.Open(dir, v.db)
	if err != nil {
		t.Fatal(err)
	}
	v.db.SetCommitLog(l)
	def := engine.ColumnDef{Name: "c", Kind: dict.ED1, MaxLen: 8}
	if err := v.db.CreateTable(engine.Schema{Table: "t", Columns: []engine.ColumnDef{def}}); err != nil {
		t.Fatal(err)
	}
	values := make([]string, rows)
	for i := range values {
		values[i] = fmt.Sprintf("v%03d", i)
	}
	insertValues(t, v, "t", "c", values)
	v.db.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	p, err := enclave.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	e, err := p.Launch(enclave.Config{Identity: "engine-test"})
	if err != nil {
		t.Fatal(err)
	}
	db := engine.New(e, engine.WithSealThreshold(threshold))
	defer db.Close()
	l, err = wal.Open(dir, db)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	info, err := db.MergeStatus(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	if info.SealedRuns != 0 || info.DeltaRows != rows {
		t.Fatalf("recovered into an unprovisioned enclave: %d sealed runs, %d delta rows; want 0 and %d", info.SealedRuns, info.DeltaRows, rows)
	}
	sealed, err := enclave.SealKey(e.Quote([]byte("n")), v.master)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Provision(sealed); err != nil {
		t.Fatal(err)
	}
	waitSealedRuns(t, db, "t", rows/threshold)
}
