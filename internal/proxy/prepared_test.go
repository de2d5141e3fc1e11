package proxy_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/proxy"
	"github.com/encdbdb/encdbdb/internal/sqlparse"
)

// TestExecuteWithPlaceholders pins parameter binding end-to-end: bound
// arguments behave exactly like inline literals across statement kinds.
func TestExecuteWithPlaceholders(t *testing.T) {
	ctx := context.Background()
	p := seed(t, "ED5(16) BSMAX 3", "ED1(16)")

	res, err := p.Execute(ctx, "SELECT fname FROM t1 WHERE fname >= ? AND fname < ?", "A", "F")
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedRows(res); !reflect.DeepEqual(got, []string{"Archie", "Ella"}) {
		t.Fatalf("rows = %v", got)
	}

	if _, err := p.Execute(ctx, "INSERT INTO t1 VALUES (?, ?)", "Nora", "Oslo"); err != nil {
		t.Fatal(err)
	}
	res, err = p.Execute(ctx, "SELECT COUNT(*) FROM t1 WHERE city = ?", "Oslo")
	if err != nil || res.Count != 1 {
		t.Fatalf("count = %v, %v", res, err)
	}

	if res, err = p.Execute(ctx, "UPDATE t1 SET city = ? WHERE fname = ?", "Bonn", "Nora"); err != nil || res.Affected != 1 {
		t.Fatalf("update = %v, %v", res, err)
	}
	if res, err = p.Execute(ctx, "DELETE FROM t1 WHERE city IN (?)", "Bonn"); err != nil || res.Affected != 1 {
		t.Fatalf("delete = %v, %v", res, err)
	}
}

// TestExecuteArgCountMismatch: binding errors carry the expected counts.
func TestExecuteArgCountMismatch(t *testing.T) {
	p := seed(t, "ED1(16)", "ED1(16)")
	_, err := p.Execute(context.Background(), "SELECT fname FROM t1 WHERE fname = ?")
	if err == nil || !strings.Contains(err.Error(), "placeholders") {
		t.Fatalf("err = %v, want placeholder-count error", err)
	}
	_, err = p.Execute(context.Background(), "SELECT fname FROM t1 WHERE fname = ?", "a", "b")
	if err == nil {
		t.Fatal("extra argument accepted")
	}
	_, err = p.Execute(context.Background(), "SELECT fname FROM t1 WHERE fname = ?", 3.14)
	if err == nil || !strings.Contains(err.Error(), "unsupported argument") {
		t.Fatalf("float argument: err = %v", err)
	}
}

// TestExecuteIntArgs: integer arguments render as decimal strings.
func TestExecuteIntArgs(t *testing.T) {
	ctx := context.Background()
	p := newStack(t)
	mustExec(t, p, "CREATE TABLE n (v ED1(8))")
	if _, err := p.Execute(ctx, "INSERT INTO n VALUES (?)", 42); err != nil {
		t.Fatal(err)
	}
	res, err := p.Execute(ctx, "SELECT COUNT(*) FROM n WHERE v = ?", int64(42))
	if err != nil || res.Count != 1 {
		t.Fatalf("count = %v, %v", res, err)
	}
}

// countingExecutor wraps an Executor counting Schema resolutions.
type countingExecutor struct {
	proxy.Executor
	schemaCalls atomic.Int64
}

func (c *countingExecutor) Schema(table string) (engine.Schema, error) {
	c.schemaCalls.Add(1)
	return c.Executor.Schema(table)
}

// newCountingStack builds a proxy whose executor counts schema lookups.
func newCountingStack(t testing.TB) (*proxy.Proxy, *countingExecutor) {
	t.Helper()
	db, master := newEngine(t)
	ce := &countingExecutor{Executor: db}
	p, err := proxy.New(master, ce)
	if err != nil {
		t.Fatal(err)
	}
	return p, ce
}

// TestPreparedAmortizesParseAndSchema is the acceptance pin: a prepared
// parameterized SELECT executed many times parses at most once and resolves
// the schema at most once; ad-hoc execution parses per call.
func TestPreparedAmortizesParseAndSchema(t *testing.T) {
	ctx := context.Background()
	p, ce := newCountingStack(t)
	if _, err := p.Execute(ctx, "CREATE TABLE t (c ED1(8))"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(ctx, "INSERT INTO t VALUES ('x')"); err != nil {
		t.Fatal(err)
	}

	stmt, err := p.Prepare(ctx, "SELECT c FROM t WHERE c >= ? AND c <= ?")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()

	const execs = 10_000
	parsesBefore := sqlparse.ParseCount()
	schemaBefore := ce.schemaCalls.Load()
	for i := 0; i < execs; i++ {
		res, err := stmt.Exec(ctx, "a", "z")
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != 1 {
			t.Fatalf("count = %d", res.Count)
		}
	}
	if parses := sqlparse.ParseCount() - parsesBefore; parses > 1 {
		t.Errorf("%d executions parsed %d times, want <= 1", execs, parses)
	}
	if schemas := ce.schemaCalls.Load() - schemaBefore; schemas > 1 {
		t.Errorf("%d executions resolved the schema %d times, want <= 1", execs, schemas)
	}
}

// TestSchemaCacheRoundTrips counts the proxy's schema requests: SELECTs,
// ad hoc or through Query, plan against the cached schema; the proxy's own
// CREATE and DROP each cost one more request, and so does a table
// re-created behind its back, which the provider reports as
// engine.ErrSchemaChanged. Writes keep one lookup per statement or batch.
func TestSchemaCacheRoundTrips(t *testing.T) {
	ctx := context.Background()
	p, ce := newCountingStack(t)
	mustExec(t, p, "CREATE TABLE t (c ED1(8))")
	mustExec(t, p, "INSERT INTO t VALUES ('x')")
	selects := func(want int) {
		t.Helper()
		for i := 0; i < 100; i++ {
			var n int
			if i%2 == 0 {
				res, err := p.Execute(ctx, "SELECT c FROM t WHERE c = ?", "x")
				if err != nil {
					t.Fatal(err)
				}
				n = res.Count
			} else {
				rows, err := p.Query(ctx, "SELECT c FROM t WHERE c = ?", "x")
				if err != nil {
					t.Fatal(err)
				}
				all, err := rows.All()
				if err != nil {
					t.Fatal(err)
				}
				n = len(all)
			}
			if n != want {
				t.Fatalf("SELECT %d returned %d rows, want %d", i, n, want)
			}
		}
	}
	costs := func(what string, want int64, do func()) {
		t.Helper()
		before := ce.schemaCalls.Load()
		do()
		if got := ce.schemaCalls.Load() - before; got != want {
			t.Errorf("%s: %d schema requests, want %d", what, got, want)
		}
	}
	costs("100 SELECTs", 1, func() { selects(1) })
	costs("DROP, then a SELECT", 1, func() {
		mustExec(t, p, "DROP TABLE t")
		if _, err := p.Execute(ctx, "SELECT c FROM t"); !errors.Is(err, engine.ErrNoSuchTable) {
			t.Fatalf("SELECT after DROP: %v, want ErrNoSuchTable", err)
		}
	})
	costs("CREATE, then 100 SELECTs", 1, func() {
		mustExec(t, p, "CREATE TABLE t (c ED1(8))")
		selects(0)
	})
	// Another client re-creates t with other columns.
	db := ce.Executor
	if err := db.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(engine.Schema{Table: "t", Columns: []engine.ColumnDef{
		{Name: "c", Kind: dict.ED1, MaxLen: 8, Plain: true},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertBatch(ctx, "t", []engine.Row{{"c": []byte("x")}}); err != nil {
		t.Fatal(err)
	}
	costs("ErrSchemaChanged, then 100 SELECTs", 1, func() { selects(1) })
	costs("a batch of 3 INSERTs", 1, func() {
		if _, err := p.ExecBatch(ctx, []string{
			"INSERT INTO t VALUES ('a')", "INSERT INTO t VALUES ('b')", "INSERT INTO t VALUES ('c')",
		}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPreparedQueryStreams: Stmt.Query returns a working cursor.
func TestPreparedQueryStreams(t *testing.T) {
	ctx := context.Background()
	p := seed(t, "ED5(16) BSMAX 3", "ED1(16)")
	stmt, err := p.Prepare(ctx, "SELECT fname, city FROM t1 WHERE city = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	for want, city := range map[int]string{3: "Berlin", 2: "Karlsruhe", 1: "Waterloo"} {
		rows, err := stmt.Query(ctx, city)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for rows.Next() {
			var fname, got string
			if err := rows.Scan(&fname, &got); err != nil {
				t.Fatal(err)
			}
			if got != city {
				t.Fatalf("city = %q, want %q", got, city)
			}
			n++
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		rows.Close()
		if n != want {
			t.Fatalf("city %q rows = %d, want %d", city, n, want)
		}
	}
}

// TestPrepareValidatesAtPrepareTime: shape errors surface from Prepare, not
// first execution.
func TestPrepareValidatesAtPrepareTime(t *testing.T) {
	ctx := context.Background()
	p := seed(t, "ED1(16)", "ED1(16)")
	if _, err := p.Prepare(ctx, "SELECT nope FROM t1"); err == nil {
		t.Error("unknown projection column accepted")
	}
	if _, err := p.Prepare(ctx, "SELECT fname FROM t1 WHERE nope = ?"); err == nil {
		t.Error("unknown predicate column accepted")
	}
	if _, err := p.Prepare(ctx, "SELECT fname FROM missing"); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := p.Prepare(ctx, "INSERT INTO t1 VALUES (?)"); err == nil {
		t.Error("INSERT arity mismatch accepted")
	}
	stmt, err := p.Prepare(ctx, "SELECT fname FROM t1 WHERE city = ?")
	if err != nil {
		t.Fatal(err)
	}
	stmt.Close()
	if _, err := stmt.Exec(ctx, "Berlin"); !errors.Is(err, proxy.ErrStmtClosed) {
		t.Errorf("exec after close = %v", err)
	}
}

// TestPreparedConcurrentUse runs one Stmt from many goroutines.
func TestPreparedConcurrentUse(t *testing.T) {
	ctx := context.Background()
	p := seed(t, "ED5(16) BSMAX 3", "ED1(16)")
	stmt, err := p.Prepare(ctx, "SELECT COUNT(*) FROM t1 WHERE city = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				res, err := stmt.Exec(ctx, "Berlin")
				if err != nil {
					errs <- err
					return
				}
				if res.Count != 3 {
					errs <- fmt.Errorf("count = %d, want 3", res.Count)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestExecScriptOffsets: a bad statement mid-script is reported with its
// index and absolute offset.
func TestExecScriptOffsets(t *testing.T) {
	p := seed(t, "ED1(16)", "ED1(16)")
	script := "SELECT fname FROM t1; SELECT fname FROM t1 WHERE fname !! 'x'"
	_, err := p.ExecScript(context.Background(), script)
	if err == nil {
		t.Fatal("expected error")
	}
	var se *sqlparse.SyntaxError
	if !errors.As(err, &se) {
		t.Fatalf("err type %T: %v", err, err)
	}
	if se.Stmt != 1 || se.Pos != strings.Index(script, "!!") {
		t.Fatalf("err = stmt %d pos %d, want stmt 1 pos %d", se.Stmt, se.Pos, strings.Index(script, "!!"))
	}
	// A valid script executes with the batched-INSERT fast path.
	results, err := p.ExecScript(context.Background(),
		"INSERT INTO t1 VALUES ('A', 'B'); INSERT INTO t1 VALUES ('C', 'D'); SELECT COUNT(*) FROM t1")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || results[2].Count != 8 {
		t.Fatalf("results = %+v", results)
	}
}

// TestBatchRejectsUnboundPlaceholders: the batched-INSERT fast path must
// apply the same unbound-placeholder guard as single-statement execution —
// a '?' must never silently insert its zero value.
func TestBatchRejectsUnboundPlaceholders(t *testing.T) {
	ctx := context.Background()
	p := newStack(t)
	mustExec(t, p, "CREATE TABLE b (c ED1(8))")
	for _, batch := range [][]string{
		{"INSERT INTO b VALUES (?)"},
		{"INSERT INTO b VALUES ('ok')", "INSERT INTO b VALUES (?)"},
	} {
		if _, err := p.ExecBatch(ctx, batch); err == nil || !strings.Contains(err.Error(), "unbound placeholders") {
			t.Errorf("ExecBatch(%q) err = %v, want unbound-placeholder error", batch, err)
		}
	}
	if _, err := p.ExecScript(ctx, "INSERT INTO b VALUES (?)"); err == nil || !strings.Contains(err.Error(), "unbound placeholders") {
		t.Errorf("ExecScript err = %v, want unbound-placeholder error", err)
	}
	res, err := p.Execute(ctx, "SELECT COUNT(*) FROM b")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 {
		t.Fatalf("phantom rows inserted: count = %d", res.Count)
	}
}
