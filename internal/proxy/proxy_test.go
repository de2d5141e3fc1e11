package proxy_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/pae"
	"github.com/encdbdb/encdbdb/internal/proxy"
)

// newStack wires a provisioned enclave, an engine, and a proxy — the full
// trusted/untrusted split of paper Figure 2, in process.
func newStack(t testing.TB) *proxy.Proxy {
	t.Helper()
	db, master := newEngine(t)
	p, err := proxy.New(master, db)
	if err != nil {
		t.Fatalf("proxy.New: %v", err)
	}
	return p
}

// newEngine launches and provisions an enclave and returns an engine over it
// with the master key the enclave holds.
func newEngine(t testing.TB) (*engine.DB, pae.Key) {
	t.Helper()
	plat, err := enclave.NewPlatform()
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	encl, err := plat.Launch(enclave.Config{Identity: "proxy-test"})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	master := pae.MustGen()
	sealed, err := enclave.SealKey(encl.Quote(nil), master)
	if err != nil {
		t.Fatalf("SealKey: %v", err)
	}
	if err := encl.Provision(sealed); err != nil {
		t.Fatalf("Provision: %v", err)
	}
	return engine.New(encl), master
}

func mustExec(t testing.TB, p *proxy.Proxy, sql string) *proxy.Result {
	t.Helper()
	res, err := p.Execute(context.Background(), sql)
	if err != nil {
		t.Fatalf("Execute(%q): %v", sql, err)
	}
	return res
}

// seed creates the standard demo table through SQL inserts (delta store) and
// returns the proxy. Every value ends up queryable even before a merge.
func seed(t testing.TB, fnameType, cityType string) *proxy.Proxy {
	t.Helper()
	p := newStack(t)
	mustExec(t, p, fmt.Sprintf("CREATE TABLE t1 (fname %s, city %s)", fnameType, cityType))
	rows := [][2]string{
		{"Hans", "Berlin"},
		{"Jessica", "Waterloo"},
		{"Archie", "Karlsruhe"},
		{"Ella", "Berlin"},
		{"Jessica", "Berlin"},
		{"Jessica", "Karlsruhe"},
	}
	for _, r := range rows {
		mustExec(t, p, fmt.Sprintf("INSERT INTO t1 VALUES ('%s', '%s')", r[0], r[1]))
	}
	return p
}

func sortedRows(res *proxy.Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = strings.Join(r, "|")
	}
	sort.Strings(out)
	return out
}

func TestEndToEndRangeQuery(t *testing.T) {
	types := []string{"ED1(16)", "ED2(16)", "ED3(16)", "ED4(16) BSMAX 3", "ED5(16) BSMAX 3",
		"ED6(16) BSMAX 3", "ED7(16)", "ED8(16)", "ED9(16)", "PLAIN ED1(16)", "PLAIN ED5(16) BSMAX 2"}
	for _, ty := range types {
		t.Run(ty, func(t *testing.T) {
			p := seed(t, ty, "ED1(16)")
			res := mustExec(t, p, "SELECT fname FROM t1 WHERE fname >= 'Archie' AND fname <= 'Hans'")
			got := sortedRows(res)
			want := []string{"Archie", "Ella", "Hans"}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("rows = %v, want %v", got, want)
			}
		})
	}
}

func TestEndToEndPaperExampleQuery(t *testing.T) {
	// The paper's running example: SELECT FName FROM t1 WHERE FName < 'Ella'
	// is converted to >= -inf AND < 'Ella'.
	p := seed(t, "ED5(16) BSMAX 3", "ED1(16)")
	res := mustExec(t, p, "SELECT fname FROM t1 WHERE fname < 'Ella'")
	got := sortedRows(res)
	want := []string{"Archie"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("rows = %v, want %v", got, want)
	}
}

func TestEndToEndConjunctionAcrossColumns(t *testing.T) {
	p := seed(t, "ED2(16)", "ED9(16)")
	res := mustExec(t, p, "SELECT fname, city FROM t1 WHERE fname = 'Jessica' AND city = 'Berlin'")
	if len(res.Rows) != 1 || res.Rows[0][0] != "Jessica" || res.Rows[0][1] != "Berlin" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestEndToEndTwoPredicatesSameColumnMerge(t *testing.T) {
	// fname >= 'E' AND fname < 'I' must become a single filter.
	p := seed(t, "ED1(16)", "ED1(16)")
	res := mustExec(t, p, "SELECT fname FROM t1 WHERE fname >= 'E' AND fname < 'I'")
	got := sortedRows(res)
	want := []string{"Ella", "Hans"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("rows = %v, want %v", got, want)
	}
}

func TestEndToEndBetween(t *testing.T) {
	p := seed(t, "ED8(16)", "ED1(16)")
	res := mustExec(t, p, "SELECT fname FROM t1 WHERE fname BETWEEN 'E' AND 'J'")
	got := sortedRows(res)
	want := []string{"Ella", "Hans"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("rows = %v, want %v", got, want)
	}
}

func TestEndToEndCount(t *testing.T) {
	p := seed(t, "ED4(16) BSMAX 2", "ED1(16)")
	res := mustExec(t, p, "SELECT COUNT(*) FROM t1 WHERE city = 'Berlin'")
	if res.Kind != proxy.KindCount || res.Count != 3 {
		t.Errorf("res = %+v, want count 3", res)
	}
}

func TestEndToEndSelectStar(t *testing.T) {
	p := seed(t, "ED1(16)", "ED1(16)")
	res := mustExec(t, p, "SELECT * FROM t1")
	if len(res.Rows) != 6 || len(res.Columns) != 2 {
		t.Errorf("rows=%d cols=%d, want 6x2", len(res.Rows), len(res.Columns))
	}
}

func TestEndToEndUpdateDelete(t *testing.T) {
	p := seed(t, "ED5(16) BSMAX 3", "ED1(16)")
	up := mustExec(t, p, "UPDATE t1 SET city = 'Potsdam' WHERE fname = 'Hans'")
	if up.Affected != 1 {
		t.Fatalf("update affected = %d, want 1", up.Affected)
	}
	res := mustExec(t, p, "SELECT city FROM t1 WHERE fname = 'Hans'")
	if len(res.Rows) != 1 || res.Rows[0][0] != "Potsdam" {
		t.Fatalf("rows = %v", res.Rows)
	}
	del := mustExec(t, p, "DELETE FROM t1 WHERE fname = 'Jessica'")
	if del.Affected != 3 {
		t.Fatalf("delete affected = %d, want 3", del.Affected)
	}
	cnt := mustExec(t, p, "SELECT COUNT(*) FROM t1")
	if cnt.Count != 3 {
		t.Errorf("count after delete = %d, want 3", cnt.Count)
	}
}

func TestEndToEndMergeKeepsResults(t *testing.T) {
	p := seed(t, "ED5(16) BSMAX 3", "ED9(16)")
	before := sortedRows(mustExec(t, p, "SELECT fname, city FROM t1"))
	mustExec(t, p, "MERGE TABLE t1")
	after := sortedRows(mustExec(t, p, "SELECT fname, city FROM t1"))
	if fmt.Sprint(before) != fmt.Sprint(after) {
		t.Errorf("merge changed results:\nbefore %v\nafter  %v", before, after)
	}
	// And range queries still work post-merge.
	res := mustExec(t, p, "SELECT fname FROM t1 WHERE fname > 'H'")
	got := sortedRows(res)
	want := []string{"Hans", "Jessica", "Jessica", "Jessica"}
	// 'Hans' > 'H' lexicographically, so it is included.
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("rows = %v, want %v", got, want)
	}
}

func TestEndToEndMergeAsyncAndStatus(t *testing.T) {
	p := seed(t, "ED5(16) BSMAX 3", "ED9(16)")
	before := sortedRows(mustExec(t, p, "SELECT fname, city FROM t1"))

	status := mustExec(t, p, "MERGE STATUS t1")
	if status.Kind != proxy.KindRows || len(status.Rows) != 1 {
		t.Fatalf("status = %+v, want one row", status)
	}
	col := func(res *proxy.Result, name string) string {
		for i, c := range res.Columns {
			if c == name {
				return res.Rows[0][i]
			}
		}
		t.Fatalf("status lacks column %q (have %v)", name, res.Columns)
		return ""
	}
	if got := col(status, "delta_rows"); got != "6" {
		t.Errorf("delta_rows before merge = %s, want 6", got)
	}
	if got := col(status, "generation"); got != "0" {
		t.Errorf("generation before merge = %s, want 0", got)
	}

	mustExec(t, p, "MERGE TABLE t1 ASYNC")
	// Poll until the background merge lands; the statement itself must not
	// have waited for it, but the test needs the final state.
	deadline := time.Now().Add(10 * time.Second)
	for {
		status = mustExec(t, p, "MERGE STATUS t1")
		if col(status, "merging") == "false" && col(status, "merges") != "0" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background merge never completed: %+v", status.Rows)
		}
		time.Sleep(time.Millisecond)
	}
	if got := col(status, "delta_rows"); got != "0" {
		t.Errorf("delta_rows after merge = %s, want 0", got)
	}
	if got := col(status, "generation"); got != "1" {
		t.Errorf("generation after merge = %s, want 1", got)
	}
	if got := col(status, "main_rows"); got != "6" {
		t.Errorf("main_rows after merge = %s, want 6", got)
	}
	if got := col(status, "last_error"); got != "" {
		t.Errorf("last_error = %q, want empty", got)
	}
	after := sortedRows(mustExec(t, p, "SELECT fname, city FROM t1"))
	if fmt.Sprint(before) != fmt.Sprint(after) {
		t.Errorf("async merge changed results:\nbefore %v\nafter  %v", before, after)
	}
}

func TestEndToEndDropTable(t *testing.T) {
	p := seed(t, "ED1(16)", "ED1(16)")
	mustExec(t, p, "DROP TABLE t1")
	if _, err := p.Execute(context.Background(), "SELECT * FROM t1"); err == nil {
		t.Error("query on dropped table succeeded")
	}
}

func TestInsertRejectsOversizedValue(t *testing.T) {
	p := newStack(t)
	mustExec(t, p, "CREATE TABLE s (c ED1(4))")
	if _, err := p.Execute(context.Background(), "INSERT INTO s VALUES ('toolongvalue')"); err == nil {
		t.Error("oversized insert accepted")
	}
}

func TestQueryRejectsOversizedBound(t *testing.T) {
	p := newStack(t)
	mustExec(t, p, "CREATE TABLE s (c ED1(4))")
	mustExec(t, p, "INSERT INTO s VALUES ('ab')")
	if _, err := p.Execute(context.Background(), "SELECT c FROM s WHERE c = 'toolongvalue'"); err == nil {
		t.Error("oversized bound accepted")
	}
}

func TestExecuteSyntaxError(t *testing.T) {
	p := newStack(t)
	if _, err := p.Execute(context.Background(), "SELEKT"); err == nil {
		t.Error("syntax error not reported")
	}
}

func TestNewProxyValidation(t *testing.T) {
	if _, err := proxy.New(pae.Key("short"), nil); err == nil {
		t.Error("bad master key accepted")
	}
	if _, err := proxy.New(pae.MustGen(), nil); err == nil {
		t.Error("nil executor accepted")
	}
}

func TestInsertWithColumnList(t *testing.T) {
	p := newStack(t)
	mustExec(t, p, "CREATE TABLE s (a ED1(8), b ED1(8))")
	mustExec(t, p, "INSERT INTO s (b, a) VALUES ('bee', 'ay')")
	res := mustExec(t, p, "SELECT a, b FROM s")
	if len(res.Rows) != 1 || res.Rows[0][0] != "ay" || res.Rows[0][1] != "bee" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestEmptyStringValue(t *testing.T) {
	p := newStack(t)
	mustExec(t, p, "CREATE TABLE s (c ED1(8))")
	mustExec(t, p, "INSERT INTO s VALUES ('')")
	mustExec(t, p, "INSERT INTO s VALUES ('x')")
	res := mustExec(t, p, "SELECT c FROM s WHERE c = ''")
	if len(res.Rows) != 1 || res.Rows[0][0] != "" {
		t.Errorf("rows = %v, want one empty value", res.Rows)
	}
	all := mustExec(t, p, "SELECT c FROM s WHERE c >= ''")
	if len(all.Rows) != 2 {
		t.Errorf(">= '' matched %d rows, want 2", len(all.Rows))
	}
}

// swapExec is a provider that answers with its first two result columns
// swapped, in materialized and streamed replies alike.
type swapExec struct{ *engine.DB }

type swapStream struct{ engine.ResultStream }

func swapColumns(res *engine.Result) {
	res.Columns[0], res.Columns[1] = res.Columns[1], res.Columns[0]
}

func (s swapExec) Select(ctx context.Context, q engine.Query) (*engine.Result, error) {
	res, err := s.DB.Select(ctx, q)
	if err == nil && !q.CountOnly {
		swapColumns(res)
	}
	return res, err
}

func (s swapExec) SelectStream(ctx context.Context, q engine.Query) (engine.ResultStream, error) {
	st, err := s.DB.SelectStream(ctx, q)
	return swapStream{st}, err
}

func (s swapStream) Next() (*engine.Result, error) {
	chunk, err := s.ResultStream.Next()
	if err == nil {
		swapColumns(chunk)
	}
	return chunk, err
}

// TestProviderColumnSwapRejected treats provider replies as untrusted input:
// two plain columns arriving swapped would decode "fine", so the proxy must
// check every column's name against the projection and fail typed.
func TestProviderColumnSwapRejected(t *testing.T) {
	ctx := context.Background()
	db, master := newEngine(t)
	p, err := proxy.New(master, swapExec{db})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, p, "CREATE TABLE t (a PLAIN ED1(8), b PLAIN ED1(8))")
	mustExec(t, p, "INSERT INTO t VALUES ('x', 'y')")
	for _, sql := range []string{"SELECT a, b FROM t", "SELECT a, b FROM t ORDER BY a", "SELECT MIN(a), MAX(b) FROM t"} {
		if _, err := p.Execute(ctx, sql); !errors.Is(err, proxy.ErrBadReply) {
			t.Errorf("Execute(%s) err = %v, want ErrBadReply", sql, err)
		}
	}
	rows, err := p.Query(ctx, "SELECT a, b FROM t")
	if err == nil {
		_, err = rows.All()
	}
	if !errors.Is(err, proxy.ErrBadReply) {
		t.Errorf("Query err = %v, want ErrBadReply", err)
	}
}
