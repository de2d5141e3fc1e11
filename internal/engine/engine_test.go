package engine_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/pae"
	"github.com/encdbdb/encdbdb/internal/search"
)

// env wires a provisioned enclave, a database, and owner-side key material —
// everything the trusted side (data owner + proxy) would hold.
type env struct {
	db     *engine.DB
	master pae.Key
}

func newEnv(t testing.TB) *env {
	t.Helper()
	return newEnvWith(t)
}

func newEnvWith(t testing.TB, opts ...engine.Option) *env {
	t.Helper()
	p, err := enclave.NewPlatform()
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	e, err := p.Launch(enclave.Config{Identity: "engine-test"})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	master := pae.MustGen()
	q := e.Quote([]byte("n"))
	sealed, err := enclave.SealKey(q, master)
	if err != nil {
		t.Fatalf("SealKey: %v", err)
	}
	if err := e.Provision(sealed); err != nil {
		t.Fatalf("Provision: %v", err)
	}
	return &env{db: engine.New(e, opts...), master: master}
}

func (v *env) cipher(t testing.TB, table, column string) *pae.Cipher {
	t.Helper()
	key, err := pae.Derive(v.master, table, column)
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	c, err := pae.NewCipher(key)
	if err != nil {
		t.Fatalf("NewCipher: %v", err)
	}
	return c
}

// loadColumn builds and imports a column as the data owner would.
func (v *env) loadColumn(t testing.TB, table string, def engine.ColumnDef, col [][]byte) {
	t.Helper()
	p := dict.Params{
		Kind:   def.Kind,
		MaxLen: def.MaxLen,
		BSMax:  def.BSMax,
		Plain:  def.Plain,
		Rand:   rand.New(rand.NewSource(123)),
	}
	if !def.Plain {
		p.Cipher = v.cipher(t, table, def.Name)
	}
	s, err := dict.Build(col, p)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := v.db.ImportColumn(table, def.Name, s); err != nil {
		t.Fatalf("ImportColumn: %v", err)
	}
}

// filter builds an encrypted (or plain) filter like the proxy would.
func (v *env) filter(t testing.TB, table string, def engine.ColumnDef, q search.Range) engine.Filter {
	t.Helper()
	if def.Plain {
		return engine.SingleRange(def.Name, enclave.EncRange{
			Start: q.Start, End: q.End, StartIncl: q.StartIncl, EndIncl: q.EndIncl,
		})
	}
	c := v.cipher(t, table, def.Name)
	s, err := c.Encrypt(q.Start)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	e, err := c.Encrypt(q.End)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	return engine.SingleRange(def.Name, enclave.EncRange{
		Start: s, End: e, StartIncl: q.StartIncl, EndIncl: q.EndIncl,
	})
}

// decryptCells decrypts a result column.
func (v *env) decryptCells(t testing.TB, rc engine.ResultColumn, plain bool) []string {
	t.Helper()
	out := make([]string, len(rc.Cells))
	if plain {
		for i, cell := range rc.Cells {
			out[i] = string(cell)
		}
		return out
	}
	c := v.cipher(t, rc.Table, rc.Column)
	for i, cell := range rc.Cells {
		pt, err := c.Decrypt(cell)
		if err != nil {
			t.Fatalf("decrypt cell %d: %v", i, err)
		}
		out[i] = string(pt)
	}
	return out
}

func bcol(vals ...string) [][]byte {
	out := make([][]byte, len(vals))
	for i, v := range vals {
		out[i] = []byte(v)
	}
	return out
}

// fnameDef/cityDef form the standard two-column test table.
func fnameDef(kind dict.Kind) engine.ColumnDef {
	return engine.ColumnDef{Name: "fname", Kind: kind, MaxLen: 16, BSMax: 3}
}

func cityDef(kind dict.Kind) engine.ColumnDef {
	return engine.ColumnDef{Name: "city", Kind: kind, MaxLen: 16, BSMax: 3}
}

func (v *env) standardTable(t testing.TB, fnameKind, cityKind dict.Kind) (fname, city engine.ColumnDef) {
	t.Helper()
	fname, city = fnameDef(fnameKind), cityDef(cityKind)
	schema := engine.Schema{Table: "t1", Columns: []engine.ColumnDef{fname, city}}
	if err := v.db.CreateTable(schema); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	v.loadColumn(t, "t1", fname, bcol("Hans", "Jessica", "Archie", "Ella", "Jessica", "Jessica"))
	v.loadColumn(t, "t1", city, bcol("Berlin", "Waterloo", "Karlsruhe", "Berlin", "Berlin", "Karlsruhe"))
	return fname, city
}

func TestSelectSingleFilterAllKinds(t *testing.T) {
	for _, k := range []dict.Kind{dict.ED1, dict.ED2, dict.ED3, dict.ED4, dict.ED5, dict.ED6, dict.ED7, dict.ED8, dict.ED9} {
		t.Run(k.String(), func(t *testing.T) {
			v := newEnv(t)
			fname, _ := v.standardTable(t, k, dict.ED1)
			res, err := v.db.Select(context.Background(), engine.Query{
				Table:   "t1",
				Filters: []engine.Filter{v.filter(t, "t1", fname, search.Closed([]byte("Archie"), []byte("Hans")))},
				Project: []string{"fname"},
			})
			if err != nil {
				t.Fatalf("Select: %v", err)
			}
			got := v.decryptCells(t, res.Columns[0], false)
			want := []string{"Hans", "Archie", "Ella"}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("cells = %v, want %v", got, want)
			}
		})
	}
}

func TestSelectConjunction(t *testing.T) {
	v := newEnv(t)
	fname, city := v.standardTable(t, dict.ED5, dict.ED2)
	// fname == Jessica AND city == Berlin -> rows 1,4 have Jessica; of
	// those, city Berlin only at row 4.
	res, err := v.db.Select(context.Background(), engine.Query{
		Table: "t1",
		Filters: []engine.Filter{
			v.filter(t, "t1", fname, search.Eq([]byte("Jessica"))),
			v.filter(t, "t1", city, search.Eq([]byte("Berlin"))),
		},
		Project: []string{"city"},
	})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if res.Count != 1 || res.RecordIDs[0] != 4 {
		t.Fatalf("RecordIDs = %v, want [4]", res.RecordIDs)
	}
	got := v.decryptCells(t, res.Columns[0], false)
	if len(got) != 1 || got[0] != "Berlin" {
		t.Errorf("cells = %v, want [Berlin]", got)
	}
}

func TestSelectProjectionPrefiltersOtherColumn(t *testing.T) {
	// Filter on one column, project another (paper step 12: rid prefilters
	// other columns of the same table).
	v := newEnv(t)
	fname, _ := v.standardTable(t, dict.ED1, dict.ED9)
	res, err := v.db.Select(context.Background(), engine.Query{
		Table:   "t1",
		Filters: []engine.Filter{v.filter(t, "t1", fname, search.Eq([]byte("Jessica")))},
		Project: []string{"city"},
	})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	got := v.decryptCells(t, res.Columns[0], false)
	want := []string{"Waterloo", "Berlin", "Karlsruhe"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("cells = %v, want %v", got, want)
	}
}

func TestSelectNoFiltersReturnsAll(t *testing.T) {
	v := newEnv(t)
	v.standardTable(t, dict.ED1, dict.ED1)
	res, err := v.db.Select(context.Background(), engine.Query{Table: "t1"})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if res.Count != 6 {
		t.Errorf("Count = %d, want 6", res.Count)
	}
	if len(res.Columns) != 2 {
		t.Errorf("projected %d columns, want 2 (all)", len(res.Columns))
	}
}

func TestSelectCountOnly(t *testing.T) {
	v := newEnv(t)
	fname, _ := v.standardTable(t, dict.ED4, dict.ED1)
	res, err := v.db.Select(context.Background(), engine.Query{
		Table:     "t1",
		Filters:   []engine.Filter{v.filter(t, "t1", fname, search.Eq([]byte("Jessica")))},
		CountOnly: true,
	})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if res.Count != 3 || len(res.Columns) != 0 {
		t.Errorf("Count = %d Columns = %d, want 3 and none", res.Count, len(res.Columns))
	}
}

func TestSelectPlainColumns(t *testing.T) {
	for _, k := range []dict.Kind{dict.ED1, dict.ED2, dict.ED3, dict.ED5, dict.ED8, dict.ED9} {
		t.Run(k.String(), func(t *testing.T) {
			v := newEnv(t)
			def := engine.ColumnDef{Name: "c", Kind: k, MaxLen: 16, BSMax: 3, Plain: true}
			schema := engine.Schema{Table: "p", Columns: []engine.ColumnDef{def}}
			if err := v.db.CreateTable(schema); err != nil {
				t.Fatalf("CreateTable: %v", err)
			}
			v.loadColumn(t, "p", def, bcol("b", "d", "a", "c", "b"))
			res, err := v.db.Select(context.Background(), engine.Query{
				Table:   "p",
				Filters: []engine.Filter{v.filter(t, "p", def, search.Closed([]byte("b"), []byte("c")))},
			})
			if err != nil {
				t.Fatalf("Select: %v", err)
			}
			got := v.decryptCells(t, res.Columns[0], true)
			want := []string{"b", "c", "b"}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("cells = %v, want %v", got, want)
			}
		})
	}
}

func TestSelectMixedKindsInOneTable(t *testing.T) {
	// The paper: "EncDBDB is able to process all dictionary types together,
	// even if they are mixed in one table."
	v := newEnv(t)
	defs := []engine.ColumnDef{
		{Name: "a", Kind: dict.ED1, MaxLen: 8},
		{Name: "b", Kind: dict.ED5, MaxLen: 8, BSMax: 2},
		{Name: "c", Kind: dict.ED9, MaxLen: 8},
		{Name: "d", Kind: dict.ED3, MaxLen: 8, Plain: true},
	}
	if err := v.db.CreateTable(engine.Schema{Table: "mix", Columns: defs}); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	col := bcol("x", "y", "x", "z")
	for _, def := range defs {
		v.loadColumn(t, "mix", def, col)
	}
	for _, def := range defs {
		res, err := v.db.Select(context.Background(), engine.Query{
			Table:   "mix",
			Filters: []engine.Filter{v.filter(t, "mix", def, search.Eq([]byte("x")))},
			Project: []string{def.Name},
		})
		if err != nil {
			t.Fatalf("Select on %q: %v", def.Name, err)
		}
		if res.Count != 2 {
			t.Errorf("column %q: count = %d, want 2", def.Name, res.Count)
		}
	}
}

func TestSelectErrors(t *testing.T) {
	v := newEnv(t)
	fname, _ := v.standardTable(t, dict.ED1, dict.ED1)

	if _, err := v.db.Select(context.Background(), engine.Query{Table: "nope"}); !errors.Is(err, engine.ErrNoSuchTable) {
		t.Errorf("unknown table: err = %v", err)
	}
	if _, err := v.db.Select(context.Background(), engine.Query{
		Table:   "t1",
		Filters: []engine.Filter{{Column: "nope"}},
	}); !errors.Is(err, engine.ErrNoSuchColumn) {
		t.Errorf("unknown filter column: err = %v", err)
	}
	if _, err := v.db.Select(context.Background(), engine.Query{
		Table:   "t1",
		Filters: []engine.Filter{v.filter(t, "t1", fname, search.Eq([]byte("x")))},
		Project: []string{"nope"},
	}); !errors.Is(err, engine.ErrNoSuchColumn) {
		t.Errorf("unknown projection: err = %v", err)
	}
}

func TestCreateTableValidation(t *testing.T) {
	v := newEnv(t)
	tests := []struct {
		name   string
		schema engine.Schema
	}{
		{name: "empty table name", schema: engine.Schema{Columns: []engine.ColumnDef{fnameDef(dict.ED1)}}},
		{name: "no columns", schema: engine.Schema{Table: "x"}},
		{name: "bad kind", schema: engine.Schema{Table: "x", Columns: []engine.ColumnDef{{Name: "c", MaxLen: 4}}}},
		{name: "no maxlen", schema: engine.Schema{Table: "x", Columns: []engine.ColumnDef{{Name: "c", Kind: dict.ED1}}}},
		{name: "smoothing without bsmax", schema: engine.Schema{Table: "x", Columns: []engine.ColumnDef{{Name: "c", Kind: dict.ED4, MaxLen: 4}}}},
		{name: "duplicate columns", schema: engine.Schema{Table: "x", Columns: []engine.ColumnDef{fnameDef(dict.ED1), fnameDef(dict.ED1)}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := v.db.CreateTable(tt.schema); err == nil {
				t.Error("CreateTable accepted an invalid schema")
			}
		})
	}
	if err := v.db.CreateTable(engine.Schema{Table: "ok", Columns: []engine.ColumnDef{fnameDef(dict.ED1)}}); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	if err := v.db.CreateTable(engine.Schema{Table: "ok", Columns: []engine.ColumnDef{fnameDef(dict.ED1)}}); !errors.Is(err, engine.ErrTableExists) {
		t.Errorf("duplicate table: err = %v", err)
	}
}

func TestImportColumnRowMismatch(t *testing.T) {
	v := newEnv(t)
	a := engine.ColumnDef{Name: "a", Kind: dict.ED1, MaxLen: 8}
	b := engine.ColumnDef{Name: "b", Kind: dict.ED1, MaxLen: 8}
	if err := v.db.CreateTable(engine.Schema{Table: "t", Columns: []engine.ColumnDef{a, b}}); err != nil {
		t.Fatal(err)
	}
	v.loadColumn(t, "t", a, bcol("x", "y"))
	s, err := dict.Build(bcol("z"), dict.Params{
		Kind: dict.ED1, MaxLen: 8, Cipher: v.cipher(t, "t", "b"),
		Rand: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.db.ImportColumn("t", "b", s); !errors.Is(err, engine.ErrRowMismatch) {
		t.Errorf("err = %v, want ErrRowMismatch", err)
	}
}

func TestImportColumnKindMismatch(t *testing.T) {
	v := newEnv(t)
	a := engine.ColumnDef{Name: "a", Kind: dict.ED1, MaxLen: 8}
	if err := v.db.CreateTable(engine.Schema{Table: "t", Columns: []engine.ColumnDef{a}}); err != nil {
		t.Fatal(err)
	}
	s, err := dict.Build(bcol("x"), dict.Params{
		Kind: dict.ED3, MaxLen: 8, Cipher: v.cipher(t, "t", "a"),
		Rand: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.db.ImportColumn("t", "a", s); err == nil {
		t.Error("kind mismatch accepted")
	}
}

func TestSelectPartiallyImportedTableFails(t *testing.T) {
	// A table with no bulk-imported columns is queryable (pure delta mode),
	// but importing only some columns leaves it inconsistent.
	v := newEnv(t)
	a := engine.ColumnDef{Name: "a", Kind: dict.ED1, MaxLen: 8}
	b := engine.ColumnDef{Name: "b", Kind: dict.ED1, MaxLen: 8}
	if err := v.db.CreateTable(engine.Schema{Table: "t", Columns: []engine.ColumnDef{a, b}}); err != nil {
		t.Fatal(err)
	}
	if _, err := v.db.Select(context.Background(), engine.Query{Table: "t", CountOnly: true}); err != nil {
		t.Errorf("empty table not queryable: %v", err)
	}
	v.loadColumn(t, "t", a, bcol("x", "y"))
	if _, err := v.db.Select(context.Background(), engine.Query{Table: "t"}); !errors.Is(err, engine.ErrNotImported) {
		t.Errorf("err = %v, want ErrNotImported", err)
	}
	v.loadColumn(t, "t", b, bcol("p", "q"))
	if _, err := v.db.Select(context.Background(), engine.Query{Table: "t"}); err != nil {
		t.Errorf("fully imported table not queryable: %v", err)
	}
}

func TestImportAfterInsertFails(t *testing.T) {
	v := newEnv(t)
	a := engine.ColumnDef{Name: "a", Kind: dict.ED1, MaxLen: 8}
	if err := v.db.CreateTable(engine.Schema{Table: "t", Columns: []engine.ColumnDef{a}}); err != nil {
		t.Fatal(err)
	}
	if err := v.db.InsertBatch(context.Background(), "t", []engine.Row{{"a": v.encryptValue(t, "t", "a", "x")}}); err != nil {
		t.Fatal(err)
	}
	s, err := dict.Build(bcol("z"), dict.Params{
		Kind: dict.ED1, MaxLen: 8, Cipher: v.cipher(t, "t", "a"),
		Rand: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.db.ImportColumn("t", "a", s); err == nil {
		t.Error("bulk import after insert accepted")
	}
}

func TestInsertAndQueryDelta(t *testing.T) {
	v := newEnv(t)
	fname, city := v.standardTable(t, dict.ED5, dict.ED1)
	row := engine.Row{
		"fname": v.encryptValue(t, "t1", "fname", "Jessica"),
		"city":  v.encryptValue(t, "t1", "city", "Toronto"),
	}
	if err := v.db.InsertBatch(context.Background(), "t1", []engine.Row{row}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	res, err := v.db.Select(context.Background(), engine.Query{
		Table:   "t1",
		Filters: []engine.Filter{v.filter(t, "t1", fname, search.Eq([]byte("Jessica")))},
		Project: []string{"city"},
	})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	got := v.decryptCells(t, res.Columns[0], false)
	want := []string{"Waterloo", "Berlin", "Karlsruhe", "Toronto"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("cells = %v, want %v", got, want)
	}
	_ = city
}

func (v *env) encryptValue(t testing.TB, table, column, value string) []byte {
	t.Helper()
	ct, err := v.cipher(t, table, column).Encrypt([]byte(value))
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	return ct
}

func TestInsertBatch(t *testing.T) {
	v := newEnv(t)
	fname, _ := v.standardTable(t, dict.ED5, dict.ED1)
	rows := make([]engine.Row, 10)
	for i := range rows {
		rows[i] = engine.Row{
			"fname": v.encryptValue(t, "t1", "fname", "Batch"),
			"city":  v.encryptValue(t, "t1", "city", fmt.Sprintf("City%d", i)),
		}
	}
	if err := v.db.InsertBatch(context.Background(), "t1", rows); err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	res, err := v.db.Select(context.Background(), engine.Query{
		Table:     "t1",
		Filters:   []engine.Filter{v.filter(t, "t1", fname, search.Eq([]byte("Batch")))},
		CountOnly: true,
	})
	if err != nil || res.Count != 10 {
		t.Fatalf("count = %v, %v; want 10", res, err)
	}
	if err := v.db.InsertBatch(context.Background(), "t1", nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := v.db.InsertBatch(context.Background(), "missing", rows); err == nil {
		t.Error("batch into missing table accepted")
	}
	// A bad row anywhere aborts the whole batch: every row is validated
	// and re-encrypted before any table state changes (all-or-nothing).
	bad := []engine.Row{
		{"fname": v.encryptValue(t, "t1", "fname", "B2"), "city": v.encryptValue(t, "t1", "city", "C")},
		{"fname": v.encryptValue(t, "t1", "fname", "B2")}, // missing city
	}
	before, _ := v.db.Rows("t1")
	if err := v.db.InsertBatch(context.Background(), "t1", bad); !errors.Is(err, engine.ErrMissingColumn) {
		t.Errorf("err = %v, want ErrMissingColumn", err)
	}
	if after, _ := v.db.Rows("t1"); after != before {
		t.Errorf("rows = %d, want %d (failed batch must leave the table untouched)", after, before)
	}
	res, err = v.db.Select(context.Background(), engine.Query{
		Table:     "t1",
		Filters:   []engine.Filter{v.filter(t, "t1", fname, search.Eq([]byte("B2")))},
		CountOnly: true,
	})
	if err != nil || res.Count != 0 {
		t.Errorf("count = %v, %v; want 0 (no partial batch visible)", res, err)
	}
}

func TestInsertMissingColumn(t *testing.T) {
	v := newEnv(t)
	v.standardTable(t, dict.ED1, dict.ED1)
	err := v.db.InsertBatch(context.Background(), "t1", []engine.Row{{"fname": v.encryptValue(t, "t1", "fname", "X")}})
	if !errors.Is(err, engine.ErrMissingColumn) {
		t.Errorf("err = %v, want ErrMissingColumn", err)
	}
	if n, _ := v.db.Rows("t1"); n != 6 {
		t.Errorf("failed insert changed row count to %d", n)
	}
}

func TestDeleteHidesRows(t *testing.T) {
	v := newEnv(t)
	fname, _ := v.standardTable(t, dict.ED1, dict.ED1)
	n, err := v.db.Delete(context.Background(), "t1", []engine.Filter{v.filter(t, "t1", fname, search.Eq([]byte("Jessica")))})
	if err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if n != 3 {
		t.Errorf("deleted %d rows, want 3", n)
	}
	res, err := v.db.Select(context.Background(), engine.Query{Table: "t1", CountOnly: true})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if res.Count != 3 {
		t.Errorf("remaining rows = %d, want 3", res.Count)
	}
}

func TestUpdateRewritesRows(t *testing.T) {
	v := newEnv(t)
	fname, city := v.standardTable(t, dict.ED5, dict.ED1)
	n, err := v.db.Update(context.Background(), "t1",
		[]engine.Filter{v.filter(t, "t1", fname, search.Eq([]byte("Hans")))},
		engine.Row{"city": v.encryptValue(t, "t1", "city", "Potsdam")},
	)
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if n != 1 {
		t.Fatalf("updated %d rows, want 1", n)
	}
	res, err := v.db.Select(context.Background(), engine.Query{
		Table:   "t1",
		Filters: []engine.Filter{v.filter(t, "t1", fname, search.Eq([]byte("Hans")))},
		Project: []string{"city"},
	})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	got := v.decryptCells(t, res.Columns[0], false)
	if len(got) != 1 || got[0] != "Potsdam" {
		t.Errorf("city after update = %v, want [Potsdam]", got)
	}
	_ = city
}

func TestMergeFoldsDeltaAndGarbageCollects(t *testing.T) {
	v := newEnv(t)
	fname, _ := v.standardTable(t, dict.ED5, dict.ED2)
	// Delete one row, insert two.
	if _, err := v.db.Delete(context.Background(), "t1", []engine.Filter{v.filter(t, "t1", fname, search.Eq([]byte("Hans")))}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Zara", "Anna"} {
		err := v.db.InsertBatch(context.Background(), "t1", []engine.Row{{
			"fname": v.encryptValue(t, "t1", "fname", name),
			"city":  v.encryptValue(t, "t1", "city", "Ottawa"),
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := v.db.Merge(context.Background(), "t1"); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	// 6 - 1 + 2 = 7 rows, all in the main store now.
	if n, _ := v.db.Rows("t1"); n != 7 {
		t.Errorf("rows after merge = %d, want 7", n)
	}
	res, err := v.db.Select(context.Background(), engine.Query{Table: "t1", Project: []string{"fname"}})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	got := v.decryptCells(t, res.Columns[0], false)
	sort.Strings(got)
	want := []string{"Anna", "Archie", "Ella", "Jessica", "Jessica", "Jessica", "Zara"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("rows after merge = %v, want %v", got, want)
	}
	// Searches still work on the merged store.
	res, err = v.db.Select(context.Background(), engine.Query{
		Table:     "t1",
		Filters:   []engine.Filter{v.filter(t, "t1", fname, search.Eq([]byte("Zara")))},
		CountOnly: true,
	})
	if err != nil {
		t.Fatalf("Select after merge: %v", err)
	}
	if res.Count != 1 {
		t.Errorf("Zara count = %d, want 1", res.Count)
	}
}

func TestMergePlainColumns(t *testing.T) {
	v := newEnv(t)
	def := engine.ColumnDef{Name: "c", Kind: dict.ED2, MaxLen: 8, Plain: true}
	if err := v.db.CreateTable(engine.Schema{Table: "p", Columns: []engine.ColumnDef{def}}); err != nil {
		t.Fatal(err)
	}
	v.loadColumn(t, "p", def, bcol("m", "n"))
	if err := v.db.InsertBatch(context.Background(), "p", []engine.Row{{"c": []byte("o")}}); err != nil {
		t.Fatal(err)
	}
	if err := v.db.Merge(context.Background(), "p"); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	res, err := v.db.Select(context.Background(), engine.Query{
		Table:   "p",
		Filters: []engine.Filter{v.filter(t, "p", def, search.Closed([]byte("m"), []byte("o")))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 3 {
		t.Errorf("count = %d, want 3", res.Count)
	}
}

func TestDropTable(t *testing.T) {
	v := newEnv(t)
	v.standardTable(t, dict.ED1, dict.ED1)
	if err := v.db.DropTable("t1"); err != nil {
		t.Fatalf("DropTable: %v", err)
	}
	if err := v.db.DropTable("t1"); !errors.Is(err, engine.ErrNoSuchTable) {
		t.Errorf("second drop: err = %v", err)
	}
	if n := len(v.db.Tables()); n != 0 {
		t.Errorf("tables remaining = %d", n)
	}
}

func TestStorageBytesGrowsWithDelta(t *testing.T) {
	v := newEnv(t)
	v.standardTable(t, dict.ED1, dict.ED1)
	before, err := v.db.StorageBytes("t1")
	if err != nil {
		t.Fatal(err)
	}
	if before == 0 {
		t.Fatal("storage = 0")
	}
	err = v.db.InsertBatch(context.Background(), "t1", []engine.Row{{
		"fname": v.encryptValue(t, "t1", "fname", "New"),
		"city":  v.encryptValue(t, "t1", "city", "Town"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	after, _ := v.db.StorageBytes("t1")
	if after <= before {
		t.Errorf("storage did not grow: %d -> %d", before, after)
	}
}

func TestEngineRandomizedAgainstOracle(t *testing.T) {
	// End-to-end property test: random columns, random operations, random
	// range queries; the engine must agree with a plaintext model.
	rng := rand.New(rand.NewSource(2024))
	kinds := []dict.Kind{dict.ED1, dict.ED2, dict.ED3, dict.ED4, dict.ED5, dict.ED6, dict.ED7, dict.ED8, dict.ED9}
	for trial := 0; trial < 6; trial++ {
		v := newEnv(t)
		kind := kinds[rng.Intn(len(kinds))]
		def := engine.ColumnDef{Name: "c", Kind: kind, MaxLen: 8, BSMax: 2}
		if err := v.db.CreateTable(engine.Schema{Table: "t", Columns: []engine.ColumnDef{def}}); err != nil {
			t.Fatal(err)
		}
		n := 5 + rng.Intn(60)
		model := make([]string, n)
		for i := range model {
			model[i] = fmt.Sprintf("v%02d", rng.Intn(12))
		}
		col := make([][]byte, n)
		for i, s := range model {
			col[i] = []byte(s)
		}
		v.loadColumn(t, "t", def, col)

		for op := 0; op < 10; op++ {
			switch rng.Intn(3) {
			case 0: // insert
				val := fmt.Sprintf("v%02d", rng.Intn(12))
				err := v.db.InsertBatch(context.Background(), "t", []engine.Row{{"c": v.encryptValue(t, "t", "c", val)}})
				if err != nil {
					t.Fatal(err)
				}
				model = append(model, val)
			case 1: // delete by equality
				val := fmt.Sprintf("v%02d", rng.Intn(12))
				if _, err := v.db.Delete(context.Background(), "t", []engine.Filter{v.filter(t, "t", def, search.Eq([]byte(val)))}); err != nil {
					t.Fatal(err)
				}
				var kept []string
				for _, m := range model {
					if m != val {
						kept = append(kept, m)
					}
				}
				model = kept
			case 2: // occasionally merge
				if rng.Intn(2) == 0 {
					if err := v.db.Merge(context.Background(), "t"); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Verify with a random range query.
			lo := fmt.Sprintf("v%02d", rng.Intn(12))
			hi := fmt.Sprintf("v%02d", rng.Intn(12))
			if lo > hi {
				lo, hi = hi, lo
			}
			q := search.Closed([]byte(lo), []byte(hi))
			res, err := v.db.Select(context.Background(), engine.Query{
				Table:   "t",
				Filters: []engine.Filter{v.filter(t, "t", def, q)},
				Project: []string{"c"},
			})
			if err != nil {
				t.Fatal(err)
			}
			got := v.decryptCells(t, res.Columns[0], false)
			sort.Strings(got)
			var want []string
			for _, m := range model {
				if m >= lo && m <= hi {
					want = append(want, m)
				}
			}
			sort.Strings(want)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d op %d kind %v query [%s,%s]:\ngot  %v\nwant %v",
					trial, op, kind, lo, hi, got, want)
			}
		}
	}
}

func TestResultCellsAreCiphertexts(t *testing.T) {
	// The untrusted engine must return ciphertexts, never plaintext.
	v := newEnv(t)
	fname, _ := v.standardTable(t, dict.ED1, dict.ED1)
	res, err := v.db.Select(context.Background(), engine.Query{
		Table:   "t1",
		Filters: []engine.Filter{v.filter(t, "t1", fname, search.Eq([]byte("Hans")))},
		Project: []string{"fname"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range res.Columns[0].Cells {
		if bytes.Contains(cell, []byte("Hans")) {
			t.Fatal("result cell contains plaintext")
		}
		if len(cell) < pae.Overhead {
			t.Fatal("result cell shorter than PAE overhead")
		}
	}
}
