package engine_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/search"
)

// modelRow is one row of the plaintext model, indexed by RecordID.
type modelRow struct {
	a, b  string
	valid bool
}

// modelFilter is the plaintext twin of one engine filter: the OR of its
// ranges over one column.
type modelFilter struct {
	col    string
	ranges []search.Range
}

// rowModel is the plaintext twin of a two-column table: rows in RecordID
// order plus the engine's sealing policy, replayed so the test knows how
// many sealed runs and tail rows the table holds.
type rowModel struct {
	rows     []modelRow
	sealRows int
	sealed   int
	tail     int
}

// appendRows mirrors one committed write statement: its rows join the tail,
// which seals a run of the threshold's rows while it holds that many.
func (m *rowModel) appendRows(rows ...modelRow) {
	m.rows = append(m.rows, rows...)
	m.tail += len(rows)
	for m.tail >= m.sealRows {
		m.sealed++
		m.tail -= m.sealRows
	}
}

func (r modelRow) matches(filters []modelFilter) bool {
	if !r.valid {
		return false
	}
	for _, f := range filters {
		v := r.a
		if f.col == "b" {
			v = r.b
		}
		if !slices.ContainsFunc(f.ranges, func(q search.Range) bool { return q.Contains([]byte(v)) }) {
			return false
		}
	}
	return true
}

// matching returns the RecordIDs of the valid rows satisfying every filter.
func (m *rowModel) matching(filters []modelFilter) []uint32 {
	var out []uint32
	for rid, r := range m.rows {
		if r.matches(filters) {
			out = append(out, uint32(rid))
		}
	}
	return out
}

// TestSelectMatchesModel runs one mutation stream — bulk-loaded main stores,
// inserts past the seal threshold, deletes and updates touching main and
// delta rows, and a top-up that leaves a one-row tail — against engines at
// workers 1, 3 and the default, and against a plaintext row model. Every
// query must return exactly the model's valid rows whose values satisfy
// every filter's search.Range.Contains.
//
// The kind pairs cover all nine dictionaries, so the range and membership
// kernels both run on the main store, and the column data is shaped so the
// splits use all three block encodings (clustered values → RLE on sorted
// dictionaries, random values → packed/FoR).
func TestSelectMatchesModel(t *testing.T) {
	const sealRows = 64
	base := newEnvWith(t, engine.WithSealThreshold(sealRows))
	envs := map[string]*env{"default": base}
	for _, w := range []int{1, 3} {
		envs[fmt.Sprintf("%d-worker", w)] = &env{
			db:     engine.New(base.db.Enclave(), engine.WithSealThreshold(sealRows), engine.WithWorkers(w)),
			master: base.master,
		}
	}
	order := []string{"default", "1-worker", "3-worker"}
	ctx := context.Background()

	rng := rand.New(rand.NewSource(41))
	kindPairs := [][2]dict.Kind{
		{dict.ED1, dict.ED9},
		{dict.ED5, dict.ED2},
		{dict.ED3, dict.ED7},
		{dict.ED4, dict.ED8},
		{dict.ED6, dict.ED1},
	}
	for pi, kinds := range kindPairs {
		t.Run(fmt.Sprintf("%v+%v", kinds[0], kinds[1]), func(t *testing.T) {
			table := fmt.Sprintf("m%d", pi)
			defA := engine.ColumnDef{Name: "a", Kind: kinds[0], MaxLen: 8, BSMax: 3}
			defB := engine.ColumnDef{Name: "b", Kind: kinds[1], MaxLen: 8, BSMax: 3}
			schema := engine.Schema{Table: table, Columns: []engine.ColumnDef{defA, defB}}
			model := &rowModel{sealRows: sealRows}

			// Column a: random draws (packed/FoR blocks); column b: clustered
			// runs (RLE blocks on sorted dictionaries).
			var colA, colB [][]byte
			for i := 0; i < 400; i++ {
				r := modelRow{a: fmt.Sprintf("v%03d", rng.Intn(30)), b: fmt.Sprintf("c%03d", i/16), valid: true}
				model.rows = append(model.rows, r)
				colA = append(colA, []byte(r.a))
				colB = append(colB, []byte(r.b))
			}
			for _, name := range order {
				v := envs[name]
				if err := v.db.CreateTable(schema); err != nil {
					t.Fatal(err)
				}
				v.loadColumn(t, table, defA, colA)
				v.loadColumn(t, table, defB, colB)
			}

			insert := func() {
				r := modelRow{a: fmt.Sprintf("v%03d", rng.Intn(30)), b: fmt.Sprintf("c%03d", rng.Intn(32)), valid: true}
				for _, name := range order {
					v := envs[name]
					row := engine.Row{
						"a": v.encryptValue(t, table, "a", r.a),
						"b": v.encryptValue(t, table, "b", r.b),
					}
					if err := v.db.InsertBatch(ctx, table, []engine.Row{row}); err != nil {
						t.Fatalf("%s insert: %v", name, err)
					}
				}
				model.appendRows(r)
			}
			// Three full runs plus a one-row tail.
			for i := 0; i < 3*sealRows+1; i++ {
				insert()
			}

			for i := 0; i < 6; i++ {
				victim := search.Eq([]byte(fmt.Sprintf("v%03d", rng.Intn(30))))
				mf := []modelFilter{{col: "a", ranges: []search.Range{victim}}}
				want := 0
				for rid, r := range model.rows {
					if r.matches(mf) {
						model.rows[rid].valid = false
						want++
					}
				}
				for _, name := range order {
					n, err := envs[name].db.Delete(ctx, table, []engine.Filter{base.filter(t, table, defA, victim)})
					if err != nil {
						t.Fatalf("%s delete: %v", name, err)
					}
					if n != want {
						t.Fatalf("%s deleted %d rows, model %d", name, n, want)
					}
				}
			}
			for i := 0; i < 3; i++ {
				target := search.Eq([]byte(fmt.Sprintf("c%03d", rng.Intn(25))))
				upd := fmt.Sprintf("v%03d", 200+i)
				var moved []modelRow
				for _, rid := range model.matching([]modelFilter{{col: "b", ranges: []search.Range{target}}}) {
					model.rows[rid].valid = false
					moved = append(moved, modelRow{a: upd, b: model.rows[rid].b, valid: true})
				}
				for _, name := range order {
					v := envs[name]
					set := engine.Row{"a": v.encryptValue(t, table, "a", upd)}
					n, err := v.db.Update(ctx, table, []engine.Filter{base.filter(t, table, defB, target)}, set)
					if err != nil {
						t.Fatalf("%s update: %v", name, err)
					}
					if n != len(moved) {
						t.Fatalf("%s updated %d rows, model %d", name, n, len(moved))
					}
				}
				if len(moved) > 0 {
					model.appendRows(moved...)
				}
			}
			// Top up with single inserts until exactly one row sits in the tail.
			for model.tail != 1 {
				insert()
			}
			for _, name := range order {
				runs, err := envs[name].db.SealedRuns(table)
				if err != nil {
					t.Fatal(err)
				}
				if runs != model.sealed || runs < 3 {
					t.Fatalf("%s: %d sealed runs, model %d (want >= 3)", name, runs, model.sealed)
				}
			}

			type query struct {
				filters []engine.Filter
				model   []modelFilter
			}
			randRange := func(def engine.ColumnDef, prefix string, span int) query {
				lo := fmt.Sprintf("%s%03d", prefix, rng.Intn(span))
				hi := fmt.Sprintf("%s%03d", prefix, rng.Intn(span))
				if lo > hi {
					lo, hi = hi, lo
				}
				q := search.Range{Start: []byte(lo), End: []byte(hi), StartIncl: rng.Intn(2) == 0, EndIncl: rng.Intn(2) == 0}
				return query{
					filters: []engine.Filter{base.filter(t, table, def, q)},
					model:   []modelFilter{{col: def.Name, ranges: []search.Range{q}}},
				}
			}
			eq := func(def engine.ColumnDef, vals ...string) query {
				f := engine.Filter{Column: def.Name}
				mf := modelFilter{col: def.Name}
				for _, val := range vals {
					q := search.Eq([]byte(val))
					f.Ranges = append(f.Ranges, base.filter(t, table, def, q).Ranges...)
					mf.ranges = append(mf.ranges, q)
				}
				return query{filters: []engine.Filter{f}, model: []modelFilter{mf}}
			}
			and := func(qs ...query) query {
				var out query
				for _, q := range qs {
					out.filters = append(out.filters, q.filters...)
					out.model = append(out.model, q.model...)
				}
				return out
			}
			queries := []query{
				{},                                       // no filters: every valid row
				eq(defA, "v001", "v017", "v200", "v029"), // IN-list
				eq(defA, "zzz"),                          // empty at the dictionary level
				and(randRange(defA, "v", 35), eq(defB, "zzz")),
				and(randRange(defA, "v", 35), randRange(defB, "c", 35), randRange(defA, "v", 35)),
			}
			for trial := 0; trial < 8; trial++ {
				qa, qb := randRange(defA, "v", 35), randRange(defB, "c", 35)
				queries = append(queries, qa, qb, and(qa, qb))
			}

			for qi, q := range queries {
				want := model.matching(q.model)
				for _, name := range order {
					got, err := envs[name].db.Select(ctx, engine.Query{Table: table, Filters: q.filters})
					if err != nil {
						t.Fatalf("query %d %s select: %v", qi, name, err)
					}
					if !slices.Equal(got.RecordIDs, want) {
						t.Fatalf("query %d %s: got %v, model %v", qi, name, got.RecordIDs, want)
					}
				}
			}
		})
	}
}
