// Package proxy implements EncDBDB's trusted proxy (paper §3.1, §4.2 steps
// 5 and 14): the component on the data owner's side that holds the master
// key SK_DB, rewrites application SQL into encrypted range queries, and
// decrypts results.
//
// Every WHERE predicate — equality, inequality, one- or two-sided range —
// is converted into one uniform, closed, two-sided range per column with
// -infinity / +infinity sentinels where a bound is absent, and the bounds
// are encrypted with PAE under fresh IVs. The untrusted provider therefore
// can distinguish neither the query type nor repeated queries.
package proxy

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/pae"
	"github.com/encdbdb/encdbdb/internal/search"
	"github.com/encdbdb/encdbdb/internal/sqlparse"
)

// Executor is the provider-side surface the proxy drives. *engine.DB
// implements it for embedded deployments; the wire client and pool implement
// it for remote ones. Data-plane operations take a context that is honored
// end-to-end: the embedded engine checks it between scan chunks, and the
// wire client relays cancellation to the server. Metadata and DDL operations
// (Schema, CreateTable, DropTable) are quick and stay context-free.
type Executor interface {
	Schema(table string) (engine.Schema, error)
	CreateTable(s engine.Schema) error
	DropTable(name string) error
	Select(ctx context.Context, q engine.Query) (*engine.Result, error)
	Insert(ctx context.Context, table string, row engine.Row) error
	// InsertBatch inserts many rows into one table in a single call: one
	// round trip for remote executors, one table write-lock acquisition for
	// the embedded engine.
	InsertBatch(ctx context.Context, table string, rows []engine.Row) error
	Delete(ctx context.Context, table string, filters []engine.Filter) (int, error)
	Update(ctx context.Context, table string, filters []engine.Filter, set engine.Row) (int, error)
	Merge(ctx context.Context, table string) error
	// MergeAsync starts a background merge and returns immediately; started
	// is false when a merge is already in flight. MergeStatus reports the
	// table's delta/merge lifecycle so clients can observe the background
	// work they triggered.
	MergeAsync(ctx context.Context, table string) (started bool, err error)
	MergeStatus(ctx context.Context, table string) (engine.MergeInfo, error)
}

// StreamExecutor is the Executor surface that delivers a Select's result in
// chunks instead of materializing it: the embedded engine renders lazily from
// a pinned version, the wire client receives chunked result frames. Every
// production executor implements it. It stays optional only until the traced
// pass of benchmark/ stops replaying statements against its canned provider,
// which answers just Schema and Select; OpenStream serves such an executor
// with one Select as a single chunk.
type StreamExecutor interface {
	SelectStream(ctx context.Context, q engine.Query) (engine.ResultStream, error)
}

// Statically ensure the embedded engine satisfies the executor surface and
// the streaming fast path.
var (
	_ Executor       = (*engine.DB)(nil)
	_ StreamExecutor = (*engine.DB)(nil)
)

// ResultKind tells callers how to interpret a Result.
type ResultKind int

// Result kinds.
const (
	// KindRows carries decrypted result rows.
	KindRows ResultKind = iota + 1
	// KindCount carries a COUNT(*) result.
	KindCount
	// KindAffected carries the row count of a write statement.
	KindAffected
	// KindOK carries no payload (DDL statements).
	KindOK
)

// Result is a decrypted, application-facing query result.
type Result struct {
	Kind     ResultKind
	Columns  []string
	Rows     [][]string
	Count    int
	Affected int
}

// Proxy is the trusted query gateway.
//
// Statements are parameterizable: every value position may be a '?'
// placeholder bound at execution time from the args of Execute, Query, or a
// prepared statement's Exec/Query. Binding happens on the trusted side —
// arguments are encrypted exactly like inline literals, so the provider's
// view is identical either way.
type Proxy struct {
	master pae.Key
	exec   Executor

	// ciphers caches derived per-column ciphers (keyed table+NUL+column) so
	// repeated statements skip the HKDF derivation — shared by ad-hoc and
	// prepared execution.
	cmu     sync.RWMutex
	ciphers map[string]*pae.Cipher
}

// New creates a proxy holding the data owner's master key.
func New(master pae.Key, exec Executor) (*Proxy, error) {
	if len(master) != pae.KeySize {
		return nil, pae.ErrBadKeySize
	}
	if exec == nil {
		return nil, errors.New("proxy: executor must not be nil")
	}
	return &Proxy{master: master, exec: exec, ciphers: make(map[string]*pae.Cipher)}, nil
}

// bindArgs renders Query/Exec arguments to the string values the engine
// stores. Only types with one obvious encoding are accepted.
func bindArgs(args []any) ([]string, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := make([]string, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case string:
			out[i] = v
		case []byte:
			out[i] = string(v)
		case int:
			out[i] = strconv.Itoa(v)
		case int64:
			out[i] = strconv.FormatInt(v, 10)
		case uint64:
			out[i] = strconv.FormatUint(v, 10)
		case fmt.Stringer:
			out[i] = v.String()
		default:
			return nil, fmt.Errorf("proxy: unsupported argument %d type %T", i+1, a)
		}
	}
	return out, nil
}

// parseAndBind parses one statement and binds its placeholders.
func parseAndBind(sql string, args []any) (sqlparse.Statement, error) {
	st, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	vals, err := bindArgs(args)
	if err != nil {
		return nil, err
	}
	return sqlparse.Bind(st, vals)
}

// Execute parses and runs one SQL statement, returning a decrypted,
// materialized result. '?' placeholders in the statement are bound from args
// in order. For large SELECT results prefer Query, which streams.
func (p *Proxy) Execute(ctx context.Context, sql string, args ...any) (*Result, error) {
	st, err := parseAndBind(sql, args)
	if err != nil {
		return nil, err
	}
	return p.execute(ctx, st, nil)
}

// ExecBatch runs several statements in order, returning one result per
// statement. Runs of consecutive INSERTs into the same table ship through
// one Executor.InsertBatch call, so bulk loads cost one round trip per run
// instead of one per row. On error, the returned slice holds the results of
// the statements completed before the failure.
func (p *Proxy) ExecBatch(ctx context.Context, sqls []string) ([]*Result, error) {
	stmts := make([]sqlparse.Statement, len(sqls))
	for i, sql := range sqls {
		st, err := sqlparse.Parse(sql)
		if err != nil {
			return nil, fmt.Errorf("proxy: statement %d: %w", i, err)
		}
		stmts[i] = st
	}
	return p.execStmts(ctx, stmts)
}

// ExecScript splits a semicolon-separated script, parses it as a whole —
// syntax errors name the failing statement and its absolute byte offset in
// the script — and executes it like ExecBatch.
func (p *Proxy) ExecScript(ctx context.Context, script string) ([]*Result, error) {
	stmts, err := sqlparse.ParseScript(script)
	if err != nil {
		return nil, err
	}
	return p.execStmts(ctx, stmts)
}

// execStmts executes parsed statements in order, batching runs of INSERTs
// into the same table.
func (p *Proxy) execStmts(ctx context.Context, stmts []sqlparse.Statement) ([]*Result, error) {
	results := make([]*Result, 0, len(stmts))
	for i := 0; i < len(stmts); {
		ins, ok := stmts[i].(*sqlparse.Insert)
		if !ok {
			res, err := p.execute(ctx, stmts[i], nil)
			if err != nil {
				return results, fmt.Errorf("proxy: statement %d: %w", i, err)
			}
			results = append(results, res)
			i++
			continue
		}
		j := i + 1
		for j < len(stmts) {
			next, ok := stmts[j].(*sqlparse.Insert)
			if !ok || next.Table != ins.Table {
				break
			}
			j++
		}
		schema, err := p.exec.Schema(ins.Table)
		if err != nil {
			return results, fmt.Errorf("proxy: statement %d: %w", i, err)
		}
		rows := make([]engine.Row, 0, j-i)
		for k := i; k < j; k++ {
			// The batch bypasses execute(), so it must re-apply its
			// unbound-placeholder guard: a '?' must never silently insert
			// its zero value.
			if n := sqlparse.NumParams(stmts[k]); n > 0 {
				return results, fmt.Errorf("proxy: statement %d: statement has %d unbound placeholders", k, n)
			}
			row, err := p.insertRow(schema, stmts[k].(*sqlparse.Insert))
			if err != nil {
				return results, fmt.Errorf("proxy: statement %d: %w", k, err)
			}
			rows = append(rows, row)
		}
		if err := p.exec.InsertBatch(ctx, ins.Table, rows); err != nil {
			return results, err
		}
		for k := i; k < j; k++ {
			results = append(results, &Result{Kind: KindAffected, Affected: 1})
		}
		i = j
	}
	return results, nil
}

// execute runs one parsed, fully bound statement. schema, when non-nil, is a
// prepared statement's cached resolution and skips the per-call lookup.
func (p *Proxy) execute(ctx context.Context, st sqlparse.Statement, schema *engine.Schema) (*Result, error) {
	if n := sqlparse.NumParams(st); n > 0 {
		return nil, fmt.Errorf("proxy: statement has %d unbound placeholders", n)
	}
	schemaFor := func(table string) (engine.Schema, error) {
		if schema != nil && schema.Table == table {
			return *schema, nil
		}
		return p.exec.Schema(table)
	}
	switch s := st.(type) {
	case *sqlparse.CreateTable:
		return p.createTable(s)
	case *sqlparse.Select:
		sc, err := schemaFor(s.Table)
		if err != nil {
			return nil, err
		}
		return p.selectStmt(ctx, s, sc)
	case *sqlparse.Insert:
		sc, err := schemaFor(s.Table)
		if err != nil {
			return nil, err
		}
		return p.insert(ctx, s, sc)
	case *sqlparse.Update:
		sc, err := schemaFor(s.Table)
		if err != nil {
			return nil, err
		}
		return p.update(ctx, s, sc)
	case *sqlparse.Delete:
		sc, err := schemaFor(s.Table)
		if err != nil {
			return nil, err
		}
		return p.delete(ctx, s, sc)
	case *sqlparse.DropTable:
		if err := p.exec.DropTable(s.Table); err != nil {
			return nil, err
		}
		return &Result{Kind: KindOK}, nil
	case *sqlparse.MergeTable:
		if s.Async {
			if _, err := p.exec.MergeAsync(ctx, s.Table); err != nil {
				return nil, err
			}
			return &Result{Kind: KindOK}, nil
		}
		if err := p.exec.Merge(ctx, s.Table); err != nil {
			return nil, err
		}
		return &Result{Kind: KindOK}, nil
	case *sqlparse.MergeStatus:
		info, err := p.exec.MergeStatus(ctx, s.Table)
		if err != nil {
			return nil, err
		}
		return mergeStatusResult(info), nil
	default:
		return nil, fmt.Errorf("proxy: unsupported statement %T", st)
	}
}

// mergeStatusResult renders a MergeInfo as a one-row result.
func mergeStatusResult(info engine.MergeInfo) *Result {
	return &Result{
		Kind: KindRows,
		Columns: []string{
			"generation", "merging", "main_rows", "delta_rows",
			"delta_bytes", "sealed_runs", "merges", "last_error",
		},
		Rows: [][]string{{
			strconv.FormatUint(info.Generation, 10),
			strconv.FormatBool(info.Merging),
			strconv.Itoa(info.MainRows),
			strconv.Itoa(info.DeltaRows),
			strconv.Itoa(info.DeltaBytes),
			strconv.Itoa(info.SealedRuns),
			strconv.FormatUint(info.Merges, 10),
			info.LastError,
		}},
		Count: 1,
	}
}

func (p *Proxy) createTable(s *sqlparse.CreateTable) (*Result, error) {
	schema := engine.Schema{Table: s.Table}
	for _, c := range s.Columns {
		schema.Columns = append(schema.Columns, engine.ColumnDef{
			Name:   c.Name,
			Kind:   c.Kind,
			MaxLen: c.MaxLen,
			BSMax:  c.BSMax,
			Plain:  c.Plain,
		})
	}
	if err := p.exec.CreateTable(schema); err != nil {
		return nil, err
	}
	return &Result{Kind: KindOK}, nil
}

// plan is a SELECT as the provider runs it, plus what the trusted side does
// with the reply.
type plan struct {
	q engine.Query
	// d decodes q's projection (every schema column for SELECT *); nil for
	// COUNT(*), whose answer is one number.
	d *decoder
	// key is the ORDER BY column's index in the projection, -1 without an
	// ORDER BY. strip says the column was projected only to sort by and is
	// dropped from the result; it is then the projection's last column.
	key   int
	strip bool
}

// selectPlan converts a parsed SELECT into its plan.
func (p *Proxy) selectPlan(s *sqlparse.Select, schema engine.Schema) (plan, error) {
	filters, err := p.Filters(schema, s.Where)
	if err != nil {
		return plan{}, err
	}
	pl := plan{q: engine.Query{Table: s.Table, Filters: filters, CountOnly: s.Count}, key: -1}
	if s.Count {
		return pl, nil
	}
	ordered := s.OrderBy != "" && len(s.Aggregates) == 0
	switch {
	case len(s.Aggregates) > 0:
		pl.q.Project = aggregateColumns(s.Aggregates)
	case !s.Star:
		pl.q.Project = s.Columns
	}
	if ordered && !s.Star && !slices.Contains(pl.q.Project, s.OrderBy) {
		pl.q.Project = append(slices.Clip(pl.q.Project), s.OrderBy)
		pl.strip = true
	}
	// LIMIT pushes down to the provider only when nothing on the trusted
	// side reorders or aggregates the result first — the first n rows in
	// RecordID order are then exactly the n rows the client would keep.
	if s.Limit > 0 && len(s.Aggregates) == 0 && s.OrderBy == "" {
		pl.q.Limit = s.Limit
	}
	project := pl.q.Project
	if len(project) == 0 {
		for _, def := range schema.Columns {
			project = append(project, def.Name)
		}
	}
	if pl.d, err = p.newDecoder(schema, project); err != nil {
		return plan{}, err
	}
	if ordered {
		if pl.key = slices.Index(project, s.OrderBy); pl.key < 0 {
			return plan{}, fmt.Errorf("%w: %q", engine.ErrNoSuchColumn, s.OrderBy)
		}
	}
	return pl, nil
}

// selectStmt runs a SELECT to its decrypted result. ORDER BY and aggregates
// fold the result streams; a plain SELECT and COUNT(*) keep one Select — one
// reply frame for a point lookup, one parallel scatter over a fleet.
func (p *Proxy) selectStmt(ctx context.Context, s *sqlparse.Select, schema engine.Schema) (*Result, error) {
	pl, err := p.selectPlan(s, schema)
	if err != nil {
		return nil, err
	}
	if len(s.Aggregates) > 0 {
		return aggregates(p.streams(ctx, pl.q), pl.d, s.Aggregates)
	}
	if pl.key < 0 {
		res, err := p.exec.Select(ctx, pl.q)
		if err != nil {
			return nil, err
		}
		if s.Count {
			return &Result{Kind: KindCount, Count: res.Count}, nil
		}
		rows, err := pl.d.decodeChunk(res)
		if err != nil {
			return nil, err
		}
		if s.Limit >= 0 && len(rows) > s.Limit { // LIMIT 0 is not pushed down
			rows = rows[:s.Limit]
		}
		return &Result{Kind: KindRows, Columns: slices.Clone(pl.d.project), Rows: rows, Count: len(rows)}, nil
	}
	rows, err := orderBy(p.streams(ctx, pl.q), pl.d, pl.key, s.OrderDesc, s.Limit)
	if err != nil {
		return nil, err
	}
	cols := pl.d.project
	if pl.strip {
		cols = cols[:pl.key]
		for i, row := range rows {
			rows[i] = row[:pl.key]
		}
	}
	return &Result{Kind: KindRows, Columns: slices.Clone(cols), Rows: rows, Count: len(rows)}, nil
}

// aggregateColumns lists the distinct columns the aggregates reference.
func aggregateColumns(aggs []sqlparse.Aggregate) []string {
	var cols []string
	for _, a := range aggs {
		if !slices.Contains(cols, a.Column) {
			cols = append(cols, a.Column)
		}
	}
	return cols
}

func (p *Proxy) insert(ctx context.Context, s *sqlparse.Insert, schema engine.Schema) (*Result, error) {
	row, err := p.insertRow(schema, s)
	if err != nil {
		return nil, err
	}
	if err := p.exec.Insert(ctx, s.Table, row); err != nil {
		return nil, err
	}
	return &Result{Kind: KindAffected, Affected: 1}, nil
}

// insertRow validates and encrypts one INSERT statement's values into an
// engine row.
func (p *Proxy) insertRow(schema engine.Schema, s *sqlparse.Insert) (engine.Row, error) {
	cols := s.Columns
	if len(cols) == 0 {
		for _, def := range schema.Columns {
			cols = append(cols, def.Name)
		}
	}
	if len(cols) != len(s.Values) {
		return nil, fmt.Errorf("proxy: INSERT has %d columns but %d values", len(cols), len(s.Values))
	}
	row := make(engine.Row, len(cols))
	for i, name := range cols {
		def, ok := schema.Column(name)
		if !ok {
			return nil, fmt.Errorf("%w: %q", engine.ErrNoSuchColumn, name)
		}
		v := []byte(s.Values[i].S)
		if err := validateValue(def, v); err != nil {
			return nil, err
		}
		cell, err := p.encryptCell(s.Table, def, v)
		if err != nil {
			return nil, err
		}
		row[name] = cell
	}
	return row, nil
}

func (p *Proxy) update(ctx context.Context, s *sqlparse.Update, schema engine.Schema) (*Result, error) {
	filters, err := p.Filters(schema, s.Where)
	if err != nil {
		return nil, err
	}
	set := make(engine.Row, len(s.Set))
	for _, a := range s.Set {
		def, ok := schema.Column(a.Column)
		if !ok {
			return nil, fmt.Errorf("%w: %q", engine.ErrNoSuchColumn, a.Column)
		}
		v := []byte(a.Value.S)
		if err := validateValue(def, v); err != nil {
			return nil, err
		}
		cell, err := p.encryptCell(s.Table, def, v)
		if err != nil {
			return nil, err
		}
		set[a.Column] = cell
	}
	n, err := p.exec.Update(ctx, s.Table, filters, set)
	if err != nil {
		return nil, err
	}
	return &Result{Kind: KindAffected, Affected: n}, nil
}

func (p *Proxy) delete(ctx context.Context, s *sqlparse.Delete, schema engine.Schema) (*Result, error) {
	filters, err := p.Filters(schema, s.Where)
	if err != nil {
		return nil, err
	}
	n, err := p.exec.Delete(ctx, s.Table, filters)
	if err != nil {
		return nil, err
	}
	return &Result{Kind: KindAffected, Affected: n}, nil
}

// encryptCell encrypts one value for an encrypted column; plain columns pass
// through.
func (p *Proxy) encryptCell(table string, def engine.ColumnDef, v []byte) ([]byte, error) {
	if def.Plain {
		return v, nil
	}
	c, err := p.cipher(table, def.Name)
	if err != nil {
		return nil, err
	}
	return c.Encrypt(v)
}

// cipher returns the column's derived cipher, caching it so repeated
// statements (prepared or ad-hoc) pay the key derivation once.
func (p *Proxy) cipher(table, column string) (*pae.Cipher, error) {
	k := table + "\x00" + column
	p.cmu.RLock()
	c := p.ciphers[k]
	p.cmu.RUnlock()
	if c != nil {
		return c, nil
	}
	key, err := pae.Derive(p.master, table, column)
	if err != nil {
		return nil, err
	}
	c, err = pae.NewCipher(key)
	if err != nil {
		return nil, err
	}
	p.cmu.Lock()
	p.ciphers[k] = c
	p.cmu.Unlock()
	return c, nil
}

// validateValue enforces column value rules at the trusted side for friendly
// errors (the enclave re-validates).
func validateValue(def engine.ColumnDef, v []byte) error {
	if len(v) > def.MaxLen {
		return fmt.Errorf("proxy: value %q exceeds %s(%d)", v, def.Kind, def.MaxLen)
	}
	for _, b := range v {
		if b == 0 {
			return fmt.Errorf("proxy: value for %q contains NUL byte", def.Name)
		}
	}
	return nil
}

// Filters converts the conjunctive WHERE predicates into one encrypted
// filter per referenced column. Range/equality predicates on the same
// column are intersected into a single two-sided range (the paper's example
// rewrites `FName < 'Ella'` into `FName >= -inf AND FName < 'Ella'`;
// conversely two user bounds merge into one range); IN-lists become the
// union of per-member equality ranges, each intersected with the column's
// range constraints.
func (p *Proxy) Filters(schema engine.Schema, preds []sqlparse.Predicate) ([]engine.Filter, error) {
	type colState struct {
		def      engine.ColumnDef
		r        search.Range
		hasIn    bool
		inValues [][]byte
	}
	var order []string
	states := make(map[string]*colState)
	for _, pred := range preds {
		def, ok := schema.Column(pred.Column)
		if !ok {
			return nil, fmt.Errorf("%w: %q", engine.ErrNoSuchColumn, pred.Column)
		}
		cs, ok := states[pred.Column]
		if !ok {
			cs = &colState{def: def, r: fullRange(def)}
			states[pred.Column] = cs
			order = append(order, pred.Column)
		}
		if pred.Op == sqlparse.OpIn {
			members, err := inMembers(def, pred)
			if err != nil {
				return nil, err
			}
			if !cs.hasIn {
				cs.hasIn = true
				cs.inValues = members
			} else {
				cs.inValues = intersectValues(cs.inValues, members)
			}
			continue
		}
		pr, err := predicateRange(def, pred)
		if err != nil {
			return nil, err
		}
		cs.r = intersectRanges(cs.r, pr)
	}
	filters := make([]engine.Filter, 0, len(order))
	for _, name := range order {
		cs := states[name]
		ranges := []search.Range{cs.r}
		if cs.hasIn {
			ranges = ranges[:0]
			for _, v := range cs.inValues {
				r := intersectRanges(search.Eq(v), cs.r)
				if !r.Empty() {
					ranges = append(ranges, r)
				}
			}
			if len(ranges) == 0 {
				// Contradictory predicates: an explicitly empty range
				// keeps the provider's view uniform.
				ranges = []search.Range{{Start: []byte{0x01}, End: []byte{0x01}}}
			}
		}
		f, err := p.encryptFilter(schema.Table, cs.def, ranges)
		if err != nil {
			return nil, err
		}
		filters = append(filters, f)
	}
	return filters, nil
}

// inMembers validates and deduplicates an IN list.
func inMembers(def engine.ColumnDef, pred sqlparse.Predicate) ([][]byte, error) {
	seen := make(map[string]bool, len(pred.Values))
	var out [][]byte
	for _, m := range pred.Values {
		v := []byte(m.S)
		if err := validateValue(def, v); err != nil {
			return nil, err
		}
		if !seen[m.S] {
			seen[m.S] = true
			out = append(out, v)
		}
	}
	return out, nil
}

// intersectValues keeps the values present in both lists (conjunction of
// two IN predicates), preserving the first list's order.
func intersectValues(a, b [][]byte) [][]byte {
	inB := make(map[string]bool, len(b))
	for _, v := range b {
		inB[string(v)] = true
	}
	var out [][]byte
	for _, v := range a {
		if inB[string(v)] {
			out = append(out, v)
		}
	}
	return out
}

// fullRange is the column's [-inf, +inf] range: the empty string is the
// minimum NUL-free value, the all-0xFF string of the column width the
// maximum.
func fullRange(def engine.ColumnDef) search.Range {
	maxVal := make([]byte, def.MaxLen)
	for i := range maxVal {
		maxVal[i] = 0xFF
	}
	return search.Range{Start: nil, End: maxVal, StartIncl: true, EndIncl: true}
}

// predicateRange converts one SQL predicate into a range.
func predicateRange(def engine.ColumnDef, pred sqlparse.Predicate) (search.Range, error) {
	v := []byte(pred.Value.S)
	if err := validateValue(def, v); err != nil {
		return search.Range{}, err
	}
	full := fullRange(def)
	switch pred.Op {
	case sqlparse.OpEq:
		return search.Eq(v), nil
	case sqlparse.OpLt:
		return search.Range{Start: full.Start, End: v, StartIncl: true}, nil
	case sqlparse.OpLe:
		return search.Range{Start: full.Start, End: v, StartIncl: true, EndIncl: true}, nil
	case sqlparse.OpGt:
		return search.Range{Start: v, End: full.End, EndIncl: true}, nil
	case sqlparse.OpGe:
		return search.Range{Start: v, End: full.End, StartIncl: true, EndIncl: true}, nil
	case sqlparse.OpBetween:
		v2 := []byte(pred.Value2.S)
		if err := validateValue(def, v2); err != nil {
			return search.Range{}, err
		}
		return search.Closed(v, v2), nil
	default:
		return search.Range{}, fmt.Errorf("proxy: unsupported operator %v", pred.Op)
	}
}

// intersectRanges computes the conjunction of two ranges on one column.
func intersectRanges(a, b search.Range) search.Range {
	out := a
	switch c := bytes.Compare(a.Start, b.Start); {
	case c < 0:
		out.Start, out.StartIncl = b.Start, b.StartIncl
	case c == 0:
		out.StartIncl = a.StartIncl && b.StartIncl
	}
	switch c := bytes.Compare(a.End, b.End); {
	case c > 0:
		out.End, out.EndIncl = b.End, b.EndIncl
	case c == 0:
		out.EndIncl = a.EndIncl && b.EndIncl
	}
	return out
}

// encryptFilter encrypts the final per-column range set (plain columns keep
// plaintext bounds).
func (p *Proxy) encryptFilter(table string, def engine.ColumnDef, ranges []search.Range) (engine.Filter, error) {
	f := engine.Filter{Column: def.Name, Ranges: make([]enclave.EncRange, 0, len(ranges))}
	var c *pae.Cipher
	if !def.Plain {
		var err error
		if c, err = p.cipher(table, def.Name); err != nil {
			return engine.Filter{}, err
		}
	}
	for _, r := range ranges {
		enc := enclave.EncRange{StartIncl: r.StartIncl, EndIncl: r.EndIncl}
		if def.Plain {
			enc.Start, enc.End = r.Start, r.End
		} else {
			var err error
			if enc.Start, err = c.Encrypt(r.Start); err != nil {
				return engine.Filter{}, err
			}
			if enc.End, err = c.Encrypt(r.End); err != nil {
				return engine.Filter{}, err
			}
		}
		f.Ranges = append(f.Ranges, enc)
	}
	return f, nil
}
