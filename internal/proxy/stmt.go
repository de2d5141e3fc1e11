package proxy

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/sqlparse"
)

// ErrStmtClosed is returned by executions of a closed prepared statement.
var ErrStmtClosed = errors.New("proxy: prepared statement closed")

// Stmt is a prepared statement: the SQL is parsed once, the table's schema
// is resolved once (one round trip against a remote provider), the statement
// is validated against it, and the per-column ciphers are derived up front.
// Each Exec/Query binds that execution's arguments into a copy of the parsed
// template and encrypts them with fresh IVs — repeated executions skip
// parsing and schema resolution entirely, which is the per-query crypto and
// planning work the paper's proxy re-pays on every call.
//
// A Stmt is safe for concurrent use. A prepared SELECT is planned against
// the proxy's schema cache, so it follows DDL as an ad-hoc SELECT does. A
// prepared write is planned against the schema resolved at Prepare time and
// sends its digest; after DDL that changes the table, the provider refuses
// it, and the write is planned again against the new schema, which the
// statement keeps (Proxy.planWrite).
type Stmt struct {
	p        *Proxy
	template sqlparse.Statement
	nparams  int

	// schema is a prepared write's schema, resolved at Prepare time and
	// replaced when the provider refuses it; nil for a SELECT and for
	// statements without a table.
	schema atomic.Pointer[tableSchema]

	closed atomic.Bool
}

// Prepare parses one SQL statement into a reusable prepared statement. The
// statement may contain '?' placeholders in any value position; executions
// supply the arguments. Statement-shape errors (bad syntax, unknown table,
// unknown columns) surface here rather than at execution time.
func (p *Proxy) Prepare(ctx context.Context, sql string) (*Stmt, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	s := &Stmt{p: p, template: st, nparams: sqlparse.NumParams(st)}
	if table, ok := stmtTable(st); ok {
		ts, err := p.fetchSchema(table)
		if err != nil {
			return nil, err
		}
		if err := p.validateStmt(st, ts.Schema); err != nil {
			return nil, err
		}
		if _, isSelect := st.(*sqlparse.Select); !isSelect {
			s.schema.Store(&ts)
		}
		// Derive every encrypted column's cipher now so executions only
		// encrypt.
		for _, def := range ts.Columns {
			if def.Plain {
				continue
			}
			if _, err := p.cipher(table, def.Name); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// stmtTable names the table a statement resolves its schema against; DDL and
// merge statements need none (false).
func stmtTable(st sqlparse.Statement) (string, bool) {
	switch s := st.(type) {
	case *sqlparse.Select:
		return s.Table, true
	case *sqlparse.Insert:
		return s.Table, true
	case *sqlparse.Update:
		return s.Table, true
	case *sqlparse.Delete:
		return s.Table, true
	default:
		return "", false
	}
}

// validateStmt checks a statement's column references against the schema so
// a prepared statement fails fast at Prepare time.
func (p *Proxy) validateStmt(st sqlparse.Statement, schema engine.Schema) error {
	checkCol := func(name string) error {
		if _, ok := schema.Column(name); !ok {
			return fmt.Errorf("%w: %q", engine.ErrNoSuchColumn, name)
		}
		return nil
	}
	checkWhere := func(where []sqlparse.Predicate) error {
		for _, pred := range where {
			if err := checkCol(pred.Column); err != nil {
				return err
			}
		}
		return nil
	}
	switch s := st.(type) {
	case *sqlparse.Select:
		for _, c := range s.Columns {
			if err := checkCol(c); err != nil {
				return err
			}
		}
		for _, a := range s.Aggregates {
			if err := checkCol(a.Column); err != nil {
				return err
			}
		}
		if s.OrderBy != "" {
			if err := checkCol(s.OrderBy); err != nil {
				return err
			}
		}
		return checkWhere(s.Where)
	case *sqlparse.Insert:
		for _, c := range s.Columns {
			if err := checkCol(c); err != nil {
				return err
			}
		}
		cols := len(s.Columns)
		if cols == 0 {
			cols = len(schema.Columns)
		}
		if cols != len(s.Values) {
			return fmt.Errorf("proxy: INSERT has %d columns but %d values", cols, len(s.Values))
		}
		return nil
	case *sqlparse.Update:
		for _, a := range s.Set {
			if err := checkCol(a.Column); err != nil {
				return err
			}
		}
		return checkWhere(s.Where)
	case *sqlparse.Delete:
		return checkWhere(s.Where)
	default:
		return nil
	}
}

// NumParams returns the number of '?' placeholders the statement binds.
func (s *Stmt) NumParams() int { return s.nparams }

// bind renders args into a bound copy of the template.
func (s *Stmt) bind(args []any) (sqlparse.Statement, error) {
	if s.closed.Load() {
		return nil, ErrStmtClosed
	}
	vals, err := bindArgs(args)
	if err != nil {
		return nil, err
	}
	return sqlparse.Bind(s.template, vals)
}

// Exec runs the prepared statement with the given arguments, returning a
// materialized result.
func (s *Stmt) Exec(ctx context.Context, args ...any) (*Result, error) {
	st, err := s.bind(args)
	if err != nil {
		return nil, err
	}
	if s.schema.Load() == nil {
		return s.p.execute(ctx, st, nil)
	}
	return s.p.execute(ctx, st, &s.schema)
}

// Query runs a prepared SELECT with the given arguments, returning a
// streaming cursor.
func (s *Stmt) Query(ctx context.Context, args ...any) (*Rows, error) {
	st, err := s.bind(args)
	if err != nil {
		return nil, err
	}
	return s.p.queryStmt(ctx, st)
}

// Close releases the prepared statement. Closing is idempotent; executions
// after Close fail with ErrStmtClosed.
func (s *Stmt) Close() error {
	s.closed.Store(true)
	return nil
}
