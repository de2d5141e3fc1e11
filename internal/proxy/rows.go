package proxy

import (
	"context"
	"errors"
	"fmt"
	"io"
	"iter"
	"slices"
	"strconv"

	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/sqlparse"
)

// ErrRowsClosed is returned by Scan after Close or after Next returned
// false.
var ErrRowsClosed = errors.New("proxy: rows closed")

// Rows is a streaming cursor over a SELECT result. Rows are decrypted
// incrementally as they are consumed, chunk by chunk, instead of
// materializing the whole result: against the embedded engine the rows are
// rendered lazily from a pinned version, against a remote provider they
// arrive as chunked result frames.
//
// Usage follows database/sql:
//
//	rows, err := sess.Query(ctx, "SELECT a, b FROM t WHERE a >= ?", lo)
//	defer rows.Close()
//	for rows.Next() {
//	    var a, b string
//	    if err := rows.Scan(&a, &b); err != nil { ... }
//	}
//	if err := rows.Err(); err != nil { ... }
//
// Cancelling the query's context mid-iteration stops the underlying scan
// (locally and over the wire) and surfaces context.Canceled through Err.
type Rows struct {
	cols []string
	d    *decoder

	// opens are the result streams not opened yet and stream the one being
	// read. Streams are read one after another, so a satisfied LIMIT never
	// opens the rest — over a fleet, it never contacts the remaining shards.
	opens  []opener
	stream engine.ResultStream

	// buf holds the rows not served yet: the current chunk's, decoded as a
	// whole when it arrived — per the engine.ResultStream contract its cells
	// are valid only until the next stream.Next call, and over a v3 wire
	// connection they alias a pooled frame buffer that recycles — or a
	// materialized result's.
	buf [][]string

	// limit is the number of rows still allowed out (-1 = unlimited); the
	// streaming path applies LIMIT client-side by stopping early.
	limit int

	cur    []string
	err    error
	closed bool
}

// Columns returns the result column names in projection order.
func (r *Rows) Columns() []string { return append([]string(nil), r.cols...) }

// Next advances to the next row, fetching and decrypting the next chunk when
// the current one is exhausted. It returns false at the end of the result or
// on error — check Err afterwards.
func (r *Rows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	for len(r.buf) == 0 && r.limit != 0 {
		if err := r.fill(); err != nil {
			if err != io.EOF {
				r.err = err
			}
			break
		}
	}
	if len(r.buf) == 0 || r.limit == 0 {
		r.close()
		return false
	}
	r.cur, r.buf = r.buf[0], r.buf[1:]
	if r.limit > 0 {
		r.limit--
	}
	return true
}

// fill takes one step through the streams: it opens the next stream, decodes
// the current stream's next chunk into buf, or closes an exhausted stream.
// It returns io.EOF once every stream is done.
func (r *Rows) fill() error {
	if r.stream == nil {
		if len(r.opens) == 0 {
			return io.EOF
		}
		st, err := r.opens[0]()
		r.opens = r.opens[1:]
		if err != nil {
			return err
		}
		r.stream = st
		return nil
	}
	chunk, err := r.stream.Next()
	if err == io.EOF {
		r.stream.Close()
		r.stream = nil
		return nil
	}
	if err != nil {
		return err
	}
	r.buf, err = r.d.decodeChunk(chunk)
	return err
}

// Row returns the current row (valid after a true Next). The slice is owned
// by the caller until the next Next call.
func (r *Rows) Row() []string { return r.cur }

// Scan copies the current row's values into dest pointers, one per column.
func (r *Rows) Scan(dest ...*string) error {
	if r.cur == nil {
		if r.err != nil {
			return r.err
		}
		return ErrRowsClosed
	}
	if len(dest) != len(r.cur) {
		return fmt.Errorf("proxy: Scan got %d destinations for %d columns", len(dest), len(r.cur))
	}
	for i, d := range dest {
		if d == nil {
			return fmt.Errorf("proxy: Scan destination %d is nil", i)
		}
		*d = r.cur[i]
	}
	return nil
}

// Err returns the error that terminated iteration, if any. Successful
// exhaustion and Close leave it nil.
func (r *Rows) Err() error { return r.err }

// Close releases the cursor. Against a remote provider an unfinished stream
// is cancelled server-side; the connection stays usable. Close is idempotent
// and implied by exhausting Next.
func (r *Rows) Close() error {
	r.close()
	return nil
}

func (r *Rows) close() {
	if r.closed {
		return
	}
	r.closed = true
	r.cur, r.buf, r.opens = nil, nil, nil
	if r.stream != nil {
		r.stream.Close()
		r.stream = nil
	}
}

// Iter adapts the cursor to a Go 1.23 range-over-func sequence:
//
//	for row := range rows.Iter() { ... }
//	if err := rows.Err(); err != nil { ... }
//
// The cursor closes itself when the loop ends (normally or via break); check
// Err afterwards as with manual Next iteration.
func (r *Rows) Iter() iter.Seq[[]string] {
	return func(yield func([]string) bool) {
		defer r.Close()
		for r.Next() {
			if !yield(r.cur) {
				return
			}
		}
	}
}

// All drains the cursor into a materialized slice and closes it.
func (r *Rows) All() ([][]string, error) {
	defer r.Close()
	var out [][]string
	for r.Next() {
		out = append(out, r.cur)
	}
	return out, r.Err()
}

// Query parses and runs one SELECT, returning a streaming cursor. '?'
// placeholders are bound from args. Plain projections stream end-to-end;
// ORDER BY and aggregates fold the result streams into their answer on the
// trusted side first, and COUNT(*) is one number, so those iterate the
// finished result and the cursor API stays uniform.
func (p *Proxy) Query(ctx context.Context, sql string, args ...any) (*Rows, error) {
	st, err := parseAndBind(sql, args)
	if err != nil {
		return nil, err
	}
	return p.queryStmt(ctx, st)
}

// queryStmt runs a bound statement, which must be a SELECT, as a cursor
// planned against the schema cache.
func (p *Proxy) queryStmt(ctx context.Context, st sqlparse.Statement) (*Rows, error) {
	sel, ok := st.(*sqlparse.Select)
	if !ok {
		return nil, fmt.Errorf("proxy: Query requires a SELECT statement, got %T (use Exec)", st)
	}
	return withSchema(p, sel.Table, func(ts tableSchema) (*Rows, error) {
		return p.queryRows(ctx, sel, ts)
	})
}

// queryRows runs a bound SELECT as a cursor. The first stream opens before
// it returns, so a query the provider rejects fails here, not at Next.
func (p *Proxy) queryRows(ctx context.Context, sel *sqlparse.Select, ts tableSchema) (*Rows, error) {
	if sel.Count || len(sel.Aggregates) > 0 || sel.OrderBy != "" {
		res, err := p.selectStmt(ctx, sel, ts)
		if err != nil {
			return nil, err
		}
		return materializedRows(res), nil
	}
	pl, err := p.selectPlan(sel, ts)
	if err != nil {
		return nil, err
	}
	r := &Rows{cols: pl.d.project, d: pl.d, opens: p.streams(ctx, pl.q), limit: sel.Limit}
	if err := r.fill(); err != nil {
		return nil, err
	}
	return r, nil
}

// materializedRows wraps a decrypted Result as a cursor. Counts become a
// single-row result with one "count" column so Query has a uniform shape.
func materializedRows(res *Result) *Rows {
	if res.Kind == KindCount {
		return &Rows{cols: []string{"count"}, buf: [][]string{{strconv.Itoa(res.Count)}}, limit: -1}
	}
	return &Rows{cols: slices.Clone(res.Columns), buf: res.Rows, limit: -1}
}
