package engine

import (
	"context"
	"fmt"
	"io"
	"slices"
)

// defaultStreamChunk is the default number of rows rendered per SelectStream
// chunk.
const defaultStreamChunk = 1024

type streamChunkOption int

func (o streamChunkOption) apply(opts *options) {
	if o > 0 {
		opts.streamChunk = int(o)
	}
}

// WithStreamChunk sets how many rows SelectStream renders per chunk
// (default 1024). Smaller chunks lower first-row latency and per-chunk
// memory; larger chunks amortize per-chunk overhead.
func WithStreamChunk(rows int) Option { return streamChunkOption(rows) }

// ResultStream delivers one Select's result in row chunks. Next returns the
// chunks in RecordID order and io.EOF after the last one; each chunk is a
// self-contained Result whose Count is the chunk's row count. Streams must be
// closed, though closing an engine cursor only releases references.
//
// A chunk — including every cell slice it carries — is valid only until the
// next Next or Close call. Implementations may recycle the backing memory
// (the wire client backs each chunk with a pooled frame buffer); a consumer
// that needs data past that window must copy it out first.
type ResultStream interface {
	// Next returns the next chunk, or io.EOF when the stream is exhausted.
	Next() (*Result, error)
	// Count returns the total number of matching rows across all chunks.
	Count() int
	// Close releases the stream's resources. It is idempotent.
	Close() error
}

// SelectStream evaluates a query like Select but streams the rendered result:
// the filter phase runs up front against a pinned version (the match set is a
// cheap bitmap), while the expensive rendering — dictionary lookups per
// projected cell — happens lazily, one chunk of rows per Next call. The
// context is re-checked on every chunk, so cancelling it mid-result stops the
// remaining rendering work.
func (db *DB) SelectStream(ctx context.Context, q Query) (ResultStream, error) {
	return db.cursor(ctx, q, db.opts.streamChunk)
}

// Collect drains result streams into one Result that owns its memory: the
// materialized form of a SELECT. The streams open one after another, each
// drained and closed before the next opens. Counts sum, rows concatenate in
// stream order, and a limit > 0 keeps the first limit rows, opening no
// further stream once it is met (a count-only answer has no rows, so its
// count is never cut). Every cell is copied out of its chunk, whose memory
// the stream may recycle.
func Collect(limit int, opens ...func() (ResultStream, error)) (*Result, error) {
	out := &Result{}
	counted := 0
	for _, open := range opens {
		if limit > 0 && out.Count >= limit {
			break
		}
		st, err := open()
		if err != nil {
			return nil, err
		}
		for err == nil && (limit <= 0 || out.Count < limit) {
			var chunk *Result
			if chunk, err = st.Next(); err == nil {
				err = out.appendChunk(chunk, limit)
			}
		}
		counted += st.Count()
		st.Close()
		if err != io.EOF && err != nil {
			return nil, err
		}
	}
	if out.Columns == nil {
		out.Count = counted // a count-only answer
	}
	return out, nil
}

// appendChunk appends a chunk's rows to r, up to limit rows in all when
// limit > 0, copying their cells into one arena.
func (r *Result) appendChunk(chunk *Result, limit int) error {
	keep := chunk.Count
	if limit > 0 {
		keep = min(keep, limit-r.Count)
	}
	if r.Columns == nil {
		r.Columns = make([]ResultColumn, len(chunk.Columns))
		for i, c := range chunk.Columns {
			r.Columns[i] = ResultColumn{Table: c.Table, Column: c.Column}
		}
	}
	if len(chunk.Columns) != len(r.Columns) {
		return fmt.Errorf("engine: chunk has %d columns, want %d", len(chunk.Columns), len(r.Columns))
	}
	size := 0
	for ci, c := range chunk.Columns {
		if c.Column != r.Columns[ci].Column || len(c.Cells) < keep {
			return fmt.Errorf("engine: chunk column %d is %q with %d cells, want %q with %d",
				ci, c.Column, len(c.Cells), r.Columns[ci].Column, keep)
		}
		for _, cell := range c.Cells[:keep] {
			size += len(cell)
		}
	}
	arena := make([]byte, 0, size)
	for ci, c := range chunk.Columns {
		dst := &r.Columns[ci]
		dst.Cells = slices.Grow(dst.Cells, keep)
		for _, cell := range c.Cells[:keep] {
			if cell == nil {
				dst.Cells = append(dst.Cells, nil)
				continue
			}
			n := len(arena)
			arena = append(arena, cell...)
			dst.Cells = append(dst.Cells, arena[n:len(arena):len(arena)])
		}
	}
	r.RecordIDs = append(r.RecordIDs, chunk.RecordIDs[:min(keep, len(chunk.RecordIDs))]...)
	r.Count += keep
	return nil
}

// Cursor is the engine's pull-based ResultStream: it pins one version and
// renders the match set chunk by chunk on demand, entirely lock-free (the
// pinned version is immutable), so a slow consumer never blocks writers or
// merges.
type Cursor struct {
	ctx     context.Context
	table   string
	v       *version
	project []string
	rids    []uint32
	count   int
	pos     int
	chunk   int
	done    bool    // the last chunk has been rendered
	buf     cellBuf // render memory, emptied and reused by every chunk
}

// Next renders and returns the next chunk of rows, or io.EOF when done. An
// empty answer is one chunk without rows, which still names the projected
// columns.
func (c *Cursor) Next() (*Result, error) {
	if err := ctxErr(c.ctx); err != nil {
		return nil, err
	}
	if c.done {
		return nil, io.EOF
	}
	end := min(c.pos+c.chunk, len(c.rids))
	rids := c.rids[c.pos:end]
	c.pos = end
	c.done = end == len(c.rids)
	res := &Result{RecordIDs: rids, Columns: make([]ResultColumn, 0, len(c.project)), Count: len(rids)}
	if c.buf.cells == nil {
		c.buf = newCellBuf(len(c.project), len(rids))
	}
	c.buf.cells, c.buf.arena = c.buf.cells[:0], c.buf.arena[:0]
	for _, name := range c.project {
		res.Columns = append(res.Columns, ResultColumn{
			Table:  c.table,
			Column: name,
			Cells:  c.v.render(c.v.cols[name], rids, &c.buf),
		})
	}
	return res, nil
}

// Count returns the total number of matching rows.
func (c *Cursor) Count() int { return c.count }

// Close drops the cursor's version reference and render memory so the
// pinned stores can be collected.
func (c *Cursor) Close() error {
	c.v = nil
	c.buf = cellBuf{}
	c.rids = nil
	c.done = true
	return nil
}
