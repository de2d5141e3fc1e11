package engine

import (
	"context"
	"io"
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
	v, match, err := db.selectMatch(ctx, q)
	if err != nil {
		return nil, err
	}
	if q.CountOnly {
		// A count-only stream has no row chunks; Count carries the answer,
		// the match bitmap's popcount.
		return &Cursor{ctx: ctx, count: match.Len()}, nil
	}
	rids := limitRIDs(match, q.Limit)
	cur := &Cursor{ctx: ctx, table: q.Table, v: v, rids: rids, count: len(rids), chunk: db.opts.streamChunk}
	if cur.project, err = v.project(q); err != nil {
		return nil, err
	}
	return cur, nil
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
	buf     cellBuf // render memory, emptied and reused by every chunk
}

// Next renders and returns the next chunk of rows, or io.EOF when done.
func (c *Cursor) Next() (*Result, error) {
	if err := ctxErr(c.ctx); err != nil {
		return nil, err
	}
	if c.pos >= len(c.rids) {
		return nil, io.EOF
	}
	end := c.pos + c.chunk
	if end > len(c.rids) {
		end = len(c.rids)
	}
	rids := c.rids[c.pos:end]
	c.pos = end
	res := &Result{RecordIDs: rids, Count: len(rids)}
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
	c.rids = c.rids[len(c.rids):]
	c.pos = 0
	return nil
}
