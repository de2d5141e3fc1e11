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

// MaterializedStream adapts an already-materialized Result to the
// ResultStream interface as a single chunk — the shape of the streaming
// fallback against providers that can only materialize.
func MaterializedStream(res *Result) ResultStream {
	return &materializedStream{res: res}
}

type materializedStream struct {
	res  *Result
	done bool
}

func (m *materializedStream) Next() (*Result, error) {
	if m.done || m.res == nil {
		return nil, io.EOF
	}
	m.done = true
	if m.res.Count == 0 {
		return nil, io.EOF
	}
	return m.res, nil
}

func (m *materializedStream) Count() int {
	if m.res == nil {
		return 0
	}
	return m.res.Count
}

func (m *materializedStream) Close() error {
	m.done = true
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
	for _, name := range c.project {
		res.Columns = append(res.Columns, ResultColumn{
			Table:  c.table,
			Column: name,
			Cells:  c.v.render(c.v.cols[name], rids),
		})
	}
	return res, nil
}

// Count returns the total number of matching rows.
func (c *Cursor) Count() int { return c.count }

// Close drops the cursor's version reference so the pinned stores can be
// collected.
func (c *Cursor) Close() error {
	c.v = nil
	c.rids = c.rids[len(c.rids):]
	c.pos = 0
	return nil
}
