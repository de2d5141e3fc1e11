package proxy

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/sqlparse"
)

// The proxy's one result pipeline (paper §4.2 step 14): a SELECT's result
// arrives as ≥ 1 streams of provider chunks — one per shard of a fleet,
// exactly one from an embedded or remote provider — and one decoder turns
// each chunk into plaintext. Plain rows are served stream after stream by the
// Rows cursor; ORDER BY and aggregates fold every stream's chunks into a
// per-stream state in parallel and combine the states.

// ShardStreamer is the optional Executor surface a sharded fleet exposes: one
// lazily opened result stream per shard instead of one concatenated result.
// An opener dials its shard only when called, so a cursor that stops early
// (a satisfied LIMIT) never touches the remaining shards. Open and chunk
// failures are the sharding layer's typed per-shard errors.
type ShardStreamer interface {
	ShardStreams(ctx context.Context, q engine.Query) []func() (engine.ResultStream, error)
}

// opener opens one of a SELECT's result streams.
type opener = func() (engine.ResultStream, error)

// OpenStream opens exec's result stream for q: SelectStream where exec
// streams, otherwise one Select delivered as a single chunk.
func OpenStream(ctx context.Context, exec Executor, q engine.Query) (engine.ResultStream, error) {
	if se, ok := exec.(StreamExecutor); ok {
		return se.SelectStream(ctx, q)
	}
	res, err := exec.Select(ctx, q)
	if err != nil {
		return nil, err
	}
	return &oneChunk{res: res}, nil
}

// oneChunk serves a materialized Result as a single-chunk stream.
type oneChunk struct {
	res  *engine.Result
	done bool
}

func (o *oneChunk) Next() (*engine.Result, error) {
	if o.done || o.res.Count == 0 {
		return nil, io.EOF
	}
	o.done = true
	return o.res, nil
}

func (o *oneChunk) Count() int { return o.res.Count }

func (o *oneChunk) Close() error {
	o.done = true
	return nil
}

// streams returns the openers of q's result streams: the fleet's per-shard
// streams when the executor is a ShardStreamer, otherwise exactly one. It is
// the only code that looks at the executor's shape — a single provider is a
// one-shard fleet.
func (p *Proxy) streams(ctx context.Context, q engine.Query) []opener {
	if ss, ok := p.exec.(ShardStreamer); ok {
		return ss.ShardStreams(ctx, q)
	}
	return []opener{func() (engine.ResultStream, error) { return OpenStream(ctx, p.exec, q) }}
}

// ErrBadReply marks a provider reply whose shape does not match the query: a
// wrong column count, a column out of projection order, or a column whose
// cell count differs from the chunk's row count. Replies come from outside
// the trusted side and are checked before any cell is decoded.
var ErrBadReply = errors.New("proxy: malformed provider reply")

// decoder turns provider chunks of one projection into plaintext: it checks a
// chunk's shape, then decrypts encrypted cells and copies plain ones. Every
// decoded string owns its memory, so it outlives the chunk, whose buffers the
// stream may recycle on its next Next.
type decoder struct {
	project []string
	cells   []func([]byte) (string, error)
}

// newDecoder builds the decoder of a projection.
func (p *Proxy) newDecoder(schema engine.Schema, project []string) (*decoder, error) {
	d := &decoder{project: project, cells: make([]func([]byte) (string, error), len(project))}
	for i, name := range project {
		def, ok := schema.Column(name)
		if !ok {
			return nil, fmt.Errorf("%w: %q", engine.ErrNoSuchColumn, name)
		}
		if def.Plain {
			d.cells[i] = func(cell []byte) (string, error) { return string(cell), nil }
			continue
		}
		c, err := p.cipher(schema.Table, name)
		if err != nil {
			return nil, err
		}
		d.cells[i] = func(cell []byte) (string, error) {
			v, err := c.Decrypt(cell)
			if err != nil {
				return "", err
			}
			return string(v), nil
		}
	}
	return d, nil
}

// check verifies that a chunk carries exactly the projection's columns, in
// order, with one cell per row each. Zero rows without columns is the empty
// answer.
func (d *decoder) check(chunk *engine.Result) error {
	if chunk.Count == 0 && len(chunk.Columns) == 0 {
		return nil
	}
	if len(chunk.Columns) != len(d.project) {
		return fmt.Errorf("%w: %d columns, want %d", ErrBadReply, len(chunk.Columns), len(d.project))
	}
	for ci, col := range chunk.Columns {
		if col.Column != d.project[ci] {
			return fmt.Errorf("%w: column %d is %q, want %q", ErrBadReply, ci, col.Column, d.project[ci])
		}
		if len(col.Cells) != chunk.Count {
			return fmt.Errorf("%w: column %q has %d cells, want %d", ErrBadReply, col.Column, len(col.Cells), chunk.Count)
		}
	}
	return nil
}

// cell decodes row ri of column ci of a checked chunk.
func (d *decoder) cell(chunk *engine.Result, ci, ri int) (string, error) {
	v, err := d.cells[ci](chunk.Columns[ci].Cells[ri])
	if err != nil {
		return "", fmt.Errorf("proxy: decrypt %q: %w", d.project[ci], err)
	}
	return v, nil
}

// decodeChunk checks a chunk and decodes all of it, column by column, into
// projection-ordered rows sharing one backing array.
func (d *decoder) decodeChunk(chunk *engine.Result) ([][]string, error) {
	if err := d.check(chunk); err != nil {
		return nil, err
	}
	if chunk.Count == 0 {
		return nil, nil
	}
	n := len(d.project)
	flat := make([]string, chunk.Count*n)
	rows := make([][]string, chunk.Count)
	for ri := range rows {
		rows[ri] = flat[ri*n : (ri+1)*n : (ri+1)*n]
	}
	for ci := range d.project {
		for ri, row := range rows {
			v, err := d.cell(chunk, ci, ri)
			if err != nil {
				return nil, err
			}
			row[ci] = v
		}
	}
	return rows, nil
}

// drain runs every stream to its end, in parallel — the first stream runs on
// the calling goroutine — handing each chunk to fold(i, chunk) for stream i
// before asking the stream for its next one. It returns the first failure in
// stream order, so the error does not depend on which stream fails first.
func drain(opens []opener, fold func(i int, chunk *engine.Result) error) error {
	errs := make([]error, len(opens))
	run := func(i int) {
		st, err := opens[i]()
		if err != nil {
			errs[i] = err
			return
		}
		defer st.Close()
		for {
			chunk, err := st.Next()
			if err == io.EOF {
				return
			}
			if err == nil {
				err = fold(i, chunk)
			}
			if err != nil {
				errs[i] = err
				return
			}
		}
	}
	var wg sync.WaitGroup
	for i := 1; i < len(opens); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(i)
		}()
	}
	if len(opens) > 0 {
		run(0)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// orderBy runs ORDER BY [LIMIT k] over the streams: each stream keeps its own
// top k rows (every row without a LIMIT), and the kept rows of all streams
// are stable-sorted in stream order. Equal keys therefore resolve to the
// earlier stream and, within a stream, to storage order — the order a stable
// sort of the streams' concatenation gives.
func orderBy(opens []opener, d *decoder, key int, desc bool, limit int) ([][]string, error) {
	tops := make([]topK, len(opens))
	for i := range tops {
		tops[i] = topK{k: limit, key: key, desc: desc}
	}
	if err := drain(opens, func(i int, chunk *engine.Result) error { return tops[i].fold(d, chunk) }); err != nil {
		return nil, err
	}
	var out [][]string
	for _, t := range tops {
		// Kept rows back in storage order, so the stable sort below breaks
		// ties by stream, then by storage order.
		sort.Slice(t.rows, func(a, b int) bool { return t.rows[a].seq < t.rows[b].seq })
		for _, r := range t.rows {
			out = append(out, r.row)
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return before(desc, out[a][key], out[b][key]) })
	if limit >= 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

// before reports whether sort key a comes strictly before b.
func before(desc bool, a, b string) bool {
	if desc {
		return a > b
	}
	return a < b
}

// topK is one stream's ORDER BY state: the k rows that sort first so far
// (every row when k < 0), held as a heap whose root is the row that sorts
// last. A row's sort key is decrypted first; its other cells are decrypted
// only when the row enters.
type topK struct {
	k, key int
	desc   bool
	seq    int // rows seen so far: the next row's storage position
	rows   []ranked
}

type ranked struct {
	seq int
	row []string
}

func (t *topK) fold(d *decoder, chunk *engine.Result) error {
	if err := d.check(chunk); err != nil {
		return err
	}
	for ri := 0; ri < chunk.Count; ri++ {
		seq := t.seq
		t.seq++
		key, err := d.cell(chunk, t.key, ri)
		if err != nil {
			return err
		}
		// A later row ties with an earlier one and loses, so only a
		// strictly earlier key displaces the root.
		grow := t.k < 0 || len(t.rows) < t.k
		if !grow && (len(t.rows) == 0 || !before(t.desc, key, t.rows[0].row[t.key])) {
			continue
		}
		var row []string
		if grow {
			row = make([]string, len(d.project))
		} else {
			row = t.rows[0].row // the displaced root's cells are overwritten
		}
		for ci := range row {
			if ci == t.key {
				row[ci] = key
			} else if row[ci], err = d.cell(chunk, ci, ri); err != nil {
				return err
			}
		}
		switch {
		case t.k < 0:
			t.rows = append(t.rows, ranked{seq, row})
		case grow:
			heap.Push(t, ranked{seq, row})
		default:
			t.rows[0] = ranked{seq, row}
			heap.Fix(t, 0)
		}
	}
	return nil
}

// Len, Less, Swap, Push and Pop make topK a heap whose root sorts last.
func (t *topK) Len() int { return len(t.rows) }

func (t *topK) Less(i, j int) bool {
	a, b := t.rows[i], t.rows[j]
	if ka, kb := a.row[t.key], b.row[t.key]; ka != kb {
		return before(t.desc, kb, ka)
	}
	return a.seq > b.seq
}

func (t *topK) Swap(i, j int) { t.rows[i], t.rows[j] = t.rows[j], t.rows[i] }

func (t *topK) Push(x any) { t.rows = append(t.rows, x.(ranked)) }

func (t *topK) Pop() any {
	last := t.rows[len(t.rows)-1]
	t.rows = t.rows[:len(t.rows)-1]
	return last
}

// aggregates computes MIN/MAX/SUM/AVG at the trusted side — the paper notes
// these "are easier to support than range searches" (§4.2), and computing
// them after decryption keeps the provider's view unchanged. Each stream's
// chunks fold into a constant-size partial; the partials combine into the
// one result row. SUM and AVG require decimal integer values (store numbers
// zero-padded so lexicographic range filters work too).
func aggregates(opens []opener, d *decoder, aggs []sqlparse.Aggregate) (*Result, error) {
	cols := make([]int, len(aggs)) // aggregate ai reads column cols[ai]
	for ai, a := range aggs {
		cols[ai] = slices.Index(d.project, a.Column)
	}
	parts := make([]partial, len(opens))
	for i := range parts {
		parts[i] = newPartial(len(aggs))
	}
	err := drain(opens, func(i int, chunk *engine.Result) error {
		rows, err := d.decodeChunk(chunk)
		if err != nil {
			return err
		}
		return parts[i].fold(aggs, cols, rows)
	})
	if err != nil {
		return nil, err
	}
	return combinePartials(aggs, parts), nil
}

// partial is one stream's constant-size aggregate state: the matching row
// count plus, per aggregate, a running sum (SUM/AVG) or best value (MIN/MAX,
// valid once n > 0).
type partial struct {
	n    int
	sums []int64
	best []string
}

func newPartial(aggs int) partial {
	return partial{sums: make([]int64, aggs), best: make([]string, aggs)}
}

// fold adds decoded rows to the partial.
func (pt *partial) fold(aggs []sqlparse.Aggregate, cols []int, rows [][]string) error {
	for _, row := range rows {
		for ai, a := range aggs {
			v := row[cols[ai]]
			switch {
			case a.Func == sqlparse.AggSum || a.Func == sqlparse.AggAvg:
				n, err := numericCell(a, v)
				if err != nil {
					return err
				}
				pt.sums[ai] += n
			case pt.n == 0 || better(a.Func, v, pt.best[ai]):
				pt.best[ai] = v
			}
		}
		pt.n++
	}
	return nil
}

// better reports whether v displaces best as the MIN or MAX.
func better(f sqlparse.AggFunc, v, best string) bool {
	return (f == sqlparse.AggMin && v < best) || (f == sqlparse.AggMax && v > best)
}

// numericCell parses one SUM/AVG input value. Numbers are stored zero-padded
// so lexicographic range filters work; the padding is stripped before
// parsing, with the all-zero value spelled out as 0.
func numericCell(a sqlparse.Aggregate, v string) (int64, error) {
	n, err := strconv.ParseInt(strings.TrimLeft(v, "0"), 10, 64)
	if err != nil {
		if strings.Trim(v, "0") == "" && v != "" {
			return 0, nil // all-zero value
		}
		return 0, fmt.Errorf("proxy: %s(%s): value %q is not numeric", a.Func, a.Column, v)
	}
	return n, nil
}

// combinePartials merges per-stream partials into the aggregate row: SUM and
// AVG sum the partial sums (AVG divides by the total count), MIN/MAX take the
// best partial best, and zero matching rows yield empty values.
func combinePartials(aggs []sqlparse.Aggregate, parts []partial) *Result {
	all := newPartial(len(aggs))
	for _, pt := range parts {
		if pt.n == 0 {
			continue
		}
		for ai, a := range aggs {
			all.sums[ai] += pt.sums[ai]
			if all.n == 0 || better(a.Func, pt.best[ai], all.best[ai]) {
				all.best[ai] = pt.best[ai]
			}
		}
		all.n += pt.n
	}
	out := &Result{Kind: KindRows, Count: 1, Rows: [][]string{make([]string, len(aggs))}}
	for ai, a := range aggs {
		out.Columns = append(out.Columns, fmt.Sprintf("%s(%s)", strings.ToLower(a.Func.String()), a.Column))
		switch {
		case all.n == 0:
		case a.Func == sqlparse.AggSum:
			out.Rows[0][ai] = strconv.FormatInt(all.sums[ai], 10)
		case a.Func == sqlparse.AggAvg:
			out.Rows[0][ai] = strconv.FormatFloat(float64(all.sums[ai])/float64(all.n), 'f', -1, 64)
		default:
			out.Rows[0][ai] = all.best[ai]
		}
	}
	return out
}
