package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/metrics"
	"github.com/encdbdb/encdbdb/internal/proxy"
)

// Options configure NewExecutor.
type Options struct {
	// Metrics, when set, registers the encdbdb_shard_* families on it.
	Metrics *metrics.Registry
}

// Executor presents a fleet of shards as one proxy.Executor: writes route to
// the owning shard, reads scatter-gather, and every per-shard failure comes
// back as a typed *Error naming the shard. InsertBatch splits a batch into
// per-shard sub-batches. It also implements proxy.ShardStreamer: the
// proxy reads a fleet's SELECT as one result stream per shard.
type Executor struct {
	m        *Map
	backends []proxy.Executor
	part     Partitioner
	met      *shardMetrics
	health   []*health

	// seq is the per-table logical RecordID sequence inserts are routed by.
	mu  sync.Mutex
	seq map[string]*atomic.Uint64
}

// Statically ensure the fleet satisfies the full executor surface.
var (
	_ proxy.Executor      = (*Executor)(nil)
	_ proxy.ShardStreamer = (*Executor)(nil)
)

// NewExecutor builds the scatter-gather executor over one backend per shard
// of m, in map order. Backends are any proxy.Executor — wire.Pool clients in
// production, embedded engines in tests.
func NewExecutor(m *Map, backends []proxy.Executor, opts Options) (*Executor, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(backends) != len(m.Shards) {
		return nil, fmt.Errorf("shard: map has %d shards but %d backends given", len(m.Shards), len(backends))
	}
	part, err := m.Partitioner()
	if err != nil {
		return nil, err
	}
	e := &Executor{
		m:        m,
		backends: backends,
		part:     part,
		health:   make([]*health, len(backends)),
		seq:      make(map[string]*atomic.Uint64),
	}
	for i := range e.health {
		e.health[i] = &health{}
	}
	if opts.Metrics != nil {
		e.met = newShardMetrics(opts.Metrics, m, func() float64 {
			n := 0
			for _, h := range e.health {
				if h.down() {
					n++
				}
			}
			return float64(n)
		})
	}
	return e, nil
}

// Map returns the executor's catalog.
func (e *Executor) Map() *Map { return e.m }

// Topology reports every shard's health and lifetime dispatch counters — the
// rows of the proxy's `topology` command.
func (e *Executor) Topology() []Status {
	out := make([]Status, len(e.m.Shards))
	for i, s := range e.m.Shards {
		h := e.health[i]
		st := Status{
			Name:     s.Name,
			Addr:     s.Addr,
			Healthy:  !h.down(),
			Requests: h.requests.Load(),
			Errors:   h.errors.Load(),
		}
		if v, ok := h.lastErr.Load().(string); ok {
			st.LastError = v
		}
		out[i] = st
	}
	return out
}

// call runs one operation against shard i, recording health and metrics and
// wrapping any failure in the typed per-shard error. Context cancellation is
// the caller's doing, not the shard's, and never counts against its health.
// An engine.RequestErrors answer (no such table, a stale schema digest) is
// the shard working: it counts as a success.
func (e *Executor) call(i int, op string, fn func(proxy.Executor) error) error {
	wasDown := e.health[i].down()
	started := e.met.now()
	err := fn(e.backends[i])
	ctxErr := err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
	shardErr := err
	if ctxErr || requestError(err) {
		shardErr = nil
	}
	if !ctxErr {
		if e.health[i].record(shardErr) {
			e.met.wentDown()
		}
	}
	e.met.request(i, started, shardErr != nil)
	if err == nil {
		return nil
	}
	if ctxErr {
		return err
	}
	if wasDown && shardErr != nil {
		err = fmt.Errorf("%w (%w)", ErrShardDown, err)
	}
	return &Error{Shard: e.m.Shards[i].Name, Addr: e.m.Shards[i].Addr, Op: op, Err: err}
}

// scatter fans fn out to every shard in parallel and returns the first
// failure in shard order (deterministic regardless of completion order).
func (e *Executor) scatter(op string, fn func(i int, b proxy.Executor) error) error {
	e.met.scatter(len(e.backends))
	if len(e.backends) == 1 {
		return e.call(0, op, func(b proxy.Executor) error { return fn(0, b) })
	}
	errs := make([]error, len(e.backends))
	var wg sync.WaitGroup
	for i := range e.backends {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = e.call(i, op, func(b proxy.Executor) error { return fn(i, b) })
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// seqFor returns the table's logical RecordID counter.
func (e *Executor) seqFor(table string) *atomic.Uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.seq[table]
	if !ok {
		s = &atomic.Uint64{}
		e.seq[table] = s
	}
	return s
}

// Schema asks the shards in map order, failing over past unreachable ones:
// every shard holds every schema, so the first answer wins. A semantic error
// (unknown table) is the fleet's answer and is returned from the first shard
// that gave it.
func (e *Executor) Schema(table string) (engine.Schema, error) {
	var first error
	for i := range e.backends {
		var s engine.Schema
		err := e.call(i, "schema", func(b proxy.Executor) error {
			var err error
			s, err = b.Schema(table)
			return err
		})
		if err == nil {
			return s, nil
		}
		if first == nil {
			first = err
		}
	}
	return engine.Schema{}, first
}

// CreateTable broadcasts the DDL to every shard. Shards past a failure are
// still attempted so the fleet stays as converged as possible; the first
// failing shard's error is returned. Cross-shard DDL is not atomic — see
// docs/sharding.md for the repair story.
func (e *Executor) CreateTable(s engine.Schema) error {
	return e.broadcastDDL("create_table", func(b proxy.Executor) error { return b.CreateTable(s) })
}

// DropTable broadcasts the DDL to every shard (see CreateTable).
func (e *Executor) DropTable(name string) error {
	return e.broadcastDDL("drop_table", func(b proxy.Executor) error { return b.DropTable(name) })
}

func (e *Executor) broadcastDDL(op string, fn func(proxy.Executor) error) error {
	e.met.scatter(len(e.backends))
	var first error
	for i := range e.backends {
		if err := e.call(i, op, fn); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// InsertBatch routes each row to the owner of the table's next logical
// RecordID and dispatches the per-shard sub-batches in parallel, one
// InsertBatch call per shard; rows keep their batch order within each shard.
// Each sub-batch is all-or-nothing on its shard, the batch as a whole is
// not: when some shards fail, the rows of the others stay inserted, and the
// error wraps proxy.ErrPartialWrite.
func (e *Executor) InsertBatch(ctx context.Context, table string, rows []engine.Row) error {
	seq := e.seqFor(table)
	parts := make([][]engine.Row, len(e.backends))
	for _, row := range rows {
		rid := seq.Add(1) - 1
		i := e.part.Owner(rid)
		parts[i] = append(parts[i], row)
	}
	targets := 0
	for _, p := range parts {
		if len(p) > 0 {
			targets++
		}
	}
	e.met.scatter(targets)
	errs := make([]error, len(e.backends))
	var wg sync.WaitGroup
	for i := range e.backends {
		if len(parts[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = e.call(i, "insert_batch", func(b proxy.Executor) error {
				return b.InsertBatch(ctx, table, parts[i])
			})
		}(i)
	}
	wg.Wait()
	err := errors.Join(errs...)
	if err == nil {
		return nil
	}
	stored := 0
	for i, p := range parts {
		if errs[i] == nil {
			stored += len(p)
		}
	}
	if stored > 0 {
		return fmt.Errorf("%w: %d of %d rows stored: %w", proxy.ErrPartialWrite, stored, len(rows), err)
	}
	return err
}

// Delete broadcasts the predicate — encrypted bounds carry fresh IVs, so the
// trusted side cannot value-route writes — and sums the affected counts. When
// some shards fail, the rows the others deleted are returned alongside the
// joined per-shard errors: the statement was partially applied.
func (e *Executor) Delete(ctx context.Context, table string, filters []engine.Filter) (int, error) {
	var total atomic.Int64
	err := e.scatter("delete", func(i int, b proxy.Executor) error {
		n, err := b.Delete(ctx, table, filters)
		total.Add(int64(n))
		return err
	})
	return int(total.Load()), err
}

// Update broadcasts like Delete and sums the affected counts, partial ones
// included.
func (e *Executor) Update(ctx context.Context, table string, filters []engine.Filter, set engine.Row) (int, error) {
	var total atomic.Int64
	err := e.scatter("update", func(i int, b proxy.Executor) error {
		n, err := b.Update(ctx, table, filters, set)
		total.Add(int64(n))
		return err
	})
	return int(total.Load()), err
}

// Select collects the shards' result streams into one Result
// (engine.Collect): counts sum, rows concatenate in shard order (each
// shard's rows stay in its RecordID order), and a pushed-down LIMIT
// re-applies to the concatenation, so shards past it are never contacted.
// RecordIDs are shard-local and carried through for debugging only.
func (e *Executor) Select(ctx context.Context, q engine.Query) (*engine.Result, error) {
	return engine.Collect(q.Limit, e.ShardStreams(ctx, q)...)
}

// Merge runs a blocking merge on every shard.
func (e *Executor) Merge(ctx context.Context, table string) error {
	return e.scatter("merge", func(i int, b proxy.Executor) error { return b.Merge(ctx, table) })
}

// MergeAsync starts a background merge on every shard; started reports
// whether any shard newly started one.
func (e *Executor) MergeAsync(ctx context.Context, table string) (bool, error) {
	var started atomic.Bool
	err := e.scatter("merge_async", func(i int, b proxy.Executor) error {
		s, err := b.MergeAsync(ctx, table)
		if s {
			started.Store(true)
		}
		return err
	})
	return started.Load(), err
}

// MergeStatus gathers every shard's status into one fleet view: store sizes,
// completed merges, and generations sum; Merging reports any in-flight
// merge; LastError surfaces the first shard's failure text.
func (e *Executor) MergeStatus(ctx context.Context, table string) (engine.MergeInfo, error) {
	infos := make([]engine.MergeInfo, len(e.backends))
	err := e.scatter("merge_status", func(i int, b proxy.Executor) error {
		var err error
		infos[i], err = b.MergeStatus(ctx, table)
		return err
	})
	if err != nil {
		return engine.MergeInfo{}, err
	}
	var out engine.MergeInfo
	for _, in := range infos {
		out.Generation += in.Generation
		out.Merging = out.Merging || in.Merging
		out.MainRows += in.MainRows
		out.DeltaRows += in.DeltaRows
		out.DeltaBytes += in.DeltaBytes
		out.SealedRuns += in.SealedRuns
		out.Merges += in.Merges
		if out.LastError == "" {
			out.LastError = in.LastError
		}
	}
	return out, nil
}

// ShardStreams returns one lazily opened result stream per shard, in map
// order. Opening and chunk errors count against the shard's health like any
// other dispatch.
func (e *Executor) ShardStreams(ctx context.Context, q engine.Query) []func() (engine.ResultStream, error) {
	out := make([]func() (engine.ResultStream, error), len(e.backends))
	for i := range e.backends {
		out[i] = func() (engine.ResultStream, error) {
			var st engine.ResultStream
			err := e.call(i, "select", func(b proxy.Executor) error {
				var err error
				st, err = proxy.OpenStream(ctx, b, q)
				return err
			})
			if err != nil {
				return nil, err
			}
			return &shardStream{ResultStream: st, e: e, i: i}, nil
		}
	}
	return out
}

// shardStream wraps one shard's cursor so mid-stream failures carry the
// shard's identity and feed its health state.
type shardStream struct {
	engine.ResultStream
	e *Executor
	i int
}

func (s *shardStream) Next() (*engine.Result, error) {
	chunk, err := s.ResultStream.Next()
	if err == nil || err == io.EOF || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return chunk, err
	}
	if s.e.health[s.i].record(err) {
		s.e.met.wentDown()
	}
	return nil, &Error{Shard: s.e.m.Shards[s.i].Name, Addr: s.e.m.Shards[s.i].Addr, Op: "select", Err: err}
}

// requestError reports whether err is one of engine.RequestErrors.
func requestError(err error) bool {
	for _, sentinel := range engine.RequestErrors {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}
