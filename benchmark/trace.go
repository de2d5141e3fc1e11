package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	encdbdb "github.com/encdbdb/encdbdb"
	"github.com/encdbdb/encdbdb/internal/bufpool"
	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/pae"
	"github.com/encdbdb/encdbdb/internal/proxy"
	"github.com/encdbdb/encdbdb/internal/ridset"
	"github.com/encdbdb/encdbdb/internal/search"
	"github.com/encdbdb/encdbdb/internal/sqlparse"
)

// span is one timed call into a layer, recorded from outside the program:
// the benchmark replays a statement's path stage by stage and wraps each
// call. Spans of one statement share Stmt. Parent names the span whose work
// this one repeats a part of; the root of a statement has Parent 0, and a
// span with Parent -1 is a side measurement outside the statement's tree.
// Children are replays made one after the other, not intervals nested in
// their parent, so a parent's self time is its duration minus the durations
// of its children.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Stmt   int    `json:"stmt"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ns() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the pass ends.
type tracer struct {
	t0    time.Time
	spans []span
}

const detached = -1

// add reserves a span; time runs it. Reserving first lets a child name a
// parent that is replayed after it.
func (tr *tracer) add(stmt, parent int, name string) int {
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Stmt: stmt, Name: name})
	return len(tr.spans)
}

func (tr *tracer) time(id int, f func() error) error {
	start := time.Since(tr.t0)
	err := f()
	tr.spans[id-1].Start, tr.spans[id-1].End = start.Nanoseconds(), time.Since(tr.t0).Nanoseconds()
	return err
}

// selfTimes returns every span's self time in nanoseconds, keyed by span ID:
// its duration minus the summed durations of its children. It is signed: a
// replayed child that ran slower than its parent's share shows as a negative
// remainder instead of being hidden, and the self times of a statement's
// tree always sum to its root's duration.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.ns()
		if s.Parent > 0 {
			self[s.Parent] -= s.ns()
		}
	}
	return self
}

// canned is the provider seen by the proxy replay: it answers Schema and
// Select from memory, so a Session-equivalent call against it costs exactly
// the proxy's own work (bind, plan, encrypt, decrypt, sort, aggregate).
type canned struct {
	proxy.Executor // never called beyond the two methods below
	schema         engine.Schema
	res            *engine.Result
}

func (c *canned) Schema(string) (engine.Schema, error) { return c.schema, nil }

func (c *canned) Select(context.Context, engine.Query) (*engine.Result, error) { return c.res, nil }

// replayer holds what the traced pass needs to call each layer directly.
type replayer struct {
	w       *workload
	st      *stack
	c       *client
	tr      *tracer
	schema  engine.Schema
	px      *proxy.Proxy // the real proxy over the wire connection (Filters)
	fake    *canned
	fakePx  *proxy.Proxy
	fakePre []*proxy.Stmt
	splits  map[string]*dict.Split // main stores rebuilt from DB.Snapshot
	ciphers map[string]*pae.Cipher
	encl    *enclave.Enclave
}

func newReplayer(ctx context.Context, w *workload, st *stack, tr *tracer) (*replayer, error) {
	r := &replayer{w: w, st: st, c: st.clients[0], tr: tr, schema: w.table.schema(),
		splits: map[string]*dict.Split{}, ciphers: map[string]*pae.Cipher{}, encl: st.edb.Enclave()}
	var err error
	if r.px, err = proxy.New(st.master, r.c.conn); err != nil {
		return nil, err
	}
	r.fake = &canned{schema: r.schema}
	if r.fakePx, err = proxy.New(st.master, r.fake); err != nil {
		return nil, err
	}
	for _, sql := range w.templates {
		ps, err := r.fakePx.Prepare(ctx, sql)
		if err != nil {
			return nil, err
		}
		r.fakePre = append(r.fakePre, ps)
	}
	snap, err := st.edb.Snapshot(w.table.name)
	if err != nil {
		return nil, err
	}
	for _, cs := range snap.Columns {
		if r.splits[cs.Name], err = dict.FromData(cs.Main); err != nil {
			return nil, err
		}
		key, err := pae.Derive(st.master, w.table.name, cs.Name)
		if err != nil {
			return nil, err
		}
		if r.ciphers[cs.Name], err = pae.NewCipher(key); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// query is the provider-side query the proxy plans for s (proxy.selectPlan).
func (r *replayer) query(s *statement, filters []engine.Filter) engine.Query {
	q := engine.Query{Table: r.w.table.name, Filters: filters, CountOnly: s.form == formCount}
	seen := map[int]bool{}
	for _, ci := range s.proj {
		if s.form == formCount || seen[ci] {
			continue
		}
		seen[ci] = true
		q.Project = append(q.Project, r.w.table.cols[ci].def.Name)
	}
	if s.form == formRows {
		q.Limit = s.limit
	}
	return q
}

// traced is what one replayed statement yields beyond its spans.
type traced struct {
	class    int
	root     int // span IDs
	proxy    int
	parse    int
	encrypt  int
	decrypt  int
	wire     int
	engine   int
	match    int
	dictS    int
	scan     int
	plain    int
	cells    int
	filters  int
	rendered bool
}

// replay runs s once through its Session (the root span) and then repeats
// the statement's path one layer at a time.
func (r *replayer) replay(ctx context.Context, no int, s *statement, t *tally) (traced, error) {
	tr := r.tr
	x := traced{class: s.class, rendered: s.form != formCount, filters: len(s.preds)}
	x.root = tr.add(no, 0, "stmt")
	x.proxy = tr.add(no, x.root, "proxy")
	parseParent := detached // a prepared statement is not parsed per execution
	if s.how == howAdhoc {
		parseParent = x.proxy
	}
	x.parse = tr.add(no, parseParent, "sqlparse.parse")
	x.encrypt = tr.add(no, x.proxy, "proxy.encrypt")
	x.decrypt = tr.add(no, x.proxy, "proxy.decrypt")
	x.wire = tr.add(no, x.root, "wire.select")
	x.engine = tr.add(no, x.wire, "engine.select")
	x.match = tr.add(no, x.engine, "engine.match")
	x.dictS = tr.add(no, x.match, "enclave.dictsearch")
	x.scan = tr.add(no, x.match, "av.scan")
	x.plain = tr.add(no, detached, "baseline.plain_select")

	tr.time(x.root, func() error { r.c.check(ctx, s, t, false); return nil })

	var parsed sqlparse.Statement
	if err := tr.time(x.parse, func() (err error) { parsed, err = sqlparse.Parse(s.text); return }); err != nil {
		return x, err
	}
	sel, ok := parsed.(*sqlparse.Select)
	if !ok {
		return x, fmt.Errorf("%s parsed as %T", s.text, parsed)
	}
	var filters []engine.Filter
	if err := tr.time(x.encrypt, func() (err error) { filters, err = r.px.Filters(r.schema, sel.Where); return }); err != nil {
		return x, err
	}
	q := r.query(s, filters)

	if s.how == howAdhoc {
		// Ad-hoc execution resolves the table's schema over the wire first.
		id := tr.add(no, x.root, "wire.schema")
		if err := tr.time(id, func() error { _, err := r.c.conn.Schema(q.Table); return err }); err != nil {
			return x, err
		}
	}
	var res *engine.Result
	if s.how == howQuery {
		// The streamed form is timed as it runs (chunked frames, drained);
		// the materialized copy the later stages decrypt is fetched untimed.
		err := tr.time(x.wire, func() error {
			stream, err := r.c.conn.SelectStream(ctx, q)
			if err != nil {
				return err
			}
			defer stream.Close()
			for {
				if _, err := stream.Next(); err == io.EOF {
					return nil
				} else if err != nil {
					return err
				}
			}
		})
		if err == nil {
			res, err = r.c.conn.Select(ctx, q)
		}
		if err != nil {
			return x, err
		}
	} else if err := tr.time(x.wire, func() (err error) { res, err = r.c.conn.Select(ctx, q); return }); err != nil {
		return x, err
	}

	var direct, counted *engine.Result
	if err := tr.time(x.engine, func() (err error) { direct, err = r.st.edb.Select(ctx, q); return }); err != nil {
		return x, err
	}
	qCount := engine.Query{Table: q.Table, Filters: q.Filters, CountOnly: true}
	if err := tr.time(x.match, func() (err error) { counted, err = r.st.edb.Select(ctx, qCount); return }); err != nil {
		return x, err
	}

	// Dictionary search and attribute-vector scan, the two phases of every
	// filter, on the column's main store rebuilt from the snapshot. The scan
	// ANDs into one accumulator, as the engine's fused path does.
	results := make([]enclave.SearchResult, len(filters))
	err := tr.time(x.dictS, func() error {
		for i, f := range filters {
			def, _ := r.schema.Column(f.Column)
			split := r.splits[f.Column]
			meta := enclave.ColumnMeta{Table: q.Table, Column: f.Column, Kind: def.Kind, MaxLen: def.MaxLen}
			var err error
			if results[i], err = r.encl.DictSearch(meta, split, split.EncRndOffset, f.Ranges[0]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return x, err
	}
	acc := ridset.Full(r.w.table.rows)
	tr.time(x.scan, func() error {
		for i, f := range filters {
			vec := r.splits[f.Column].Packed()
			if r.splits[f.Column].Kind.Order() == dict.OrderUnsorted {
				search.AttrVectListPackedInto(vec, results[i].IDs, acc, 0)
			} else {
				search.AttrVectRangesPackedInto(vec, results[i].Ranges, acc, 0)
			}
		}
		return nil
	})

	// The same query against the PLAIN twin table: plaintext bounds, no
	// enclave, identical scan and render code.
	qPlain := q
	qPlain.Table, qPlain.Filters = q.Table+"_plain", nil
	for _, p := range s.preds {
		qPlain.Filters = append(qPlain.Filters, engine.SingleRange(r.w.table.cols[p.col].def.Name,
			enclave.EncRange{Start: p.lo, End: p.hi, StartIncl: true, EndIncl: true}))
	}
	var plain *engine.Result
	if err := tr.time(x.plain, func() (err error) { plain, err = r.st.edb.Select(ctx, qPlain); return }); err != nil {
		return x, err
	}

	// The proxy's own share: the statement against the canned provider.
	r.fake.res = res
	var got want
	err = tr.time(x.proxy, func() (err error) {
		switch s.how {
		case howAdhoc:
			got, _, err = reduce(r.fakePx.Execute(ctx, s.text))
		case howQuery:
			var rows *proxy.Rows
			if rows, err = r.fakePre[s.tmpl].Query(ctx, s.args...); err != nil {
				return err
			}
			got.sum = fnvOffset
			for rows.Next() {
				got.sum = foldRow(got.sum, rows.Row())
				got.count++
			}
			rows.Close()
			err = rows.Err()
		default:
			got, _, err = reduce(r.fakePre[s.tmpl].Exec(ctx, s.args...))
		}
		return err
	})
	if err != nil {
		return x, err
	}
	err = tr.time(x.decrypt, func() error {
		for _, col := range res.Columns {
			c := r.ciphers[col.Column]
			for _, cell := range col.Cells {
				if _, err := c.Decrypt(cell); err != nil {
					return err
				}
				x.cells++
			}
		}
		return nil
	})
	if err != nil {
		return x, err
	}

	// The replays must agree with each other and with the oracle.
	t.attempted++
	switch {
	case got != s.want:
		t.fail("%s: proxy replay got %d/%x, oracle says %d/%x", s.text, got.count, got.sum, s.want.count, s.want.sum)
	case direct.Count != res.Count || plain.Count != res.Count:
		t.fail("%s: wire %d rows, engine %d, plain twin %d", s.text, res.Count, direct.Count, plain.Count)
	case acc.Len() != counted.Count:
		t.fail("%s: replayed scan matched %d rows, engine counted %d", s.text, acc.Len(), counted.Count)
	}
	return x, nil
}

// counters is one reading of every count the traced pass reports as a
// per-statement figure.
type counters struct {
	encl    encdbdb.EnclaveStats
	mem     runtime.MemStats
	pool    bufpool.Stats
	scraped map[string]float64
}

func readCounters(db *encdbdb.Database) counters {
	c := counters{encl: db.EnclaveStats(), pool: bufpool.Default.Stats(), scraped: scrape(db)}
	runtime.ReadMemStats(&c.mem)
	return c
}

// scrape reads the provider's Prometheus exposition and sums every family's
// series (histograms contribute their _sum and _count lines by those names).
func scrape(db *encdbdb.Database) map[string]float64 {
	out := map[string]float64{}
	h := db.MetricsHandler()
	if h == nil {
		return out
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if sp < 0 || err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out
}

// tracedPass is the per-layer pass: one client, cfg.traced statements per
// class, on a provider of its own with metrics on and a PLAIN twin of the
// table beside the encrypted one. It first runs the statements untraced
// (counts per statement, and the p50 that tracing overhead is measured
// against), then replays each one layer by layer under spans, and writes the
// spans to trace-<workload>.json.
func tracedPass(ctx context.Context, w *workload, cfg config, dir string, listed []metricSpec) (map[string]float64, *tally, error) {
	one := cfg
	one.setups = 1
	st, _, bs, err := setUp(w, one, filepath.Join(dir, "traced"), true)
	if err != nil {
		return nil, nil, err
	}
	defer st.close()
	if err := st.connect(ctx, 1, w.templates); err != nil {
		return nil, nil, err
	}
	total := warmUp(ctx, w, st.clients)
	v := map[string]float64{"proc.heap_mb_after_setup": heapMB()}
	for _, m := range listed {
		if _, ok := v[m.Name]; !ok {
			v[m.Name] = 0 // a metric of a layer this workload does not exercise
		}
	}

	cols := float64(len(w.table.cols))
	rows := float64(w.table.rows)
	v["dict.build_rows_s"] = rows * cols / bs.buildSeconds
	v["dict.dict_bytes"] = float64(bs.dictBytes)
	v["dict.av_bytes"] = float64(bs.avBytes)
	v["av.bits_per_row"] = 8 * float64(bs.avBytes) / (rows * cols)
	v["av.blocks_rle_share"] = float64(bs.blocksRLE) / float64(bs.blocks)
	v["av.blocks_for_share"] = float64(bs.blocksFoR) / float64(bs.blocks)

	var stmts []*statement
	for i := 0; i < cfg.traced; i++ {
		for k := range w.classes {
			if pool := w.classes[k].stmts; i < len(pool) {
				stmts = append(stmts, &pool[i])
			}
		}
	}
	n := float64(len(stmts))
	c := st.clients[0]

	// Untraced pass: the statements as a caller runs them, and nothing else,
	// between two readings of the counters.
	before := readCounters(st.db)
	base := &tally{}
	start := time.Now()
	for _, s := range stmts {
		c.check(ctx, s, base, true)
	}
	elapsed := time.Since(start)
	after := readCounters(st.db)
	total.merge(base)
	delta := func(name string) float64 { return after.scraped[name] - before.scraped[name] }
	v["gen.busy_pct"] = 100 * (1 - base.inCall.Seconds()/elapsed.Seconds())
	v["enclave.ecalls_per_stmt"] = float64(after.encl.ECalls-before.encl.ECalls) / n
	v["enclave.loads_per_stmt"] = float64(after.encl.Loads-before.encl.Loads) / n
	v["enclave.decrypts_per_stmt"] = float64(after.encl.Decryptions-before.encl.Decryptions) / n
	v["enclave.loaded_bytes_per_stmt"] = float64(after.encl.BytesLoaded-before.encl.BytesLoaded) / n
	v["engine.scan_rows_per_stmt"] = delta("encdbdb_engine_scan_rows_total") / n
	v["wire.req_bytes_per_stmt"] = delta("encdbdb_wire_read_bytes_total") / n
	v["wire.resp_bytes_per_stmt"] = delta("encdbdb_wire_written_bytes_total") / n
	v["wire.rejected_total"] = after.scraped["encdbdb_wire_rejected_total"]
	if gets := after.pool.Gets - before.pool.Gets; gets > 0 {
		v["wire.bufpool_miss_ratio"] = float64(after.pool.Misses-before.pool.Misses) / float64(gets)
	}
	v["proc.allocs_per_stmt"] = float64(after.mem.Mallocs-before.mem.Mallocs) / n
	v["proc.alloc_bytes_per_stmt"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / n
	v["proc.gc_pause_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	var untraced []float64
	for _, s := range base.samples {
		untraced = append(untraced, s.ms)
	}

	// Traced pass.
	tr := &tracer{t0: time.Now()}
	r, err := newReplayer(ctx, w, st, tr)
	if err != nil {
		return nil, nil, err
	}
	runs := make([]traced, 0, len(stmts))
	for i, s := range stmts {
		x, err := r.replay(ctx, i+1, s, total)
		if err != nil {
			return nil, nil, fmt.Errorf("replaying %s: %w", s.text, err)
		}
		runs = append(runs, x)
	}
	summarize(v, w, tr.spans, runs, median(untraced))

	if w.ingest != nil {
		if err := tracedIngest(ctx, w, cfg, st, tr, v, total, dir); err != nil {
			return nil, nil, err
		}
	}
	return v, total, writeTrace(cfg, w.name, tr.spans)
}

// summarize turns the spans of the replayed statements into the per-layer
// metrics: medians over statements, microseconds unless the name says
// otherwise.
func summarize(v map[string]float64, w *workload, spans []span, runs []traced, untracedP50 float64) {
	self := selfTimes(spans)
	us := func(id int) float64 { return float64(spans[id-1].ns()) / 1e3 }
	selfUS := func(id int) float64 { return float64(self[id]) / 1e3 }
	series := map[string][]float64{}
	add := func(name string, x float64) { series[name] = append(series[name], x) }
	rows := float64(w.table.rows)
	for _, x := range runs {
		class := w.classes[x.class].name
		add("whole_ms", us(x.root)/1e3)
		add("trace.unexplained_pct", 100*selfUS(x.root)/us(x.root))
		add("sqlparse.parse_us", us(x.parse))
		add("proxy.encrypt_us", us(x.encrypt))
		add("proxy.self_us", selfUS(x.proxy))
		add("wire.overhead_us", selfUS(x.wire))
		add("engine.select_us", us(x.engine))
		add("engine.self_us", selfUS(x.match))
		add("enclave.dictsearch_us", us(x.dictS))
		add("enclave.dictsearch_us."+class, us(x.dictS))
		add("av.scan_us", us(x.scan))
		perRow := 1e3 * us(x.scan) / (rows * float64(x.filters))
		add("av.scan_ns_per_row", perRow)
		add("av.scan_ns_per_row."+class, perRow)
		add("baseline.plain_select_us", us(x.plain))
		add("enclave.overhead_us", us(x.engine)-us(x.plain))
		add("proxy.decrypt_cells_per_stmt", float64(x.cells))
		if x.rendered {
			add("engine.render_us", selfUS(x.engine))
		}
		if x.cells > 0 {
			add("proxy.decrypt_us", us(x.decrypt))
			add("pae.decrypt_ns_per_cell", 1e3*us(x.decrypt)/float64(x.cells))
			add("engine.render_ns_per_cell", 1e3*selfUS(x.engine)/float64(x.cells))
		}
	}
	for name, xs := range series {
		if _, listed := v[name]; listed {
			v[name] = median(xs)
		}
	}
	if untracedP50 > 0 {
		v["trace.overhead_pct"] = 100 * (median(series["whole_ms"]) - untracedP50) / untracedP50
	}
}

func writeTrace(cfg config, workload string, spans []span) error {
	blob, err := json.Marshal(struct {
		Envelope envelope `json:"envelope"`
		Workload string   `json:"workload"`
		Spans    []span   `json:"spans"`
	}{newEnvelope(cfg), workload, spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, "trace-"+workload+".json"), append(blob, '\n'), 0o644)
}
