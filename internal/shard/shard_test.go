package shard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/metrics"
	"github.com/encdbdb/encdbdb/internal/pae"
	"github.com/encdbdb/encdbdb/internal/proxy"
)

func TestMapSaveLoadRoundtrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data", "proxy") // Save must create it
	m := NewHashMap([]string{"h1:7687", "h2:7687", "h3:7687"})
	if err := m.Save(dir); err != nil {
		t.Fatalf("Save(dir): %v", err)
	}
	if m.Version != 2 {
		t.Errorf("Save must bump Version: got %d, want 2", m.Version)
	}
	for _, path := range []string{dir, filepath.Join(dir, MapFileName)} {
		got, err := LoadMap(path)
		if err != nil {
			t.Fatalf("LoadMap(%s): %v", path, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("LoadMap(%s) = %+v, want %+v", path, got, m)
		}
	}
	// A missing catalog is ErrNotExist so callers can fall through to -shards.
	if _, err := LoadMap(filepath.Join(dir, "nope")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("LoadMap(missing) err = %v, want ErrNotExist", err)
	}

	rm := NewRangeMap([]string{"a:1", "b:1"}, []uint64{100})
	file := filepath.Join(t.TempDir(), "catalog.json")
	if err := rm.Save(file); err != nil {
		t.Fatalf("Save(file): %v", err)
	}
	got, err := LoadMap(file)
	if err != nil {
		t.Fatalf("LoadMap(file): %v", err)
	}
	if !reflect.DeepEqual(got, rm) {
		t.Errorf("range roundtrip = %+v, want %+v", got, rm)
	}
}

func TestMapValidate(t *testing.T) {
	cases := []struct {
		name string
		m    *Map
	}{
		{"empty", &Map{Strategy: StrategyHash}},
		{"unnamed shard", &Map{Strategy: StrategyHash, Shards: []Desc{{Addr: "a:1"}}}},
		{"duplicate name", &Map{Strategy: StrategyHash, Shards: []Desc{{Name: "s"}, {Name: "s"}}}},
		{"unknown strategy", &Map{Strategy: "modulo", Shards: []Desc{{Name: "s"}}}},
		{"hash with bounds", &Map{Strategy: StrategyHash, Shards: []Desc{{Name: "s"}}, Bounds: []uint64{1}}},
		{"range bound count", NewRangeMap([]string{"a", "b", "c"}, []uint64{5})},
		{"range bounds not ascending", NewRangeMap([]string{"a", "b", "c"}, []uint64{9, 9})},
	}
	for _, tc := range cases {
		if err := tc.m.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", tc.name)
		}
	}
	if err := NewHashMap([]string{"a", "b"}).Validate(); err != nil {
		t.Errorf("valid hash map: %v", err)
	}
	if err := NewRangeMap([]string{"a", "b", "c"}, []uint64{10, 20}).Validate(); err != nil {
		t.Errorf("valid range map: %v", err)
	}
}

func TestHashPartitionerBalance(t *testing.T) {
	const shards, rids = 4, 100_000
	m := NewHashMap([]string{"a", "b", "c", "d"})
	part, err := m.Partitioner()
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, shards)
	for rid := uint64(0); rid < rids; rid++ {
		i := part.Owner(rid)
		if i < 0 || i >= shards {
			t.Fatalf("Owner(%d) = %d out of range", rid, i)
		}
		counts[i]++
	}
	for i, n := range counts {
		// A uniform split is 25%; sequential RecordIDs must not skew any
		// shard past 20-30%.
		if n < rids/5 || n > 3*rids/10 {
			t.Errorf("shard %d owns %d of %d rids — hash is skewed: %v", i, n, rids, counts)
		}
	}
}

func TestRangePartitionerBounds(t *testing.T) {
	m := NewRangeMap([]string{"a", "b", "c"}, []uint64{10, 20})
	part, err := m.Partitioner()
	if err != nil {
		t.Fatal(err)
	}
	for rid, want := range map[uint64]int{0: 0, 9: 0, 10: 1, 19: 1, 20: 2, 1 << 40: 2} {
		if got := part.Owner(rid); got != want {
			t.Errorf("Owner(%d) = %d, want %d", rid, got, want)
		}
	}
}

// stubBackend is a minimal proxy.Executor whose Select serves fixed cells for
// one plain column "c" and whose failures are switchable at runtime.
type stubBackend struct {
	rows    []string
	fail    atomic.Bool
	stale   atomic.Bool // answer engine.ErrSchemaChanged
	selects atomic.Int64
	inserts atomic.Int64
}

// errRefused is a failing stub's cause.
var errRefused = errors.New("connection refused")

func (s *stubBackend) err() error {
	if s.stale.Load() {
		return fmt.Errorf("%w: %q", engine.ErrSchemaChanged, "t")
	}
	if s.fail.Load() {
		return errRefused
	}
	return nil
}

func (s *stubBackend) Select(ctx context.Context, q engine.Query) (*engine.Result, error) {
	s.selects.Add(1)
	if err := s.err(); err != nil {
		return nil, err
	}
	rows := s.rows
	if q.Limit > 0 && len(rows) > q.Limit {
		rows = rows[:q.Limit]
	}
	cells := make([][]byte, len(rows))
	for i, r := range rows {
		cells[i] = []byte(r)
	}
	if q.CountOnly {
		return &engine.Result{Count: len(rows)}, nil
	}
	return &engine.Result{
		Count:   len(rows),
		Columns: []engine.ResultColumn{{Table: "t", Column: "c", Cells: cells}},
	}, nil
}

func (s *stubBackend) InsertBatch(_ context.Context, _ string, rows []engine.Row) error {
	s.inserts.Add(int64(len(rows)))
	return s.err()
}

func (s *stubBackend) Schema(string) (engine.Schema, error) {
	return engine.Schema{Table: "t", Columns: []engine.ColumnDef{{Name: "c", Kind: dict.ED1, MaxLen: 8, Plain: true}}}, s.err()
}
func (s *stubBackend) CreateTable(engine.Schema) error { return s.err() }
func (s *stubBackend) DropTable(string) error          { return s.err() }
func (s *stubBackend) Delete(context.Context, string, []engine.Filter) (int, error) {
	return 0, s.err()
}
func (s *stubBackend) Update(context.Context, string, []engine.Filter, engine.Row) (int, error) {
	return 0, s.err()
}
func (s *stubBackend) Merge(context.Context, string) error { return s.err() }
func (s *stubBackend) MergeAsync(context.Context, string) (bool, error) {
	return false, s.err()
}
func (s *stubBackend) MergeStatus(context.Context, string) (engine.MergeInfo, error) {
	return engine.MergeInfo{}, s.err()
}

func newStubFleet(t *testing.T, m *Map, stubs ...*stubBackend) *Executor {
	t.Helper()
	backends := make([]proxy.Executor, len(stubs))
	for i, s := range stubs {
		backends[i] = s
	}
	e, err := NewExecutor(m, backends, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestInsertRouting pins the logical-RecordID routing: under a range map with
// a split at 3, the first three inserts land on shard0 and the rest on
// shard1, deterministically.
func TestInsertRouting(t *testing.T) {
	s0, s1 := &stubBackend{}, &stubBackend{}
	e := newStubFleet(t, NewRangeMap([]string{"a", "b"}, []uint64{3}), s0, s1)
	for i := 0; i < 5; i++ {
		if err := e.InsertBatch(context.Background(), "t", []engine.Row{{}}); err != nil {
			t.Fatal(err)
		}
	}
	if got0, got1 := s0.inserts.Load(), s1.inserts.Load(); got0 != 3 || got1 != 2 {
		t.Errorf("inserts routed %d/%d, want 3/2", got0, got1)
	}
}

// TestQueryLimitShortCircuitsFanOut proves the proxy's cursor reads the
// shards' streams one after another: when shard0 alone covers a LIMIT, shard1
// is never contacted.
func TestQueryLimitShortCircuitsFanOut(t *testing.T) {
	s0 := &stubBackend{rows: []string{"a", "b", "c"}}
	s1 := &stubBackend{rows: []string{"d", "e"}}
	p, err := proxy.New(pae.MustGen(), newStubFleet(t, NewHashMap([]string{"a", "b"}), s0, s1))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := p.Query(context.Background(), "SELECT c FROM t LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	got, err := rows.All()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, [][]string{{"a"}, {"b"}}) {
		t.Errorf("delivered %v, want [[a] [b]]", got)
	}
	if n := s1.selects.Load(); n != 0 {
		t.Errorf("shard1 was contacted %d times; LIMIT must short-circuit the fan-out", n)
	}
}

// TestScatterFailureTyped pins the failure contract: a failing shard turns
// every scatter into a *Error naming it, repeat failures wrap ErrShardDown
// beside a cause that stays matchable, topology reflects the outage, and
// recovery clears it. A request error (engine.ErrSchemaChanged) is an
// answer: it reaches the proxy unwrapped and leaves the shard healthy, also
// one that was down.
func TestScatterFailureTyped(t *testing.T) {
	s0 := &stubBackend{rows: []string{"a"}}
	s1 := &stubBackend{rows: []string{"b"}}
	e := newStubFleet(t, NewHashMap([]string{"a:1", "b:1"}), s0, s1)
	ctx := context.Background()

	s1.fail.Store(true)
	_, err := e.Select(ctx, engine.Query{Table: "t"})
	var se *Error
	if !errors.As(err, &se) {
		t.Fatalf("scatter err = %v, want *Error", err)
	}
	if se.Shard != "shard1" || se.Addr != "b:1" || se.Op != "select" {
		t.Errorf("error identity = %+v", se)
	}
	if errors.Is(err, ErrShardDown) {
		t.Error("first failure must carry the raw cause, not ErrShardDown")
	}

	_, err = e.Select(ctx, engine.Query{Table: "t"})
	if !errors.Is(err, ErrShardDown) || !errors.Is(err, errRefused) {
		t.Errorf("repeat failure err = %v, want ErrShardDown and its cause", err)
	}
	top := e.Topology()
	if top[0].Healthy != true || top[1].Healthy != false {
		t.Errorf("topology = %+v, want shard0 up / shard1 down", top)
	}
	if top[1].Errors == 0 || top[1].LastError == "" {
		t.Errorf("down shard must report its error: %+v", top[1])
	}

	s1.fail.Store(false)
	if _, err := e.Select(ctx, engine.Query{Table: "t"}); err != nil {
		t.Errorf("scatter after recovery: %v", err)
	}
	if top := e.Topology(); !top[1].Healthy {
		t.Errorf("shard1 still down after recovery: %+v", top[1])
	}

	s1.stale.Store(true)
	for i := 0; i < 2; i++ {
		_, err = e.Select(ctx, engine.Query{Table: "t"})
		if !errors.Is(err, engine.ErrSchemaChanged) || errors.Is(err, ErrShardDown) {
			t.Errorf("stale-schema answer %d: err = %v, want ErrSchemaChanged without ErrShardDown", i, err)
		}
	}
	s1.stale.Store(false)
	s1.fail.Store(true)
	e.Select(ctx, engine.Query{Table: "t"}) //nolint:errcheck // marks shard1 down
	s1.fail.Store(false)
	s1.stale.Store(true)
	if _, err = e.Select(ctx, engine.Query{Table: "t"}); errors.Is(err, ErrShardDown) {
		t.Errorf("stale-schema answer from a down shard: err = %v, want no ErrShardDown", err)
	}
	if top := e.Topology(); !top[1].Healthy {
		t.Errorf("shard1 down after answering with a request error: %+v", top[1])
	}
}

// TestSingleShardPassthrough pins the bit-identity guarantee: a one-shard
// fleet's Select answers exactly the backend's result.
func TestSingleShardPassthrough(t *testing.T) {
	s0 := &stubBackend{rows: []string{"x", "y"}}
	e := newStubFleet(t, NewHashMap([]string{"only"}), s0)
	res, err := e.Select(context.Background(), engine.Query{Table: "t"})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := s0.Select(context.Background(), engine.Query{Table: "t"})
	if !reflect.DeepEqual(res.Columns, want.Columns) || res.Count != want.Count {
		t.Errorf("single-shard Select = %+v, want passthrough %+v", res, want)
	}
}

// TestFleetReadCountsFanout pins the fan-out histogram for reads: one proxy
// SELECT over a 2-shard fleet is one observation of width 2, whether or not
// its reader opens every shard's stream.
func TestFleetReadCountsFanout(t *testing.T) {
	reg := metrics.NewRegistry()
	s0, s1 := &stubBackend{rows: []string{"a"}}, &stubBackend{rows: []string{"b"}}
	e, err := NewExecutor(NewHashMap([]string{"a", "b"}), []proxy.Executor{s0, s1}, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	p, err := proxy.New(pae.MustGen(), e)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := p.Query(context.Background(), "SELECT c FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.All(); err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`encdbdb_shard_fanout_width_bucket{le="1"} 0`,
		`encdbdb_shard_fanout_width_bucket{le="2"} 1`,
		"encdbdb_shard_fanout_width_sum 2\n",
		"encdbdb_shard_fanout_width_count 1\n",
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("metrics lack %q:\n%s", want, text.String())
		}
	}
}
