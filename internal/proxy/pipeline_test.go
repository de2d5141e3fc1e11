package proxy

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/pae"
	"github.com/encdbdb/encdbdb/internal/sqlparse"
)

// pipeCols are the columns of the pipeline tests' rows: k is a numeric sort
// key with many duplicates, a names the row, b is noise.
var pipeCols = []string{"k", "a", "b"}

// genStreams draws n streams of rows; every third stream is empty.
func genStreams(rng *rand.Rand, n int) [][][]string {
	streams := make([][][]string, n)
	for s := range streams {
		if s%3 == 2 {
			continue
		}
		for r := range 5 + rng.Intn(40) {
			streams[s] = append(streams[s], []string{
				fmt.Sprintf("%02d", rng.Intn(6)),
				fmt.Sprintf("a%d.%03d", s, r),
				fmt.Sprintf("b%d", rng.Intn(1000)),
			})
		}
	}
	return streams
}

// sliceStream serves prepared chunks and scribbles over each one once the
// consumer moves past it, as a recycled wire frame would.
type sliceStream struct {
	chunks []*engine.Result
	last   *engine.Result
}

func (s *sliceStream) Next() (*engine.Result, error) {
	s.poison()
	if len(s.chunks) == 0 {
		return nil, io.EOF
	}
	s.last, s.chunks = s.chunks[0], s.chunks[1:]
	return s.last, nil
}

func (s *sliceStream) poison() {
	if s.last == nil {
		return
	}
	for _, col := range s.last.Columns {
		for _, cell := range col.Cells {
			for i := range cell {
				cell[i] = '#'
			}
		}
	}
	s.last = nil
}

func (s *sliceStream) Count() int { return 0 }

func (s *sliceStream) Close() error {
	s.poison()
	return nil
}

// openers renders each stream's rows, projected onto project, as chunks of
// size rows with freshly allocated cells.
func openers(streams [][][]string, project []string, size int) []opener {
	out := make([]opener, len(streams))
	for i, rows := range streams {
		out[i] = func() (engine.ResultStream, error) {
			st := &sliceStream{}
			for lo := 0; lo < len(rows); lo += size {
				part := rows[lo:min(lo+size, len(rows))]
				chunk := &engine.Result{Count: len(part)}
				for _, name := range project {
					ci := slices.Index(pipeCols, name)
					col := engine.ResultColumn{Table: "t", Column: name}
					for _, row := range part {
						col.Cells = append(col.Cells, []byte(row[ci]))
					}
					chunk.Columns = append(chunk.Columns, col)
				}
				st.chunks = append(st.chunks, chunk)
			}
			return st, nil
		}
	}
	return out
}

// countingDecoder decodes plain cells and counts every cell it decodes.
func countingDecoder(project []string, calls *atomic.Int64) *decoder {
	d := &decoder{project: project}
	for range project {
		d.cols = append(d.cols, colDecoder{open: func(dst, cell []byte) ([]byte, error) {
			calls.Add(1)
			return append(dst, cell...), nil
		}})
	}
	return d
}

// project returns rows restricted to the named columns.
func project(rows [][]string, names []string) [][]string {
	out := make([][]string, len(rows))
	for i, row := range rows {
		for _, name := range names {
			out[i] = append(out[i], row[slices.Index(pipeCols, name)])
		}
	}
	return out
}

// refOrder is the reference ORDER BY: a stable sort of the streams'
// concatenation, then LIMIT.
func refOrder(streams [][][]string, key int, desc bool, limit int) [][]string {
	var all [][]string
	for _, rows := range streams {
		all = append(all, rows...)
	}
	all = slices.Clone(all)
	sort.SliceStable(all, func(a, b int) bool {
		if desc {
			return all[a][key] > all[b][key]
		}
		return all[a][key] < all[b][key]
	})
	if limit >= 0 && len(all) > limit {
		all = all[:limit]
	}
	return all
}

// refAggregate is the reference fold over the streams' concatenation.
func refAggregate(streams [][][]string, aggs []sqlparse.Aggregate) []string {
	var all [][]string
	for _, rows := range streams {
		all = append(all, rows...)
	}
	out := make([]string, len(aggs))
	if len(all) == 0 {
		return out
	}
	for ai, a := range aggs {
		ci := slices.Index(pipeCols, a.Column)
		var vals []string
		var sum int64
		for _, row := range all {
			vals = append(vals, row[ci])
			n, _ := strconv.ParseInt(row[ci], 10, 64)
			sum += n
		}
		switch a.Func {
		case sqlparse.AggMin:
			out[ai] = slices.Min(vals)
		case sqlparse.AggMax:
			out[ai] = slices.Max(vals)
		case sqlparse.AggSum:
			out[ai] = strconv.FormatInt(sum, 10)
		default:
			out[ai] = strconv.FormatFloat(float64(sum)/float64(len(all)), 'f', -1, 64)
		}
	}
	return out
}

// TestPipelineMatchesReference drives ORDER BY and the aggregates over 1-3
// streams (empty ones included), chunk sizes 1/3/1024, many equal sort keys,
// both directions, every LIMIT shape, and the sort column in every
// projection position: the result must equal a stable sort of the streams'
// concatenation, and the aggregates a plain fold over it.
func TestPipelineMatchesReference(t *testing.T) {
	aggs := []sqlparse.Aggregate{
		{Func: sqlparse.AggMin, Column: "k"}, {Func: sqlparse.AggMax, Column: "a"},
		{Func: sqlparse.AggSum, Column: "k"}, {Func: sqlparse.AggAvg, Column: "k"},
		{Func: sqlparse.AggMax, Column: "k"}, {Func: sqlparse.AggMin, Column: "b"},
	}
	for nStreams := 1; nStreams <= 3; nStreams++ {
		for _, size := range []int{1, 3, 1024} {
			rng := rand.New(rand.NewSource(int64(10*nStreams + size)))
			streams := genStreams(rng, nStreams)
			n := 0
			for _, rows := range streams {
				n += len(rows)
			}
			for _, proj := range [][]string{{"k", "a", "b"}, {"a", "k", "b"}, {"b", "a", "k"}, {"k"}} {
				key := slices.Index(proj, "k")
				projected := make([][][]string, len(streams))
				for i, rows := range streams {
					projected[i] = project(rows, proj)
				}
				for _, desc := range []bool{false, true} {
					for _, limit := range []int{-1, 0, 1, 4, n, n + 7} {
						var calls atomic.Int64
						got, err := orderBy(openers(streams, proj, size), countingDecoder(proj, &calls), key, desc, limit)
						if err != nil {
							t.Fatal(err)
						}
						want := refOrder(projected, key, desc, limit)
						if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
							t.Fatalf("streams=%d chunk=%d project=%v desc=%v limit=%d:\n got  %v\n want %v",
								nStreams, size, proj, desc, limit, got, want)
						}
					}
				}
			}
			var calls atomic.Int64
			res, err := aggregates(openers(streams, []string{"k", "a", "b"}, size), countingDecoder([]string{"k", "a", "b"}, &calls), aggs)
			if err != nil {
				t.Fatal(err)
			}
			if want := refAggregate(streams, aggs); !reflect.DeepEqual(res.Rows[0], want) {
				t.Fatalf("streams=%d chunk=%d aggregates = %v, want %v", nStreams, size, res.Rows[0], want)
			}
			if calls.Load() != int64(3*n) {
				t.Errorf("aggregates decoded %d cells, want every cell once (%d)", calls.Load(), 3*n)
			}
		}
	}
}

// TestPipelineDecryptsSortKeyFirst pins "sort key first": over input already
// in sort order, ORDER BY … LIMIT k decrypts every row's key but the other
// cells only of the k rows each stream keeps — n + (cols−1)·k for one stream.
func TestPipelineDecryptsSortKeyFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for nStreams := 1; nStreams <= 3; nStreams++ {
		for _, desc := range []bool{false, true} {
			streams := genStreams(rng, nStreams)
			n := 0
			for _, rows := range streams {
				n += len(rows)
				sort.SliceStable(rows, func(a, b int) bool {
					if desc {
						return rows[a][0] > rows[b][0]
					}
					return rows[a][0] < rows[b][0]
				})
			}
			for _, size := range []int{1, 3, 1024} {
				for _, k := range []int{0, 1, 4, n} {
					kept := 0
					for _, rows := range streams {
						kept += min(k, len(rows))
					}
					var calls atomic.Int64
					if _, err := orderBy(openers(streams, pipeCols, size), countingDecoder(pipeCols, &calls), 0, desc, k); err != nil {
						t.Fatal(err)
					}
					if want := int64(n + (len(pipeCols)-1)*kept); calls.Load() != want {
						t.Errorf("streams=%d desc=%v chunk=%d LIMIT %d: decrypted %d cells, want %d",
							nStreams, desc, size, k, calls.Load(), want)
					}
				}
			}
		}
	}
}

// fleetExec is a provider fleet of plain columns serving fixed streams; the
// pipeline tests reach it only through Schema and ShardStreams.
type fleetExec struct {
	Executor
	streams [][][]string
	size    int
}

func (f *fleetExec) Schema(string) (engine.Schema, error) {
	s := engine.Schema{Table: "t"}
	for _, name := range pipeCols {
		s.Columns = append(s.Columns, engine.ColumnDef{Name: name, Kind: dict.ED1, MaxLen: 16, Plain: true})
	}
	return s, nil
}

func (f *fleetExec) ShardStreams(_ context.Context, q engine.Query) []func() (engine.ResultStream, error) {
	return openers(f.streams, q.Project, f.size)
}

// TestPipelineStripsUnprojectedSortColumn runs ORDER BY through the proxy
// over a fake fleet: a sort column the SELECT does not name is projected for
// sorting and stripped from the result.
func TestPipelineStripsUnprojectedSortColumn(t *testing.T) {
	streams := genStreams(rand.New(rand.NewSource(3)), 2)
	p, err := New(pae.MustGen(), &fleetExec{streams: streams, size: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		sql   string
		names []string
		desc  bool
		limit int
	}{
		{"SELECT a, b FROM t ORDER BY k LIMIT 5", []string{"a", "b"}, false, 5},
		{"SELECT b FROM t ORDER BY k DESC", []string{"b"}, true, -1},
		{"SELECT a, k FROM t ORDER BY k DESC LIMIT 3", []string{"a", "k"}, true, 3},
	} {
		res, err := p.Execute(context.Background(), tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		full := slices.Clone(tc.names)
		if !slices.Contains(full, "k") {
			full = append(full, "k")
		}
		want := refOrder([][][]string{project(streams[0], full), project(streams[1], full)}, slices.Index(full, "k"), tc.desc, tc.limit)
		for i := range want {
			want[i] = want[i][:len(tc.names)]
		}
		if !reflect.DeepEqual(res.Columns, tc.names) || !reflect.DeepEqual(res.Rows, want) {
			t.Errorf("%s:\n got  %v %v\n want %v %v", tc.sql, res.Columns, res.Rows, tc.names, want)
		}
	}
	res, err := p.Execute(context.Background(), "SELECT SUM(k), MIN(a) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	want := refAggregate(streams, []sqlparse.Aggregate{{Func: sqlparse.AggSum, Column: "k"}, {Func: sqlparse.AggMin, Column: "a"}})
	if got := strings.Join(res.Rows[0], ","); got != strings.Join(want, ",") {
		t.Errorf("aggregates over the fleet = %s, want %v", got, want)
	}
}
