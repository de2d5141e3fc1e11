package proxy

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/pae"
)

// decodeSchema is the decode tests' table: two encrypted columns and, unless
// allEnc, a plain one.
func decodeSchema(allEnc bool) engine.Schema {
	return engine.Schema{Table: "t", Columns: []engine.ColumnDef{
		{Name: "a", Kind: dict.ED1, MaxLen: 12},
		{Name: "b", Kind: dict.ED5, MaxLen: 10, BSMax: 10},
		{Name: "c", Kind: dict.ED1, MaxLen: 8, Plain: !allEnc},
	}}
}

// encodedChunk builds a rows-row chunk of schema's columns as the wire client
// hands one over: every column's cells are slices of one shared buffer. It
// returns the chunk, the buffers and the plaintext rows.
func encodedChunk(tb testing.TB, p *Proxy, schema engine.Schema, rows int) (*engine.Result, [][]byte, [][]string) {
	tb.Helper()
	rng := rand.New(rand.NewSource(81))
	want := make([][]string, rows)
	for ri := range want {
		want[ri] = []string{
			fmt.Sprintf("%012d", rng.Int63n(1e12)),
			fmt.Sprintf("name%d", rng.Intn(1e5)),
			fmt.Sprintf("%08d", rng.Intn(1e8)),
		}
	}
	chunk := &engine.Result{Count: rows}
	var bufs [][]byte
	for ci, def := range schema.Columns {
		var cells [][]byte
		for _, row := range want {
			cell := []byte(row[ci])
			if !def.Plain {
				c, err := p.cipher(schema.Table, def.Name)
				if err != nil {
					tb.Fatal(err)
				}
				if cell, err = c.Encrypt(cell); err != nil {
					tb.Fatal(err)
				}
			}
			cells = append(cells, cell)
		}
		var buf []byte
		for _, cell := range cells {
			buf = append(buf, cell...)
		}
		col := engine.ResultColumn{Table: schema.Table, Column: def.Name}
		off := 0
		for _, cell := range cells {
			col.Cells = append(col.Cells, buf[off:off+len(cell):off+len(cell)])
			off += len(cell)
		}
		chunk.Columns = append(chunk.Columns, col)
		bufs = append(bufs, buf)
	}
	return chunk, bufs, want
}

func decodeFixture(tb testing.TB, allEnc bool, rows int) (*decoder, *engine.Result, [][]byte, [][]string) {
	tb.Helper()
	p, err := New(pae.MustGen(), &fleetExec{})
	if err != nil {
		tb.Fatal(err)
	}
	schema := decodeSchema(allEnc)
	d, err := p.newDecoder(schema, []string{"a", "b", "c"})
	if err != nil {
		tb.Fatal(err)
	}
	chunk, bufs, want := encodedChunk(tb, p, schema, rows)
	return d, chunk, bufs, want
}

// TestDecodeChunkOwnsMemory: decoded rows own their memory — scribbling over
// every cell and buffer of the chunk afterwards, as a recycled wire frame
// would, leaves them unchanged — and a chunk costs a constant number of
// allocations, not a number per cell.
func TestDecodeChunkOwnsMemory(t *testing.T) {
	d, chunk, bufs, want := decodeFixture(t, false, 1024)
	rows, err := d.decodeChunk(chunk)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range chunk.Columns {
		for _, cell := range col.Cells {
			for i := range cell {
				cell[i] = '#'
			}
		}
	}
	for _, buf := range bufs {
		for i := range buf {
			buf[i] = '%'
		}
	}
	for ri, row := range rows {
		for ci, v := range row {
			if v != want[ri][ci] {
				t.Fatalf("row %d column %d = %q after the chunk was overwritten, want %q", ri, ci, v, want[ri][ci])
			}
		}
	}

	d, chunk, _, _ = decodeFixture(t, false, 1024)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := d.decodeChunk(chunk); err != nil {
			t.Fatal(err)
		}
	})
	// Two row arrays, one arena, one string per column: at most one arena
	// reallocation per further column.
	if limit := float64(2 + 2*len(d.project)); allocs > limit {
		t.Errorf("decodeChunk of 1024x%d cells: %.0f allocs, want <= %.0f", len(d.project), allocs, limit)
	}
}

// BenchmarkDecodeChunk decodes one 1024-row chunk of three encrypted columns.
func BenchmarkDecodeChunk(b *testing.B) {
	d, chunk, _, _ := decodeFixture(b, true, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := d.decodeChunk(chunk); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chunk.Count*len(chunk.Columns)), "ns/cell")
}
