package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"

	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/engine"
)

// startStreamServer hosts a plaintext-only engine with a small stream chunk
// so modest tables exercise multi-chunk streaming.
func startStreamServer(t testing.TB, chunk int) (*Server, string) {
	t.Helper()
	srv := NewServer(engine.New(nil, engine.WithStreamChunk(chunk)), t.Logf)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // ends with Close
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// loadPlainRows creates a plain one-column table and inserts n rows v000..
func loadPlainRows(t testing.TB, c *Client, table string, n int) {
	t.Helper()
	if err := c.CreateTable(plainSchema(table)); err != nil {
		t.Fatal(err)
	}
	rows := make([]engine.Row, n)
	for i := range rows {
		rows[i] = engine.Row{"c": fmt.Appendf(nil, "v%03d", i)}
	}
	if err := c.InsertBatch(context.Background(), table, rows); err != nil {
		t.Fatal(err)
	}
}

// allRange matches every v### value of a plain test column.
func allRange() engine.Filter {
	return engine.SingleRange("c", enclave.EncRange{
		Start: []byte("v"), End: []byte("w"), StartIncl: true,
	})
}

// TestSelectStreamOverWire pins the chunked-result-frame protocol: the rows
// arrive across multiple frames and equal a materialized Select.
func TestSelectStreamOverWire(t *testing.T) {
	_, addr := startStreamServer(t, 4)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	loadPlainRows(t, c, "t", 19)

	ctx := context.Background()
	q := engine.Query{Table: "t", Filters: []engine.Filter{allRange()}}
	want, err := c.Select(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.SelectStream(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var got [][]byte
	chunks := 0
	for {
		chunk, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		chunks++
		got = append(got, chunk.Columns[0].Cells...)
	}
	if chunks < 2 {
		t.Fatalf("chunks = %d, want >= 2 (19 rows, chunk 4)", chunks)
	}
	if st.Count() != want.Count || len(got) != want.Count {
		t.Fatalf("stream count = %d/%d rows, want %d", st.Count(), len(got), want.Count)
	}
	for i := range got {
		if string(got[i]) != string(want.Columns[0].Cells[i]) {
			t.Fatalf("row %d = %q, want %q", i, got[i], want.Columns[0].Cells[i])
		}
	}
	// The connection stays fully usable after a completed stream.
	if _, err := c.Rows("t"); err != nil {
		t.Fatalf("Rows after stream: %v", err)
	}
}

// TestSelectCancelOverWire: cancelling mid-stream returns context.Canceled
// and leaves the connection usable for subsequent calls.
func TestSelectCancelOverWire(t *testing.T) {
	_, addr := startStreamServer(t, 2)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	loadPlainRows(t, c, "t", 50)

	ctx, cancel := context.WithCancel(context.Background())
	st, err := c.SelectStream(ctx, engine.Query{Table: "t", Filters: []engine.Filter{allRange()}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Next(); err != nil {
		t.Fatalf("first chunk: %v", err)
	}
	cancel()
	for {
		_, err = st.Next()
		if err != nil {
			break
		}
	}
	if !errors.Is(err, context.Canceled) && err != io.EOF {
		t.Fatalf("Next after cancel = %v, want context.Canceled (or EOF if the race finished first)", err)
	}
	st.Close()
	// The connection survives the cancelled stream.
	if n, err := c.Rows("t"); err != nil || n != 50 {
		t.Fatalf("Rows after cancelled stream = %d, %v", n, err)
	}
}

// TestStreamCloseMidway abandons a stream without reading it to the end;
// Close must cancel server-side, drain, and keep the connection healthy.
func TestStreamCloseMidway(t *testing.T) {
	_, addr := startStreamServer(t, 2)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	loadPlainRows(t, c, "t", 60)

	st, err := c.SelectStream(context.Background(), engine.Query{Table: "t", Filters: []engine.Filter{allRange()}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Next(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Rows("t"); err != nil || n != 60 {
		t.Fatalf("Rows after abandoned stream = %d, %v", n, err)
	}
}

// TestConcurrentStreamsAndCalls interleaves streams with ordinary calls on
// one connection.
func TestConcurrentStreamsAndCalls(t *testing.T) {
	_, addr := startStreamServer(t, 2)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	loadPlainRows(t, c, "t", 40)

	st, err := c.SelectStream(context.Background(), engine.Query{Table: "t", Filters: []engine.Filter{allRange()}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rows := 0
	for {
		chunk, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rows += chunk.Count
		// An unrelated call on the same connection mid-stream.
		if _, err := c.Rows("t"); err != nil {
			t.Fatalf("interleaved Rows: %v", err)
		}
	}
	if rows != 40 {
		t.Fatalf("streamed rows = %d, want 40", rows)
	}
}
