package wire

import (
	"bytes"
	"context"
	"io"
	"testing"

	"github.com/encdbdb/encdbdb/internal/codec"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/engine"
)

// benchClient starts a server, dials it, creates a small plain table, and
// returns the client.
func benchClient(b *testing.B) *Client {
	b.Helper()
	_, addr := startPlainServer(b)
	c, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	if err := c.CreateTable(plainSchema("bench")); err != nil {
		b.Fatal(err)
	}
	if err := c.InsertBatch(context.Background(), "bench", []engine.Row{{"c": []byte("v")}}); err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkRoundTripMultiplexed measures one round trip with a single
// caller on the connection.
func BenchmarkRoundTripMultiplexed(b *testing.B) {
	c := benchClient(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Rows("bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoundTripMultiplexedParallel measures concurrent callers sharing
// one connection.
func BenchmarkRoundTripMultiplexedParallel(b *testing.B) {
	c := benchClient(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := c.Rows("bench"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// The BenchmarkWire* set tracks the zero-alloc wire hot path over a real
// connection. Allocations counted here span both sides plus the engine.

// BenchmarkWireSelect drains a one-row answer as the proxy drains a result
// stream: open it, read chunks to io.EOF, close.
func BenchmarkWireSelect(b *testing.B) {
	c := benchClient(b)
	q := engine.Query{Table: "bench"}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := c.SelectStream(ctx, q)
		if err != nil {
			b.Fatal(err)
		}
		for err == nil {
			_, err = st.Next()
		}
		st.Close()
		if err != io.EOF {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireInsert(b *testing.B) {
	c := benchClient(b)
	ctx := context.Background()
	row := engine.Row{"c": []byte("v")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.InsertBatch(ctx, "bench", []engine.Row{row}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireRows(b *testing.B) {
	c := benchClient(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Rows("bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// The codec-level benchmarks isolate the wire layer itself; the engine
// plays no part. BenchmarkWireEncodeRequest puts one point SELECT request
// on the wire.
func BenchmarkWireEncodeRequest(b *testing.B) {
	mw := newMuxWriter(io.Discard)
	req := benchPointSelect()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := mw.send(uint64(i), req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireDecodeRequest measures the server's whole frame-handling
// cycle — read a frame carrying a point SELECT, decode it, release.
func BenchmarkWireDecodeRequest(b *testing.B) {
	frame := frameOf(b, 1, benchPointSelect())
	r := bytes.NewReader(frame)
	fr := frameReader{r: r}
	var in codec.Intern
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		_, fb, err := fr.readPooled()
		if err != nil {
			b.Fatal(err)
		}
		req, err := decodeRequest(fb.B, &in)
		if err != nil {
			b.Fatal(err)
		}
		releaseRequest(req, fb)
	}
}

func benchPointSelect() *request {
	return &request{
		Op:    opSelect,
		Table: "accounts",
		Query: engine.Query{
			Table: "accounts",
			Filters: []engine.Filter{{
				Column: "balance",
				Ranges: []enclave.EncRange{{Start: []byte{1, 2, 3, 4}, End: []byte{5, 6, 7, 8}, StartIncl: true, EndIncl: true}},
			}},
			Project: []string{"balance"},
		},
	}
}

// BenchmarkInsertBatch100 measures the batched bulk-load fast path: 100
// rows per round trip.
func BenchmarkInsertBatch100(b *testing.B) {
	c := benchClient(b)
	rows := make([]engine.Row, 100)
	for i := range rows {
		rows[i] = engine.Row{"c": []byte("v")}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.InsertBatch(context.Background(), "bench", rows); err != nil {
			b.Fatal(err)
		}
	}
}
