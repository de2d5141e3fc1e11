package wire

import (
	"context"
	"encoding/binary"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/engine"
)

// frameTap relays client connections to a server and counts the frames that
// cross it: every request frame's op, and the number of reply frames.
type frameTap struct {
	mu      sync.Mutex
	ops     []op
	replies int
}

// startFrameTap listens on a loopback port and relays each accepted
// connection to server, hello first, then frame by frame.
func startFrameTap(t *testing.T, server string) (*frameTap, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	tap := &frameTap{}
	go func() {
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			upstream, err := net.Dial("tcp", server)
			if err != nil {
				client.Close()
				return
			}
			t.Cleanup(func() { client.Close(); upstream.Close() })
			go tap.relay(client, upstream, true)
			go tap.relay(upstream, client, false)
		}
	}()
	return tap, ln.Addr().String()
}

// relay copies the 5-byte hello and then whole frames from src to dst,
// recording each before it is forwarded.
func (tap *frameTap) relay(src, dst net.Conn, requests bool) {
	defer dst.Close()
	hello := make([]byte, 5)
	if _, err := io.ReadFull(src, hello); err != nil {
		return
	}
	if _, err := dst.Write(hello); err != nil {
		return
	}
	for {
		hdr := make([]byte, headerLen)
		if _, err := io.ReadFull(src, hdr); err != nil {
			return
		}
		payload := make([]byte, binary.BigEndian.Uint32(hdr[:4]))
		if _, err := io.ReadFull(src, payload); err != nil {
			return
		}
		tap.mu.Lock()
		if requests {
			tap.ops = append(tap.ops, op(payload[1])) // after the codec tag
		} else {
			tap.replies++
		}
		tap.mu.Unlock()
		if _, err := dst.Write(append(hdr, payload...)); err != nil {
			return
		}
	}
}

// take returns the frames counted since the last take and resets the counts.
func (tap *frameTap) take() (ops []op, replies int) {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	ops, replies = tap.ops, tap.replies
	tap.ops, tap.replies = nil, 0
	return ops, replies
}

// TestSelectFrameCounts pins the cost of the one select op in frames: one
// request frame, and ⌈N/c⌉ reply frames for an N-row answer at chunk size c,
// because the last chunk carries the end of the stream itself. A point
// lookup, an empty answer and a COUNT(*) answer are one frame each way, and
// closing a stream whose final frame has arrived sends no opCancel — also
// when Close comes before Next has reported io.EOF.
func TestSelectFrameCounts(t *testing.T) {
	const chunk, rows = 4, 19
	_, addr := startStreamServer(t, chunk)
	tap, tapAddr := startFrameTap(t, addr)
	c, err := Dial(tapAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	loadPlainRows(t, c, "t", rows)
	eq := func(v string) engine.Filter {
		return engine.SingleRange("c", enclave.EncRange{Start: []byte(v), End: []byte(v), StartIncl: true, EndIncl: true})
	}
	cases := []struct {
		name          string
		q             engine.Query
		rows, replies int
		closeEarly    bool // Close once the last chunk is in, before io.EOF
	}{
		{name: "point", q: engine.Query{Filters: []engine.Filter{eq("v007")}}, rows: 1, replies: 1},
		{name: "point_close_early", q: engine.Query{Filters: []engine.Filter{eq("v007")}}, rows: 1, replies: 1, closeEarly: true},
		{name: "empty", q: engine.Query{Filters: []engine.Filter{eq("x")}}, rows: 0, replies: 1},
		{name: "count", q: engine.Query{Filters: []engine.Filter{allRange()}, CountOnly: true}, rows: 0, replies: 1},
		{name: "one_chunk", q: engine.Query{Limit: chunk}, rows: chunk, replies: 1},
		{name: "two_chunks", q: engine.Query{Limit: chunk + 1}, rows: chunk + 1, replies: 2},
		{name: "all", q: engine.Query{Filters: []engine.Filter{allRange()}}, rows: rows, replies: (rows + chunk - 1) / chunk},
		{name: "all_close_early", q: engine.Query{}, rows: rows, replies: (rows + chunk - 1) / chunk, closeEarly: true},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.q.Table = "t"
			tap.take()
			st, err := c.SelectStream(ctx, tc.q)
			if err != nil {
				t.Fatal(err)
			}
			got := 0
			for got < tc.rows || !tc.closeEarly {
				res, err := st.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				got += res.Count
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if got != tc.rows {
				t.Errorf("%d rows, want %d", got, tc.rows)
			}
			wantCount := tc.rows
			if tc.q.CountOnly {
				wantCount = rows
			}
			if st.Count() != wantCount {
				t.Errorf("Count = %d, want %d", st.Count(), wantCount)
			}
			// A later round trip on the connection; a stray opCancel from
			// Close would be sent before or beside it.
			if _, err := c.Rows("t"); err != nil {
				t.Fatal(err)
			}
			time.Sleep(20 * time.Millisecond)
			ops, replies := tap.take()
			if want := []op{opSelect, opRows}; !slices.Equal(ops, want) {
				t.Errorf("request frames %v, want %v (select, rows)", ops, want)
			}
			if replies-1 != tc.replies {
				t.Errorf("%d reply frames to the select, want %d", replies-1, tc.replies)
			}
		})
	}
}
