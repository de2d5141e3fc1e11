package wire

import (
	"bytes"
	"io"
	"testing"

	"github.com/encdbdb/encdbdb/internal/bufpool"
	"github.com/encdbdb/encdbdb/internal/codec"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/engine"
)

// measureAllocs asserts a steady-state allocation budget for f. The budgets
// are regression tripwires for the zero-alloc wire hot path: raising one
// needs the same scrutiny as a perf regression.
func measureAllocs(t *testing.T, budget float64, f func()) {
	t.Helper()
	if got := testing.AllocsPerRun(200, f); got > budget {
		t.Errorf("allocs/op = %g, budget %g", got, budget)
	}
}

// frameOf renders one frame (header + codec-tagged payload) the way a peer
// would put it on the wire.
func frameOf(t testing.TB, id uint64, m message) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := newMuxWriter(&buf).send(id, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func allocSelectReq() *request {
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

func allocInsertReq() *request {
	return &request{Op: opInsert, Table: "accounts", Rows: []engine.Row{{"balance": []byte("12345678")}}}
}

// TestAllocBudgets pins the allocation cost of every layer of the wire hot
// path. The server-side paths (frame read, decode, encode, pooled
// envelopes) must be allocation-free in steady state; the client-side
// response decode gets a small explicit budget because results are handed
// to the caller and cannot be pooled.
func TestAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}

	t.Run("bufpool_get_put", func(t *testing.T) {
		measureAllocs(t, 0, func() {
			bufpool.Put(bufpool.Get(4096))
		})
	})

	t.Run("frame_read_pooled", func(t *testing.T) {
		frame := frameOf(t, 42, allocSelectReq())
		r := bytes.NewReader(frame)
		fr := &frameReader{r: r}
		measureAllocs(t, 0, func() {
			r.Reset(frame)
			_, fb, err := fr.readPooled()
			if err != nil {
				t.Fatal(err)
			}
			bufpool.Put(fb)
		})
	})

	t.Run("encode_request", func(t *testing.T) {
		mw := newMuxWriter(io.Discard)
		req := allocSelectReq()
		measureAllocs(t, 0, func() {
			if err := mw.send(1, req); err != nil {
				t.Fatal(err)
			}
		})
	})

	t.Run("encode_response", func(t *testing.T) {
		mw := newMuxWriter(io.Discard)
		resp := &response{
			N: 1,
			Result: &engine.Result{
				Count:     1,
				RecordIDs: []uint32{7},
				Columns:   []engine.ResultColumn{{Table: "accounts", Column: "balance", Cells: [][]byte{[]byte("12345678")}}},
			},
		}
		measureAllocs(t, 0, func() {
			if err := mw.send(1, resp); err != nil {
				t.Fatal(err)
			}
		})
	})

	// The acceptance budget: the server's whole frame cycle for the hot
	// data-plane ops — read the frame, decode into a pooled envelope,
	// encode the pooled response, release everything — allocates nothing
	// in steady state.
	for _, c := range []struct {
		name string
		req  *request
	}{
		{"serve_frame_select", allocSelectReq()},
		{"serve_frame_insert", allocInsertReq()},
	} {
		t.Run(c.name, func(t *testing.T) {
			frame := frameOf(t, 42, c.req)
			r := bytes.NewReader(frame)
			fr := &frameReader{r: r}
			mw := newMuxWriter(io.Discard)
			var in codec.Intern
			measureAllocs(t, 0, func() {
				r.Reset(frame)
				id, fb, err := fr.readPooled()
				if err != nil {
					t.Fatal(err)
				}
				req, err := decodeRequest(fb.B, &in)
				if err != nil {
					t.Fatal(err)
				}
				resp := respPool.Get().(*response)
				resp.N = 1
				if err := mw.send(id, resp); err != nil {
					t.Fatal(err)
				}
				resetResponse(resp)
				respPool.Put(resp)
				releaseRequest(req, fb)
			})
		})
	}

	// A 100-row INSERT batch decodes into the pooled envelope's row maps,
	// which keep their capacity across requests and whose values alias the
	// frame: no allocation per row in steady state.
	t.Run("decode_insert_100", func(t *testing.T) {
		payload := frameOf(t, 42, &request{Op: opInsert, Table: "accounts", Rows: insertRows(100)})[12:]
		var in codec.Intern
		measureAllocs(t, 0, func() {
			req, err := decodeRequest(payload, &in)
			if err != nil {
				t.Fatal(err)
			}
			if len(req.Rows) != 100 {
				t.Fatalf("decoded %d rows, want 100", len(req.Rows))
			}
			resetRequest(req)
			reqPool.Put(req)
		})
	})

	t.Run("decode_response", func(t *testing.T) {
		resp := &response{
			N: 1,
			Result: &engine.Result{
				Count:     1,
				RecordIDs: []uint32{7},
				Columns:   []engine.ResultColumn{{Table: "accounts", Column: "balance", Cells: [][]byte{[]byte("12345678")}}},
			},
		}
		raw := binEncode(resp)
		// The decoded result is handed to the caller, so its backbone
		// (Result struct, ID/column/cell slices, two name strings) is
		// allocated fresh; the cells themselves alias the frame.
		measureAllocs(t, 7, func() {
			var d codec.Reader
			d.Reset(raw)
			got := new(response)
			decResponse(&d, got)
			if err := d.Err(); err != nil {
				t.Fatal(err)
			}
		})
	})
}
