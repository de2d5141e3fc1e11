package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"github.com/encdbdb/encdbdb/internal/codec"
	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/engine"
)

// binEncode returns m's message body: the frame payload after its codec
// tag.
func binEncode(m message) []byte {
	var e codec.Encoder
	m.encode(&e)
	return e.B
}

func binRequestCases() map[string]*request {
	return map[string]*request{
		"point_select": {
			Op:    opSelect,
			Table: "accounts",
			Query: engine.Query{
				Table: "accounts",
				Filters: []engine.Filter{{
					Column: "balance",
					Ranges: []enclave.EncRange{
						{Start: []byte{1, 2, 3}, End: []byte{9}, StartIncl: true},
						{Start: nil, End: []byte{}, EndIncl: true},
					},
				}},
				Project:      []string{"balance", "owner"},
				SchemaDigest: 0x0123456789abcdef,
			},
		},
		"count_only": {
			Op:    opSelect,
			Query: engine.Query{Table: "t", CountOnly: true},
		},
		"insert": {
			Op:    opInsert,
			Table: "t",
			Rows:  []engine.Row{{"a": []byte("x"), "b": nil, "c": {}}},
		},
		// The 100-row INSERT batch ExecBatch ships as one request.
		"batch": {Op: opInsert, Table: "t", Rows: insertRows(100)},
		// A batch of no rows is still a well-formed insert.
		"insert_empty": {Op: opInsert, Table: "t"},
		"update": {
			Op:    opUpdate,
			Table: "t",
			Filters: []engine.Filter{{
				Column: "k",
				Ranges: []enclave.EncRange{{Start: []byte{7}, End: []byte{7}, StartIncl: true, EndIncl: true}},
			}},
			Set:    engine.Row{"v": []byte("new")},
			Digest: 0x0123456789abcdef,
		},
		"delete": {
			Op:      opDelete,
			Table:   "t",
			Filters: []engine.Filter{{Column: "k", Ranges: []enclave.EncRange{{Start: []byte{1}, End: []byte{9}, EndIncl: true}}}},
			Digest:  0xfedcba9876543210,
		},
		"create_table": {
			Op: opCreateTable,
			Schema: engine.Schema{Table: "t", Columns: []engine.ColumnDef{
				{Name: "c", Kind: dict.ED1, MaxLen: 8, Plain: true},
				{Name: "d", Kind: dict.ED5, MaxLen: 32, BSMax: 4},
			}},
		},
		"cancel":    {Op: opCancel, Cancel: 1 << 40},
		"quote":     {Op: opQuote, Nonce: []byte("fresh-nonce")},
		"provision": {Op: opProvision, Sealed: enclave.SealedKey{OwnerPublicKey: bytes.Repeat([]byte{7}, 32), Ciphertext: []byte("sealed")}},
		// An import without split bytes carries no split field at all.
		"import_empty": {Op: opImportColumn, Table: "t", Column: "c"},
		"import_plain": {Op: opImportColumn, Table: "t", Column: "c", Split: plainSplit()},
		"import_large": {Op: opImportColumn, Table: "t", Column: "c", Split: largeSplit()},
	}
}

// insertRows returns n two-column rows whose values differ per row.
func insertRows(n int) []engine.Row {
	rows := make([]engine.Row, n)
	for i := range rows {
		rows[i] = engine.Row{"k": []byte(fmt.Sprintf("key-%03d", i)), "v": bytes.Repeat([]byte{byte(i)}, i%17)}
	}
	return rows
}

// plainSplit is the binary layout of a three-row plain split.
func plainSplit() []byte {
	s, err := dict.Build([][]byte{[]byte("bb"), []byte("a"), []byte("bb")},
		dict.Params{Kind: dict.ED1, MaxLen: 8, Plain: true, Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		panic(err)
	}
	return s.AppendBinary(nil)
}

// largeSplit is the binary layout of a split the size of a real bulk
// import: 70k rows over a 40k-entry dictionary with a 1.2 MiB tail, so the
// frame outgrows the largest pooled size class.
var largeSplit = sync.OnceValue(func() []byte {
	const entries, rows, entryLen = 40_000, 70_000, 30
	col := make([][]byte, rows)
	for i := range col {
		col[i] = fmt.Appendf(bytes.Repeat([]byte{'v'}, entryLen-5), "%05d", i*7919%entries)
	}
	s, err := dict.Build(col, dict.Params{Kind: dict.ED1, MaxLen: entryLen, Plain: true, Rand: rand.New(rand.NewSource(7))})
	if err != nil {
		panic(err)
	}
	return s.AppendBinary(nil)
})

// normalize nils out the empty slices and maps a pooled (or hostile-input)
// decode leaves behind: [:0] slices and cleared maps read equal to their nil
// counterparts but are not DeepEqual to them.
func (req *request) normalize() {
	if len(req.Rows) == 0 {
		req.Rows = nil
	}
	if len(req.Set) == 0 {
		req.Set = nil
	}
	if len(req.Filters) == 0 {
		req.Filters = nil
	}
	if len(req.Query.Filters) == 0 {
		req.Query.Filters = nil
	}
	if len(req.Query.Project) == 0 {
		req.Query.Project = nil
	}
	if len(req.Schema.Columns) == 0 {
		req.Schema.Columns = nil
	}
	for _, fs := range [][]engine.Filter{req.Filters, req.Query.Filters} {
		for i := range fs {
			if len(fs[i].Ranges) == 0 {
				fs[i].Ranges = nil
			}
		}
	}
}

func (resp *response) normalize() {
	if len(resp.Tables) == 0 {
		resp.Tables = nil
	}
}

func TestBinRequestRoundTrip(t *testing.T) {
	for name, req := range binRequestCases() {
		t.Run(name, func(t *testing.T) {
			raw := binEncode(req)
			var d codec.Reader
			d.Reset(raw)
			got := new(request)
			var in codec.Intern
			d.Intern = &in
			decRequest(&d, got)
			if err := d.Err(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, req) {
				t.Errorf("round trip:\n got %+v\nwant %+v", got, req)
			}
		})
	}
}

// TestBinRequestPooledReuse decodes different requests into the same pooled
// envelope, interleaved with resetRequest, proving that retained capacity
// from an earlier decode never leaks into a later one.
func TestBinRequestPooledReuse(t *testing.T) {
	req := new(request)
	var in codec.Intern
	cases := binRequestCases()
	// Two passes so every case also decodes into capacity left by every
	// other case at least once.
	for pass := 0; pass < 2; pass++ {
		for name, want := range cases {
			raw := binEncode(want)
			resetRequest(req)
			var d codec.Reader
			d.Reset(raw)
			d.Intern = &in
			decRequest(&d, req)
			if err := d.Err(); err != nil {
				t.Fatalf("pass %d %s: %v", pass, name, err)
			}
			got := *req
			got.normalize()
			want2 := *want
			if !reflect.DeepEqual(&got, &want2) {
				t.Errorf("pass %d %s:\n got %+v\nwant %+v", pass, name, &got, &want2)
			}
		}
	}
}

func binResponseCases() map[string]*response {
	return map[string]*response{
		"ack":   {N: 3},
		"error": {Err: "wire: server busy"},
		"result": {
			N: 2,
			Result: &engine.Result{
				Count:     2,
				RecordIDs: []uint32{5, 1 << 20},
				Columns: []engine.ResultColumn{{
					Table:  "t",
					Column: "c",
					Cells:  [][]byte{[]byte("aa"), nil, {}},
				}},
			},
		},
		"schema": {
			Schema: engine.Schema{Table: "t", Columns: []engine.ColumnDef{
				{Name: "c", Kind: dict.ED1, MaxLen: 8, Plain: true},
			}},
		},
		"tables": {Tables: []string{"a", "b"}},
		"merge": {
			Merge: engine.MergeInfo{
				Generation: 7, Merging: true, MainRows: 100, DeltaRows: 3,
				DeltaBytes: 4096, SealedRuns: 2, Merges: 6, LastError: "boom",
			},
		},
		// A full-size result chunk and an empty one.
		"result_100":   {N: 100, Result: resultRows(100)},
		"result_empty": {Result: &engine.Result{}},
		"quote": {Quote: enclave.Quote{
			Measurement: enclave.Measure("codec-test"),
			PublicKey:   bytes.Repeat([]byte{9}, 32),
			Nonce:       []byte("fresh-nonce"),
			MAC:         bytes.Repeat([]byte{3}, 32),
		}},
		"chunk": {
			N:      10,
			More:   true,
			Result: &engine.Result{Count: 1, Columns: []engine.ResultColumn{{Table: "t", Column: "c", Cells: [][]byte{[]byte("v")}}}},
		},
	}
}

// resultRows returns a one-column result of n distinct cells.
func resultRows(n int) *engine.Result {
	cells := make([][]byte, n)
	for i := range cells {
		cells[i] = []byte(fmt.Sprintf("cell-%03d", i))
	}
	return &engine.Result{Count: n, Columns: []engine.ResultColumn{{Table: "t", Column: "c", Cells: cells}}}
}

func TestBinResponseRoundTrip(t *testing.T) {
	for name, resp := range binResponseCases() {
		t.Run(name, func(t *testing.T) {
			raw := binEncode(resp)
			var d codec.Reader
			d.Reset(raw)
			got := new(response)
			aliases := decResponse(&d, got)
			if err := d.Err(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, resp) {
				t.Errorf("round trip:\n got %+v\nwant %+v", got, resp)
			}
			wantAliases := resp.Result != nil || resp.Quote.MAC != nil
			if aliases != wantAliases {
				t.Errorf("aliases = %v, want %v", aliases, wantAliases)
			}
		})
	}
}

// TestBinDecodeCorrupt feeds every truncation of valid messages, plus
// trailing garbage and length bombs, to the decoder: each must return
// errCorruptFrame-wrapped errors, never panic or succeed.
func TestBinDecodeCorrupt(t *testing.T) {
	req := binRequestCases()["point_select"]
	raw := binEncode(req)
	for n := 0; n < len(raw); n++ {
		var d codec.Reader
		d.Reset(raw[:n])
		got := new(request)
		var in codec.Intern
		d.Intern = &in
		decRequest(&d, got)
		if d.Err() == nil {
			t.Errorf("truncation at %d decoded cleanly", n)
		}
	}
	// Trailing garbage: the frame and message boundary must coincide.
	var d codec.Reader
	d.Reset(append(append([]byte{}, raw...), 0x00))
	got := new(request)
	var in codec.Intern
	d.Intern = &in
	decRequest(&d, got)
	if d.Err() == nil {
		t.Error("trailing garbage accepted")
	}
	// Length bomb: a huge count must fail the remaining-bytes bound, not
	// drive a huge allocation.
	bomb := []byte{byte(opSelect), 0, 0, 0, reqHasFilters, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}
	d.Reset(bomb)
	resetRequest(got)
	d.Intern = &in
	decRequest(&d, got)
	if d.Err() == nil {
		t.Error("length bomb accepted")
	}
	// The same bomb on a split's byte length.
	bomb = []byte{byte(opImportColumn), 0, 0, 0, 0x80, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}
	d.Reset(bomb)
	resetRequest(got)
	d.Intern = &in
	decRequest(&d, got)
	if d.Err() == nil {
		t.Error("split length bomb accepted")
	}
	// A presence bit this build does not define is corruption, not a field
	// to skip.
	d.Reset([]byte{byte(opRows), 0, 0, 0, 0x80, 0x04})
	resetRequest(got)
	d.Intern = &in
	decRequest(&d, got)
	if d.Err() == nil {
		t.Error("unknown request presence bit accepted")
	}
	d.Reset([]byte{0x80, 0x02, 0})
	decResponse(&d, new(response))
	if d.Err() == nil {
		t.Error("unknown response presence bit accepted")
	}
}

// TestDecodeRejectsNestedSubs replays the layout of protocol version 3's
// batch envelope, where each level is one sub-request (or sub-response)
// holding the next, a million levels deep: what a hostile peer could send
// right after the hello. Version 3 decoded such a frame recursively before
// anything checked the nesting — hundreds of MiB of heap and stack at this
// depth, a fatal stack overflow a few million levels deep. Both decoders
// must now refuse it as a corrupt frame, allocating little and staying
// shallow.
func TestDecodeRejectsNestedSubs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under the race detector")
	}
	const depth = 1_000_000
	// A version 3 request level: op 15 (opBatch), empty table and column,
	// no cancel, presence bit 5 (sub-requests), one sub-request.
	req := append([]byte{codecBin}, bytes.Repeat([]byte{15, 0, 0, 0, 1 << 5, 1}, depth)...)
	req = append(req, 15, 0, 0, 0, 0)
	// A version 3 response level: presence bit 5 (sub-responses), N = 0,
	// one sub-response.
	resp := append([]byte{codecBin}, bytes.Repeat([]byte{1 << 5, 0, 1}, depth)...)
	resp = append(resp, 0, 0)

	var in codec.Intern
	decoders := map[string]func() error{
		"request": func() error {
			_, err := decodeRequest(req, &in)
			return err
		},
		"response": func() error {
			_, _, err := decodeResponse(resp)
			return err
		},
	}
	// With the collector off, a stack grown by deep recursion is still
	// in use when it is measured.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for name, decode := range decoders {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, errCorruptFrame) {
			t.Errorf("%s: err = %v, want errCorruptFrame", name, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("%s: decode allocated %d bytes, want < 1 MiB", name, n)
		}
		if n := int64(after.StackInuse) - int64(before.StackInuse); n >= 1<<20 {
			t.Errorf("%s: decode grew the stack by %d bytes, want < 1 MiB", name, n)
		}
	}
}

// TestMuxWriterFrames sends every table case through the full frame path —
// muxWriter.send, then readPooled and decodeRequest / decodeResponse — under
// distinct request IDs: control ops travel in the same codec-tagged frames
// as the data plane.
func TestMuxWriterFrames(t *testing.T) {
	var buf bytes.Buffer
	mw := newMuxWriter(&buf)
	fr := frameReader{r: &buf}
	var in codec.Intern
	id := uint64(1 << 33)
	for name, want := range binRequestCases() {
		id++
		if err := mw.send(id, want); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gotID, fb, err := fr.readPooled()
		if err != nil || gotID != id || fb.B[0] != codecBin {
			t.Fatalf("%s: frame id=%d tag=%#x err=%v, want id %d tag %#x", name, gotID, fb.B[0], err, id, codecBin)
		}
		req, err := decodeRequest(fb.B, &in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := *req
		got.normalize()
		if !reflect.DeepEqual(&got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", name, &got, want)
		}
		releaseRequest(req, fb)
	}
	for name, want := range binResponseCases() {
		id++
		if err := mw.send(id, want); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gotID, fb, err := fr.readPooled()
		if err != nil || gotID != id {
			t.Fatalf("%s: frame id=%d err=%v, want id %d", name, gotID, err, id)
		}
		got, _, err := decodeResponse(fb.B)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", name, got, want)
		}
	}
	if _, _, err := fr.readPooled(); err != io.EOF {
		t.Fatalf("err = %v, want EOF at stream end", err)
	}
}

// fuzzSeeds adds valid as a seed together with a truncation and a bit flip
// of it.
func fuzzSeeds(f *testing.F, valid []byte) {
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/3] ^= 0x20
	f.Add(flipped)
}

// FuzzDecodeRequest feeds the server's request decoder arbitrary frame
// payloads — what an untrusted peer controls byte for byte, split lengths
// included. It must never panic, and whatever it accepts must survive a
// re-encode: the decoder admits nothing the encoder could not have said.
func FuzzDecodeRequest(f *testing.F) {
	for _, req := range binRequestCases() {
		fuzzSeeds(f, append([]byte{codecBin}, binEncode(req)...))
	}
	// An insert claiming far more rows than its payload holds.
	f.Add([]byte{codecBin, byte(opInsert), 1, 't', 0, 0, reqHasRows, 0xFF, 0xFF, 0x3F, 1, 1, 'k', 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		var in codec.Intern
		req, err := decodeRequest(payload, &in)
		if err != nil {
			return
		}
		again, err := decodeRequest(append([]byte{codecBin}, binEncode(req)...), &in)
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		req.normalize()
		again.normalize()
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("re-encode changed the request:\n got %+v\nwant %+v", again, req)
		}
	})
}

// FuzzDecodeResponse is FuzzDecodeRequest for the client's response decoder.
func FuzzDecodeResponse(f *testing.F) {
	for _, resp := range binResponseCases() {
		fuzzSeeds(f, append([]byte{codecBin}, binEncode(resp)...))
	}
	// A result column claiming far more cells than its payload holds.
	f.Add([]byte{codecBin, respHasResult, 0, 0, 0, 1, 1, 't', 1, 'c', 0xFF, 0xFF, 0x3F, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		resp, _, err := decodeResponse(payload)
		if err != nil {
			return
		}
		again, _, err := decodeResponse(append([]byte{codecBin}, binEncode(resp)...))
		if err != nil {
			t.Fatalf("re-encoded response does not decode: %v", err)
		}
		resp.normalize()
		again.normalize()
		if !reflect.DeepEqual(resp, again) {
			t.Fatalf("re-encode changed the response:\n got %+v\nwant %+v", again, resp)
		}
	})
}

// TestImportSplitOutlivesFrame runs an import through the provider's decode
// and dispatch path, then scribbles over the frame payload it arrived in:
// the engine's split must own its memory, so it still answers as imported.
func TestImportSplitOutlivesFrame(t *testing.T) {
	ctx := context.Background()
	db := engine.New(nil)
	def := engine.ColumnDef{Name: "c", Kind: dict.ED1, MaxLen: 8, Plain: true}
	if err := db.CreateTable(engine.Schema{Table: "t", Columns: []engine.ColumnDef{def}}); err != nil {
		t.Fatal(err)
	}
	want := plainSplit()
	payload := frameOf(t, 1, &request{Op: opImportColumn, Table: "t", Column: "c", Split: want})[12:]
	var in codec.Intern
	req, err := decodeRequest(payload, &in)
	if err != nil {
		t.Fatal(err)
	}
	resp := new(response)
	NewServer(db, t.Logf).dispatch(ctx, req, resp)
	if resp.Err != "" {
		t.Fatalf("import: %s", resp.Err)
	}
	for i := range payload {
		payload[i] = 0xAA
	}
	snap, err := db.Snapshot("t")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.Columns[0].Main.AppendBinary(nil), want) {
		t.Error("the imported split changed with its frame")
	}
	res, err := db.Select(ctx, engine.Query{Table: "t", Project: []string{"c"}, Filters: []engine.Filter{
		engine.SingleRange("c", enclave.EncRange{Start: []byte("bb"), End: []byte("bb"), StartIncl: true, EndIncl: true}),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RecordIDs) != 2 || string(res.Columns[0].Cells[0]) != "bb" {
		t.Errorf("select after scribble: rows %v, cells %q; want rows 0 and 2 holding bb", res.RecordIDs, res.Columns[0].Cells)
	}
}

// TestImportRowsCostBytes imports zero-width splits (|D| = 1, no words):
// one whose row count its bytes pay for is taken, one claiming 2^31-1 rows
// in a few dozen bytes is refused before the engine allocates for them.
func TestImportRowsCostBytes(t *testing.T) {
	ctx := context.Background()
	db := engine.New(nil)
	srv := NewServer(db, t.Logf)
	for _, rows := range []uint32{1000, 1<<31 - 1} {
		table := fmt.Sprintf("t%d", rows)
		def := engine.ColumnDef{Name: "c", Kind: dict.ED1, MaxLen: 8, Plain: true}
		if err := db.CreateTable(engine.Schema{Table: table, Columns: []engine.ColumnDef{def}}); err != nil {
			t.Fatal(err)
		}
		s, err := dict.Build([][]byte{[]byte("a")}, dict.Params{Kind: dict.ED1, MaxLen: 8, Plain: true, Rand: rand.New(rand.NewSource(1))})
		if err != nil {
			t.Fatal(err)
		}
		b := s.AppendBinary(nil)
		// The row count follows kind, plain flag, MaxLen, BSMax, the salt
		// and the empty rotation header.
		binary.LittleEndian.PutUint32(b[22:], rows)
		resp := new(response)
		srv.dispatch(ctx, &request{Op: opImportColumn, Table: table, Column: "c", Split: b}, resp)
		n, _ := db.Rows(table)
		if rows == 1000 && (resp.Err != "" || n != 1000) {
			t.Errorf("1000 rows in %d bytes: err %q, %d rows imported", len(b), resp.Err, n)
		}
		if rows != 1000 && (resp.Err == "" || n != 0) {
			t.Errorf("%d rows in %d bytes: err %q, %d rows imported; want refused", rows, len(b), resp.Err, n)
		}
	}
}
