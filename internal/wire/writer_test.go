package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"

	"github.com/encdbdb/encdbdb/internal/bufpool"
	"github.com/encdbdb/encdbdb/internal/engine"
)

// goldenFrames holds the SHA-256 of every frame goldenCases renders under
// request ID 7. The digests were taken from the two-pass writer this package
// had before its one append encoder (which sized each message with a counting
// pass, then wrote it field by field into the connection's bufio.Writer), so
// they pin the wire bytes across that change and any later one. Protocol 6
// appended the 8-byte schema digest to every encoded engine.Query, which
// changed exactly the two cases that carry one: req/point_select and
// req/count_only. Protocol 7 gave every write its own 8-byte schema digest,
// behind the presence mask, and imports dict's split layout with derived
// entry IVs and 4-byte heads: it changed exactly the write cases
// (req/insert_empty, req/insert_one_column, req/batch_one_column,
// req/update, and req/delete, new with it) and the two imports that carry
// entries (req/import_plain, req/import_large).
var goldenFrames = map[string]string{
	"req/batch_one_column":  "c85ed9eae028d608e16a5ced6df0622f6fef3dd83332048d16f58292c1b957b0",
	"req/cancel":            "003ec2e2ab7859c125b8065cc1b0b3b897b832d7560f26da1e38e4dfdeec407d",
	"req/count_only":        "f4ccbf07e02e0cb928238a11f76bf245e4284fe07a482dd2c79aa08c9c572cd6",
	"req/create_table":      "bf1b66f368b7e231fbaa4b7d9868f2e08706c69665d6507410c0f86d1d26b5f0",
	"req/delete":            "3249a1d75fe1f1c208949002a549728c93729cf33f7fc8cea8b4355a832aa02d",
	"req/import_empty":      "6a0d215387edc1edf41106a71d308586dde3de23a252a5764c34a28f40066d96",
	"req/import_large":      "eb2ed39fe1e920f14bcc8aba26a5f19af767ec0f32a1104ed8ee639fe5c29509",
	"req/import_plain":      "094433652b996960ef501f47d36c24aaf2a39ba31b6ed607bedfdb24e41b896c",
	"req/insert_empty":      "c9cc1959154b3402bc0038fb0a0acfb7c028bc552dfa552da6f249715ffd06a5",
	"req/insert_one_column": "84b4ccc9e9be17d6ed3bb39f1794ae6da4eb1383c25eba6fb127fa7e23a9b360",
	"req/point_select":      "81d06c25a399abcfa2c95aa982f024cb4417e8d143e3bb78bec295f7b33529df",
	"req/provision":         "904615804bb7377cc98dbdacc6bbfbda0da9c1a445f9cb97396119f5d01d9bdb",
	"req/quote":             "c545f9c043620dc2a2a5dcd23c927a93e13ff2642d3278c97491ae15cd584c3c",
	"req/update":            "294ce9d2439f71fcbfa2348fe4d301f10bf2d79752993a0ddb0af475a473f4b7",
	"resp/ack":              "e2e6f327dca0decae5603d972423c58422a411b5231b68e8daae19a905787021",
	"resp/chunk":            "a76063d288b4f8bb513f75e25f02180fa70c2e9d7ea445814f8ef8b7b87f45ed",
	"resp/error":            "0c428915781d638aadf901a94c08acb8afac6a8657bd3ea3b36eb8882538070d",
	"resp/merge":            "b76d105fa5f43d34ca2e1ae67df98ebd4e6d1d9ed9d1ec82f2b0b9b2b70493e1",
	"resp/quote":            "f965c6bac161d8277e01dc3ff2f20d80090abe8aa316f53612b19d17ccaacfbb",
	"resp/result":           "62c1bd29e417fe93ab23d3e96fe0f17314d70d847788fcb7de4649055cba4aa8",
	"resp/result_100":       "f7335ebc57f026f296ca4d37e8e56936bf10800e5b83d13bd2376da494284587",
	"resp/result_chunk":     "edf8027cf1a129953f7476bbbdfb9fcec623c16fc1db2c2cb33e8fd5ab41d406",
	"resp/result_empty":     "8f4a18329e450ea7f07974538db28212959ca58841fcf39c6fe8211116121f61",
	"resp/schema":           "9f84f7b0524db6f704f595051afe899961d0cbfadd4af51ed3dc08f891ea71fa",
	"resp/tables":           "5994b67002aa699962ab8fb2aa6331f40b377cb0475924ae9ad563747011a74c",
}

// goldenCases is the codec test's request and response table, less the
// requests holding a row of several columns: a row is a map, so those
// encode in Go's randomized iteration order. One-column insert cases stand
// in for them.
func goldenCases() map[string]message {
	cases := map[string]message{}
	for name, req := range binRequestCases() {
		if !hasWideRow(req) {
			cases["req/"+name] = req
		}
	}
	for name, resp := range binResponseCases() {
		cases["resp/"+name] = resp
	}
	rows := insertRows(100)
	for _, row := range rows {
		delete(row, "v")
	}
	cases["req/batch_one_column"] = &request{Op: opInsert, Table: "t", Rows: rows}
	cases["req/insert_one_column"] = &request{Op: opInsert, Table: "t", Rows: []engine.Row{{"b": nil}, {"c": {}}}}
	cases["resp/result_chunk"] = resultChunk()
	return cases
}

// hasWideRow reports whether req carries a row of more than one column.
func hasWideRow(req *request) bool {
	if len(req.Set) > 1 {
		return true
	}
	for _, row := range req.Rows {
		if len(row) > 1 {
			return true
		}
	}
	return false
}

// resultChunk is a result-heavy stream chunk: 1,024 rows of three 48-byte
// cells, a frame of about 150 KB.
func resultChunk() *response {
	const rows, cols, cellLen = 1024, 3, 48
	res := &engine.Result{Count: rows}
	for c := 0; c < cols; c++ {
		cells := make([][]byte, rows)
		for i := range cells {
			cells[i] = bytes.Repeat([]byte{byte(c + i)}, cellLen)
		}
		res.Columns = append(res.Columns, engine.ResultColumn{Table: "wide", Column: fmt.Sprintf("c%d", c), Cells: cells})
	}
	return &response{N: 10_000, More: true, Result: res}
}

func TestFramesMatchGolden(t *testing.T) {
	cases := goldenCases()
	if len(cases) != len(goldenFrames) {
		t.Errorf("%d cases, %d golden digests", len(cases), len(goldenFrames))
	}
	for name, m := range cases {
		sum := sha256.Sum256(frameOf(t, 7, m))
		if got := hex.EncodeToString(sum[:]); got != goldenFrames[name] {
			t.Errorf("%s: frame digest %s, want %s", name, got, goldenFrames[name])
		}
	}
}

// countingWriter counts the Write calls that reach it.
type countingWriter struct{ writes, n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.n += len(p)
	return len(p), nil
}

// TestChunkFrameWriteCalls: a frame is encoded whole before it is written,
// so a result chunk many times the connection's 4 KiB write buffer reaches
// the connection in one or two Write calls, not one per buffer's worth.
func TestChunkFrameWriteCalls(t *testing.T) {
	var w countingWriter
	if err := newMuxWriter(&w).send(1, resultChunk()); err != nil {
		t.Fatal(err)
	}
	if w.writes > 2 {
		t.Errorf("a %d-byte frame took %d Write calls, want <= 2", w.n, w.writes)
	}
}

// TestConcurrentSendersFramesIntact has eight goroutines send frames from
// 100 B to 2 MiB over one muxWriter into a pipe. Encoding runs outside the
// write lock, so the frames must still reach the reader whole, one after
// another, each under its own ID.
func TestConcurrentSendersFramesIntact(t *testing.T) {
	const senders, perSender = 8, 5
	sizes := []int{100, 3000, 70_000, bufpool.MaxPooled + 100, 2 << 20}
	pr, pw := io.Pipe()
	defer pr.Close() // a reader that gave up must not leave the senders blocked
	mw := newMuxWriter(pw)
	var wg sync.WaitGroup
	errs := make(chan error, senders)
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				id := uint64(g*perSender + i + 1)
				if err := mw.send(id, sizedResponse(id, sizes[(g+i)%len(sizes)])); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	go func() {
		wg.Wait()
		pw.Close()
	}()
	fr := frameReader{r: pr}
	seen := map[uint64]bool{}
	for {
		id, fb, err := fr.readPooled()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		resp, _, err := decodeResponse(fb.B)
		if err != nil {
			t.Fatalf("frame %d: %v", id, err)
		}
		g, i := int(id-1)/perSender, int(id-1)%perSender
		want := sizedResponse(id, sizes[(g+i)%len(sizes)])
		if !reflect.DeepEqual(resp, want) {
			t.Errorf("frame %d arrived damaged", id)
		}
		if seen[id] {
			t.Errorf("frame %d arrived twice", id)
		}
		seen[id] = true
		bufpool.Put(fb)
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if len(seen) != senders*perSender {
		t.Errorf("%d frames arrived, want %d", len(seen), senders*perSender)
	}
}

// sizedResponse is a response whose one cell holds size bytes derived from
// id, so a frame that arrives under the wrong ID or cut short shows.
func sizedResponse(id uint64, size int) *response {
	cell := make([]byte, size)
	for i := range cell {
		cell[i] = byte(id + uint64(i)/251)
	}
	return &response{N: int(id), Result: &engine.Result{Count: 1, Columns: []engine.ResultColumn{{Table: "t", Column: "c", Cells: [][]byte{cell}}}}}
}
