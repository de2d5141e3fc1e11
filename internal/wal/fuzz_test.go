package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/engine"
)

// claimFrame is a frame header claiming size payload bytes followed by
// payload, whatever its real length.
func claimFrame(size uint32, payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, size)
	b = binary.LittleEndian.AppendUint32(b, 0)
	return append(b, payload...)
}

// FuzzReadFrame feeds arbitrary segment bytes to the recovery reader. It must
// never panic, and every payload it accepts must re-frame to exactly the
// bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	valid := appendFrame(nil, []byte("a record payload"))
	crcFlip := bytes.Clone(valid)
	crcFlip[4] ^= 1
	f.Add(valid)
	f.Add(valid[:frameHeaderLen-3]) // truncated header
	f.Add(valid[:len(valid)-2])     // truncated payload
	f.Add(crcFlip)                  // checksum mismatch
	f.Add(claimFrame(1<<30, valid)) // 1 GiB length claim, a few bytes behind it
	f.Add(appendFrame(valid, nil))  // two frames, the second empty
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			if err != io.EOF && !errors.Is(err, errTorn) {
				t.Fatalf("readFrame error %v is neither io.EOF nor errTorn", err)
			}
			return
		}
		if got := appendFrame(nil, payload); !bytes.HasPrefix(data, got) {
			t.Fatalf("accepted payload re-frames to %x, input starts %x", got, data[:min(len(data), len(got))])
		}
	})
}

// TestReadFrameHugeClaimAllocatesLittle pins that a torn header claiming
// 1 GiB with 10 payload bytes behind it is reported torn without allocating
// anything near the claim.
func TestReadFrameHugeClaimAllocatesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	data := claimFrame(1<<30, make([]byte, 10))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errTorn) {
		t.Fatalf("readFrame = %v, want errTorn", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("readFrame allocated %d bytes for a 10-byte payload, want < 1 MiB", d)
	}
}

// FuzzDecodeRecord feeds arbitrary payloads to the record decoder, seeded
// with one record of each type. Recovery decodes whatever payload a frame's
// CRC vouches for, so it must never panic, and every payload it accepts
// must re-encode to a payload that decodes to an equal record.
func FuzzDecodeRecord(f *testing.F) {
	split, err := dict.Build([][]byte{[]byte("b"), []byte("a"), []byte("b")},
		dict.Params{Kind: dict.ED2, MaxLen: 4, Plain: true, Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		f.Fatal(err)
	}
	schema := &engine.Schema{Table: "t", Columns: []engine.ColumnDef{
		{Name: "k", Kind: dict.ED1, MaxLen: 1 << 16, Plain: true},
		{Name: "v", Kind: dict.ED5, MaxLen: 8, BSMax: 3},
	}}
	for _, rec := range []*engine.LogRecord{
		{Type: engine.RecordWrite, LSN: 7, Table: "t", Gen: 2, Base: 40, Removed: []uint32{3, 1 << 20},
			Rows: []engine.Row{{"k": []byte("k1"), "v": nil}, {"k": {}, "v": []byte("x")}}},
		{Type: engine.RecordCreate, LSN: 1, Table: "t", Schema: schema},
		{Type: engine.RecordDrop, LSN: 9, Table: "t", Gen: 3},
		{Type: engine.RecordImport, LSN: 2, Table: "t", Column: "k", Split: split},
	} {
		frame, err := encodeRecord(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[frameHeaderLen:])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeRecord(payload)
		if err != nil {
			return
		}
		frame, err := encodeRecord(rec)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		again, err := decodeRecord(frame[frameHeaderLen:])
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, rec) {
			t.Fatalf("re-encode changed the record:\n got %+v\nwant %+v", again, rec)
		}
	})
}
