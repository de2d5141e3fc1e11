package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
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
