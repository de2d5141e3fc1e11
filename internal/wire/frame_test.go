package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"github.com/encdbdb/encdbdb/internal/bufpool"
	"github.com/encdbdb/encdbdb/internal/engine"
)

// rawFrame builds one frame byte for byte: [u32 length][u64 id][payload].
func rawFrame(id uint64, payload []byte) []byte {
	hdr := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	hdr = binary.BigEndian.AppendUint64(hdr, id)
	return append(hdr, payload...)
}

func TestFrameRoundTrip(t *testing.T) {
	f := func(id uint64, payload []byte) bool {
		fr := &frameReader{r: bytes.NewReader(rawFrame(id, payload))}
		gotID, buf, err := fr.readPooled()
		if err != nil {
			return false
		}
		defer bufpool.Put(buf)
		return gotID == id && bytes.Equal(buf.B, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	hdr := rawFrame(1, nil)
	copy(hdr, []byte{0xFF, 0xFF, 0xFF, 0xFF}) // ~4 GiB announced
	fr := &frameReader{r: bytes.NewReader(hdr)}
	if _, _, err := fr.readPooled(); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	raw := rawFrame(1, []byte("hello"))
	for _, n := range []int{0, 2, 4, 12, len(raw) - 1} {
		fr := &frameReader{r: bytes.NewReader(raw[:n])}
		if _, _, err := fr.readPooled(); err == nil {
			t.Errorf("truncated frame at %d accepted", n)
		}
	}
}

func TestReadFrameEmptyPayload(t *testing.T) {
	fr := &frameReader{r: bytes.NewReader(rawFrame(1, nil))}
	_, buf, err := fr.readPooled()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf.B) != 0 {
		t.Errorf("payload = %v", buf.B)
	}
	if _, _, err := fr.readPooled(); err != io.EOF {
		t.Errorf("second read err = %v, want EOF", err)
	}
}

// TestFrameHeaderClaimsCostLittle is the frame-header memory attack: 16
// connections each send the hello, a frame header claiming maxFrame bytes,
// and one payload byte. The provider must grow its heap by what arrived,
// not by what was claimed, and keep answering a legitimate client.
func TestFrameHeaderClaimsCostLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	srv := NewServer(engine.New(nil), func(string, ...any) {}) // the cut-off attackers are logged
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // ends with Close
	defer srv.Close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	attack := append(append(helloMagic[:], protoVersion), rawFrame(1, []byte{0})...)
	binary.BigEndian.PutUint32(attack[5:], maxFrame)
	for range 16 {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(attack); err != nil {
			t.Fatal(err)
		}
	}
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Tables(); err != nil {
		t.Fatalf("legitimate client beside the attack: %v", err)
	}
	time.Sleep(100 * time.Millisecond) // every attacking header has been read by now
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapInuse) - int64(before.HeapInuse); grew >= 16<<20 {
		t.Errorf("heap grew %d MiB for 16 one-byte frames claiming %d MiB each", grew>>20, maxFrame>>20)
	}
}

// FuzzFrameReader feeds arbitrary connection bytes to the frame reader. It
// must never panic, and every frame it accepts must re-frame to exactly the
// bytes it consumed.
func FuzzFrameReader(f *testing.F) {
	valid := rawFrame(7, []byte("a frame payload"))
	f.Add(valid)
	f.Add(valid[:5])               // truncated header
	f.Add(valid[:len(valid)-2])    // truncated payload
	f.Add(append(valid, valid...)) // two frames
	claim := rawFrame(1, []byte{1, 2, 3})
	binary.BigEndian.PutUint32(claim, maxFrame) // 1 GiB claimed, 3 bytes sent
	f.Add(claim)
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := &frameReader{r: bytes.NewReader(data)}
		off := 0
		for {
			id, buf, err := fr.readPooled()
			if err != nil {
				return
			}
			got := rawFrame(id, buf.B)
			if !bytes.Equal(data[off:off+len(got)], got) {
				t.Fatalf("frame at %d re-frames to %x, input holds %x", off, got, data[off:off+len(got)])
			}
			off += len(got)
			bufpool.Put(buf)
		}
	})
}
