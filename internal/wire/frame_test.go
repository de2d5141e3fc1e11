package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"github.com/encdbdb/encdbdb/internal/bufpool"
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
