package dict

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"github.com/encdbdb/encdbdb/internal/av"
	"github.com/encdbdb/encdbdb/internal/pae"
)

// layoutOffsets locates the sections of a split's binary layout: the slice
// words, the block metadata and the head.
func layoutOffsets(s *Split) (words, blocks, head int) {
	words = 1 + 1 + 4 + 4 + saltSize + 4 + len(s.EncRndOffset) + 4 + 1 + 4
	blocks = words + 8*len(s.packed.Words()) + 4
	head = blocks + blockSize*len(s.packed.Blocks()) + 4 + 8*len(s.packed.Runs()) + 4
	return words, blocks, head
}

// mixedSplit builds a plain ED1 split of four 1024-row blocks: block 0
// draws from 3000 values, so its codes span the dictionary and it stays
// packed; blocks 1-3 draw from 64 neighbouring values each (FoR). |D| is no
// power of two, so the code width holds codes >= |D|.
func mixedSplit(t testing.TB) *Split {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	col := make([][]byte, 4*av.BlockRows)
	for i := range col {
		v := rng.Intn(3000)
		if i >= av.BlockRows {
			v = (i/av.BlockRows)*700 + rng.Intn(64)
		}
		col[i] = []byte(fmt.Sprintf("%04d", v))
	}
	s, err := Build(col, Params{Kind: ED1, MaxLen: 8, Plain: true, Rand: rng})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len()&(s.Len()-1) == 0 {
		t.Fatalf("|D| = %d is a power of two", s.Len())
	}
	return s
}

// TestDecodeSplitRejects rewrites a valid split's bytes into each malformed
// form an untrusted file or peer could send; DecodeSplit must refuse all of
// them, out-of-range codes in packed and FoR blocks included.
func TestDecodeSplitRejects(t *testing.T) {
	s := mixedSplit(t)
	good := s.AppendBinary(nil)
	if back, err := DecodeSplit(good); err != nil {
		t.Fatalf("DecodeSplit(valid): %v", err)
	} else if !bytes.Equal(back.AppendBinary(nil), good) {
		t.Fatal("round trip changed the bytes")
	}
	wordsAt, blocksAt, headAt := layoutOffsets(s)
	blockOf := func(enc av.Encoding) (int, av.Block) {
		for i, b := range s.packed.Blocks() {
			if b.Enc == enc && b.W > 0 {
				return blocksAt + blockSize*i, b
			}
		}
		t.Fatalf("no %v block", enc)
		return 0, av.Block{}
	}
	le := binary.LittleEndian
	cases := map[string]func(b []byte) []byte{
		"invalid kind":     func(b []byte) []byte { b[0] = 0; return b },
		"plain flag 2":     func(b []byte) []byte { b[1] = 2; return b },
		"zero max length":  func(b []byte) []byte { le.PutUint32(b[2:], 0); return b },
		"truncated":        func(b []byte) []byte { return b[:len(b)-1] },
		"trailing byte":    func(b []byte) []byte { return append(b, 0) },
		"wrong width":      func(b []byte) []byte { b[wordsAt-5]++; return b },
		"word count short": func(b []byte) []byte { le.PutUint32(b[wordsAt-4:], le.Uint32(b[wordsAt-4:])-1); return b },
		"head offset past tail": func(b []byte) []byte {
			le.PutUint32(b[headAt:], 1<<30)
			return b
		},
		"head offset at tail end": func(b []byte) []byte {
			le.PutUint32(b[headAt:], uint32(len(s.tail)))
			return b
		},
		"length prefix past tail": func(b []byte) []byte {
			// The tail's last byte, read as a prefix, claims >= 1 byte.
			le.PutUint32(b[headAt:], uint32(len(s.tail)-1))
			return b
		},
		"entry over max length": func(b []byte) []byte { le.PutUint32(b[2:], 3); return b },
		"packed code >= |D|": func(b []byte) []byte {
			_, blk := blockOf(av.EncPacked)
			for j := range int(blk.W) { // the block's row 0 holds 2^w-1
				b[wordsAt+8*(int(blk.Off)+j)] |= 1
			}
			return b
		},
		"FoR code >= |D|": func(b []byte) []byte {
			at, _ := blockOf(av.EncFoR)
			le.PutUint32(b[at+2:], uint32(s.Len()-1)) // a valid base; every non-zero residual overflows
			return b
		},
	}
	for name, mut := range cases {
		if _, err := DecodeSplit(mut(bytes.Clone(good))); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	if z, err := DecodeSplit(zeroWidthSplit(t, 5)); err != nil || z.Rows() != 5 {
		t.Errorf("zero-width split of 5 rows: %v", err)
	}
	if _, err := DecodeSplit(zeroWidthSplit(t, 1<<32-1)); err == nil {
		t.Error("2^32-1 rows accepted")
	}

	rot, err := Build([][]byte{[]byte("a"), []byte("b")}, Params{Kind: ED2, MaxLen: 4, Plain: true, Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	rot.EncRndOffset = nil
	if _, err := DecodeSplit(rot.AppendBinary(nil)); err == nil {
		t.Error("rotated dictionary without rotation header accepted")
	}
}

// zeroWidthSplit returns the bytes of a plain ED1 split over one entry
// (|D| = 1, a zero-width vector with no words) claiming rows rows.
func zeroWidthSplit(t testing.TB, rows uint32) []byte {
	t.Helper()
	s, err := Build([][]byte{[]byte("a")}, Params{Kind: ED1, MaxLen: 4, Plain: true, Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	b := s.AppendBinary(nil)
	wordsAt, _, _ := layoutOffsets(s)
	binary.LittleEndian.PutUint32(b[wordsAt-9:], rows)
	return b
}

// FuzzDecodeSplit feeds DecodeSplit arbitrary bytes, seeded with splits of
// several kinds and vector encodings. It must never panic, and whatever it
// accepts must answer Get and Unpack alike with codes < |D|, and reach every
// entry inside the tail.
func FuzzDecodeSplit(f *testing.F) {
	rng := rand.New(rand.NewSource(42))
	f.Add(mixedSplit(f).AppendBinary(nil))
	for _, k := range []Kind{ED1, ED2, ED5, ED9} {
		col := make([][]byte, 200)
		for i := range col {
			col[i] = []byte(fmt.Sprintf("v%d", i/7))
		}
		s, err := Build(col, Params{Kind: k, MaxLen: 8, BSMax: 3, Plain: true, Rand: rng})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(s.AppendBinary(nil))
	}
	f.Add(Empty(ED3, 8, 0, false).AppendBinary(nil))
	f.Add(zeroWidthSplit(f, 1<<32-1))
	c, err := pae.NewCipher(pae.MustGen())
	if err != nil {
		f.Fatal(err)
	}
	enc, err := Build(strs("Jessica", "Hans", "Archie", "Hans"), Params{Kind: ED5, MaxLen: 8, BSMax: 2, Cipher: c, Rand: rng})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc.AppendBinary(nil))
	// zeroWidthSplit's tail is uvarint(1) ‖ "a", behind its u32 length and
	// the head's one offset. Seed a split whose offset is the tail's end,
	// and one whose length prefix runs past the tail.
	z := zeroWidthSplit(f, 1)
	at := bytes.Clone(z)
	binary.LittleEndian.PutUint32(at[len(at)-2-4-headRefSize:], 2)
	f.Add(at)
	past := bytes.Clone(z)
	past[len(past)-2] = 0x7f // the prefix claims 127 bytes, 1 is left
	f.Add(past)
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := DecodeSplit(b)
		if err != nil || s.Rows() > 1<<20 {
			return // a zero-width vector claims rows it holds no bytes for
		}
		codes := s.AVCodes()
		if len(codes) != s.Rows() {
			t.Fatalf("Unpack has %d codes for %d rows", len(codes), s.Rows())
		}
		for j, c := range codes {
			if c != s.VID(j) {
				t.Fatalf("row %d: Unpack %d, Get %d", j, c, s.VID(j))
			}
			if int(c) >= s.Len() {
				t.Fatalf("row %d: code %d >= |D| = %d", j, c, s.Len())
			}
		}
		for i := 0; i < s.Len(); i++ {
			_ = s.AppendEntry(nil, i)
		}
	})
}
