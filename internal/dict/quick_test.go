package dict

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/encdbdb/encdbdb/internal/pae"
)

// quickColumn generates random NUL-free columns for testing/quick: a small
// vocabulary drives high duplication, the adversarial regime for the
// repetition options.
type quickColumn [][]byte

// Generate implements quick.Generator.
func (quickColumn) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(size*4 + 1)
	u := 1 + r.Intn(size/2+1)
	vocab := make([][]byte, u)
	for i := range vocab {
		l := 1 + r.Intn(6)
		v := make([]byte, l)
		for j := range v {
			v[j] = byte('a' + r.Intn(6))
		}
		vocab[i] = v
	}
	col := make(quickColumn, n)
	for i := range col {
		col[i] = vocab[r.Intn(u)]
	}
	return reflect.ValueOf(col)
}

// quickKind generates a random encrypted dictionary kind.
type quickKind Kind

// Generate implements quick.Generator.
func (quickKind) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(quickKind(ED1 + Kind(r.Intn(9))))
}

func TestQuickSplitCorrectnessAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := func(col quickColumn, k quickKind, bsmaxSeed uint8) bool {
		p := Params{
			Kind:   Kind(k),
			MaxLen: 8,
			BSMax:  1 + int(bsmaxSeed%7),
			Plain:  true,
			Rand:   rng,
		}
		s, err := Build(col, p)
		if err != nil {
			return false
		}
		return s.VerifyCorrectness(col, func(b []byte) ([]byte, error) { return b, nil }) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickSplitDataRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	cipher, err := pae.NewCipher(pae.MustGen())
	if err != nil {
		t.Fatal(err)
	}
	f := func(col quickColumn, k quickKind) bool {
		s, err := Build(col, Params{
			Kind: Kind(k), MaxLen: 8, BSMax: 3, Cipher: cipher, Rand: rng,
		})
		if err != nil {
			return false
		}
		b := s.AppendBinary(nil)
		back, err := DecodeSplit(b)
		if err != nil {
			return false
		}
		if back.Len() != s.Len() || back.Rows() != s.Rows() || back.Kind != s.Kind ||
			!bytes.Equal(back.AppendBinary(nil), b) {
			return false
		}
		for i := 0; i < s.Len(); i++ {
			if string(back.AppendEntry(nil, i)) != string(s.AppendEntry(nil, i)) {
				return false
			}
		}
		return back.VerifyCorrectness(col, cipher.Decrypt) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickDecodeSplitRejectsCorruptRefs rewrites the first head offset and
// row 0's code in a split's bytes: DecodeSplit must refuse what would reach
// past the tail or the dictionary, and whatever it accepts must stay in
// bounds.
func TestQuickDecodeSplitRejectsCorruptRefs(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	// |D| = 3 at 2 bits per code: code 3 is representable and out of range.
	col := quickColumn{[]byte("aa"), []byte("bb"), []byte("cc"), []byte("aa")}
	s, err := Build(col, Params{Kind: ED1, MaxLen: 8, Plain: true, Rand: rng})
	if err != nil {
		t.Fatal(err)
	}
	good := s.AppendBinary(nil)
	// A plain ED1 split has no rotation header: the slice words start after
	// kind, plain, MaxLen, BSMax, the salt, the empty header, rows, width
	// and count.
	const wordsAt = 1 + 1 + 4 + 4 + 8 + 4 + 4 + 1 + 4
	headAt := len(good) - 4 - len(s.Tail()) - s.Len()*headRefSize
	f := func(off uint32, avVid uint32) bool {
		off %= uint32(len(s.Tail()) + 2) // mostly near or inside the tail
		b := bytes.Clone(good)
		binary.LittleEndian.PutUint32(b[headAt:], off)
		for j := 0; j < 2; j++ { // row 0 is bit 0 of each slice word
			b[wordsAt+8*j] = b[wordsAt+8*j]&^1 | byte(avVid>>j&1)
		}
		back, err := DecodeSplit(b)
		if err != nil {
			return true // rejected: fine
		}
		// Accepted: every access must stay in bounds.
		if int(back.VID(0)) >= back.Len() || int(off) >= len(s.Tail()) {
			return false
		}
		for i := 0; i < back.Len(); i++ {
			_ = back.AppendEntry(nil, i)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
