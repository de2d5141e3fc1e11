package dict

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/encdbdb/encdbdb/internal/pae"
	"github.com/encdbdb/encdbdb/internal/workload"
)

// referenceGroupByValue is the comparison-sort grouping groupByValue
// replaced, kept as its specification.
func referenceGroupByValue(col [][]byte) []group {
	idx := make([]int, len(col))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return string(col[idx[a]]) < string(col[idx[b]])
	})
	var groups []group
	for _, j := range idx {
		n := len(groups)
		if n > 0 && string(groups[n-1].value) == string(col[j]) {
			groups[n-1].rows = append(groups[n-1].rows, j)
			continue
		}
		groups = append(groups, group{value: col[j], rows: []int{j}})
	}
	return groups
}

func strs(vs ...string) [][]byte {
	col := make([][]byte, len(vs))
	for i, v := range vs {
		col[i] = []byte(v)
	}
	return col
}

func TestGroupByValueMatchesReference(t *testing.T) {
	longRand := randomColumn(rand.New(rand.NewSource(3)), 5000, 300, 12)
	for i := range longRand {
		if i%3 == 0 { // force shared 8-byte prefixes
			longRand[i] = append([]byte("prefix00"), longRand[i][:min(4, len(longRand[i]))]...)
		}
	}
	cases := map[string][][]byte{
		"empty":     nil,
		"one row":   strs("x"),
		"all equal": strs("same", "same", "same", "same"),
		"shared 8-byte prefix": strs("abcdefghz", "abcdefghij", "abcdefgh", "abcdefghij",
			"abcdefghia", "abcdefgh", "abcdefghz"),
		"mixed lengths": strs("abcdefghij", "ab", "a", "abcdefghij", "b", "ab",
			"abcdefgh", "a", "abcdefg", "abcdefghi"),
		"short random": randomColumn(rand.New(rand.NewSource(1)), 5000, 200, 8),
		"long random":  longRand,
		"C1 10k":       workload.Generate(workload.C1().Scaled(10_000), 1).Values,
		"C2 10k":       workload.Generate(workload.C2().Scaled(10_000), 1).Values,
	}
	for name, col := range cases {
		got, want := groupByValue(col), referenceGroupByValue(col)
		if len(got) != len(want) {
			t.Fatalf("%s: %d groups, want %d", name, len(got), len(want))
		}
		for i := range want {
			if string(got[i].value) != string(want[i].value) || !slices.Equal(got[i].rows, want[i].rows) {
				t.Fatalf("%s: group %d = %q %v, want %q %v", name, i,
					got[i].value, got[i].rows, want[i].value, want[i].rows)
			}
		}
	}
}

func TestCheckTailSize(t *testing.T) {
	if err := checkTailSize(math.MaxUint32); err != nil {
		t.Fatalf("a tail of MaxUint32 bytes is addressable: %v", err)
	}
	if err := checkTailSize(math.MaxUint32 + 1); err == nil {
		t.Fatal("a tail past MaxUint32 bytes must be rejected: its offsets wrap")
	}
}

// pinnedColumn mixes values of 1–12 bytes with repetitions and a family of
// values that share their first 8 bytes, so every grouping path and every
// repetition option has work to do.
func pinnedColumn() [][]byte {
	col := randomColumn(rand.New(rand.NewSource(7)), 3000, 400, 12)
	for i, v := range []string{"abcdefgh", "abcdefghij", "abcdefghik", "abcdefgh", "a", "ab", "abcdefghij"} {
		col = append(col, []byte(v))
		col[(i*431)%3000] = []byte(v)
	}
	return col
}

// layoutDigest hashes everything Params.Rand decides about a split: the
// attribute-vector codes, the head references, the decrypted entries in
// physical order and the decrypted rotation header. The references are
// hashed in the form a split took when every entry stored its IV and the
// head held {offset, length}: entries laid out in tail order at
// pae.CiphertextLen of their plaintext each. They follow only the tail
// permutation and the plaintext lengths, so the digests pinned before the
// IVs were derived still hold. IVs and the nonce salt come from
// crypto/rand and are excluded by hashing plaintexts.
func layoutDigest(t *testing.T, s *Split, c *pae.Cipher) string {
	t.Helper()
	h := sha256.New()
	var w [4]byte
	put := func(v uint32) {
		binary.BigEndian.PutUint32(w[:], v)
		h.Write(w[:])
	}
	for _, code := range s.AVCodes() {
		put(code)
	}
	plain := make([][]byte, s.Len())
	for i := range plain {
		v, err := c.Decrypt(s.AppendEntry(nil, i))
		if err != nil {
			t.Fatalf("decrypt entry %d: %v", i, err)
		}
		plain[i] = v
	}
	tailOrder := make([]int, s.Len())
	for i := range tailOrder {
		tailOrder[i] = i
	}
	sort.Slice(tailOrder, func(a, b int) bool { return s.head[tailOrder[a]] < s.head[tailOrder[b]] })
	refs := make([][2]uint32, s.Len())
	off := 0
	for _, i := range tailOrder {
		size := pae.CiphertextLen(len(plain[i]))
		refs[i] = [2]uint32{uint32(off), uint32(size)}
		off += size
	}
	for _, ref := range refs {
		put(ref[0])
		put(ref[1])
	}
	for _, v := range plain {
		put(uint32(len(v)))
		h.Write(v)
	}
	if s.EncRndOffset != nil {
		hdr, err := c.Decrypt(s.EncRndOffset)
		if err != nil {
			t.Fatalf("decrypt rotation header: %v", err)
		}
		h.Write(hdr)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBuildLayoutPinned fixes every Params.Rand draw of Build: at a fixed
// seed each kind must reproduce the same AV codes, head, entry order and
// rotation header as the digests below, which were recorded with the
// comparison-sort grouping that groupByValue replaced. A change to the
// build that moves, adds or drops a draw fails here.
func TestBuildLayoutPinned(t *testing.T) {
	want := map[Kind]string{
		ED1: "5ef024412ee925db3c90436c306b0bdc811fd4d2af7dd072cbd92c1f321c9e76",
		ED2: "fff7088f82e7ce3d63a10c6cc330f78b780ab73c8aa3aea9d23819aeab30dab3",
		ED3: "8b80abc4199707ed5f6f8a8a47e956ae90ca7ba54710e7a9478df70abfb823ac",
		ED4: "85e76ff4ab108a18d66f380994906a3cb6904b1fd3441f26ace41d2f366e9ad6",
		ED5: "c9f3e2f2361131fdd218485cfa6ec832ba114ccfe5108e5fab0bbabb262859a6",
		ED6: "6a27577026389c16726bde806328c70421119d9ae1991830c6492e597e3884d7",
		ED7: "ef9e270665e8dac208577cccf15cfb9650b4daecdec065fde3586133748effa6",
		ED8: "5f8c150c7845bcf4e3fd6f9bdd99a8e1593307d4d8feae24e60497bb07c65c46",
		ED9: "1591ecd661342203bdd3e73ba9aac1f359952d377b38822c8247c0950372107c",
	}
	col := pinnedColumn()
	c, err := pae.NewCipher(pae.MustGen())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range allKinds() {
		p := Params{Kind: k, MaxLen: 12, BSMax: 3, Cipher: c, Rand: rand.New(rand.NewSource(2024 + int64(k)))}
		s, err := Build(col, p)
		if err != nil {
			t.Fatalf("%v: Build: %v", k, err)
		}
		if got := layoutDigest(t, s, c); got != want[k] {
			t.Errorf("%v: layout digest %s, pinned %s", k, got, want[k])
		}
	}
}
