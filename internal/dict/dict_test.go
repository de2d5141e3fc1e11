package dict

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/encdbdb/encdbdb/internal/ordenc"
	"github.com/encdbdb/encdbdb/internal/pae"
	"github.com/encdbdb/encdbdb/internal/workload"
)

// paperColumn is the example column of paper Figure 3 (a).
func paperColumn() [][]byte {
	return [][]byte{
		[]byte("Hans"), []byte("Jessica"), []byte("Archie"),
		[]byte("Ella"), []byte("Jessica"), []byte("Jessica"),
	}
}

func testParams(t *testing.T, k Kind, plain bool) Params {
	t.Helper()
	p := Params{
		Kind:   k,
		MaxLen: 16,
		Plain:  plain,
		Rand:   rand.New(rand.NewSource(42)),
	}
	if k.Repetition() == RepSmoothing {
		p.BSMax = 3
	}
	if !plain {
		c, err := pae.NewCipher(pae.MustGen())
		if err != nil {
			t.Fatalf("NewCipher: %v", err)
		}
		p.Cipher = c
	}
	return p
}

func identity(b []byte) ([]byte, error) { return b, nil }

func decryptor(t *testing.T, p Params) func([]byte) ([]byte, error) {
	t.Helper()
	if p.Plain {
		return identity
	}
	return p.Cipher.Decrypt
}

func allKinds() []Kind {
	return []Kind{ED1, ED2, ED3, ED4, ED5, ED6, ED7, ED8, ED9}
}

func TestKindProperties(t *testing.T) {
	tests := []struct {
		kind Kind
		rep  Repetition
		ord  Order
	}{
		{ED1, RepRevealing, OrderSorted},
		{ED2, RepRevealing, OrderRotated},
		{ED3, RepRevealing, OrderUnsorted},
		{ED4, RepSmoothing, OrderSorted},
		{ED5, RepSmoothing, OrderRotated},
		{ED6, RepSmoothing, OrderUnsorted},
		{ED7, RepHiding, OrderSorted},
		{ED8, RepHiding, OrderRotated},
		{ED9, RepHiding, OrderUnsorted},
	}
	for _, tt := range tests {
		if got := tt.kind.Repetition(); got != tt.rep {
			t.Errorf("%v.Repetition() = %v, want %v", tt.kind, got, tt.rep)
		}
		if got := tt.kind.Order(); got != tt.ord {
			t.Errorf("%v.Order() = %v, want %v", tt.kind, got, tt.ord)
		}
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range allKinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if got, err := ParseKind("ed5"); err != nil || got != ED5 {
		t.Errorf("ParseKind(ed5) = %v, %v; want ED5", got, err)
	}
	for _, bad := range []string{"", "ED0", "ED10", "plain", "XX3"} {
		if _, err := ParseKind(bad); err == nil {
			t.Errorf("ParseKind(%q) succeeded, want error", bad)
		}
	}
}

func TestBuildAllKindsCorrectness(t *testing.T) {
	col := paperColumn()
	for _, k := range allKinds() {
		for _, plain := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/plain=%v", k, plain), func(t *testing.T) {
				p := testParams(t, k, plain)
				s, err := Build(col, p)
				if err != nil {
					t.Fatalf("Build: %v", err)
				}
				if err := s.VerifyCorrectness(col, decryptor(t, p)); err != nil {
					t.Fatalf("VerifyCorrectness: %v", err)
				}
			})
		}
	}
}

func TestBuildDictionarySizes(t *testing.T) {
	// Paper Table 3: |D| = |un(C)| for revealing, |D| = |AV| for hiding.
	col := paperColumn() // 6 rows, 4 unique values
	tests := []struct {
		kind Kind
		want int
	}{
		{ED1, 4}, {ED2, 4}, {ED3, 4},
		{ED7, 6}, {ED8, 6}, {ED9, 6},
	}
	for _, tt := range tests {
		t.Run(tt.kind.String(), func(t *testing.T) {
			s, err := Build(col, testParams(t, tt.kind, true))
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			if s.Len() != tt.want {
				t.Errorf("|D| = %d, want %d", s.Len(), tt.want)
			}
		})
	}
}

func TestBuildSmoothingDictionarySizeBounds(t *testing.T) {
	// For smoothing, |un(C)| <= |D| <= |AV|.
	col := paperColumn()
	for _, k := range []Kind{ED4, ED5, ED6} {
		s, err := Build(col, testParams(t, k, true))
		if err != nil {
			t.Fatalf("Build(%v): %v", k, err)
		}
		if s.Len() < 4 || s.Len() > 6 {
			t.Errorf("%v: |D| = %d, want within [4, 6]", k, s.Len())
		}
	}
}

func TestBuildSortedOrder(t *testing.T) {
	// ED1/ED4/ED7 must store dictionary entries in lexicographic order.
	col := paperColumn()
	for _, k := range []Kind{ED1, ED4, ED7} {
		p := testParams(t, k, true)
		s, err := Build(col, p)
		if err != nil {
			t.Fatalf("Build(%v): %v", k, err)
		}
		for i := 1; i < s.Len(); i++ {
			if string(s.AppendEntry(nil, i-1)) > string(s.AppendEntry(nil, i)) {
				t.Errorf("%v: entries %d,%d out of order: %q > %q", k, i-1, i, s.AppendEntry(nil, i-1), s.AppendEntry(nil, i))
			}
		}
	}
}

func TestBuildRotatedOrder(t *testing.T) {
	// A rotated dictionary must be sorted when logically unrotated.
	col := paperColumn()
	for _, k := range []Kind{ED2, ED5, ED8} {
		p := testParams(t, k, true)
		s, err := Build(col, p)
		if err != nil {
			t.Fatalf("Build(%v): %v", k, err)
		}
		off, _, err := DecodeRotOffset(s.EncRndOffset)
		if err != nil {
			t.Fatalf("DecodeRotOffset: %v", err)
		}
		n := s.Len()
		if int(off) >= n {
			t.Fatalf("%v: offset %d out of range for |D|=%d", k, off, n)
		}
		for j := 1; j < n; j++ {
			prev := s.AppendEntry(nil, (j-1+int(off))%n)
			cur := s.AppendEntry(nil, (j+int(off))%n)
			if string(prev) > string(cur) {
				t.Errorf("%v: unrotated order broken at %d: %q > %q", k, j, prev, cur)
			}
		}
	}
}

func TestBuildPaperFigure3Example(t *testing.T) {
	// Figure 3 (b): ED1 of the example column is the sorted unique list
	// Archie, Ella, Hans, Jessica with AV = 2,3,0,1,3,3.
	col := paperColumn()
	s, err := Build(col, testParams(t, ED1, true))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	wantDict := []string{"Archie", "Ella", "Hans", "Jessica"}
	for i, w := range wantDict {
		if string(s.AppendEntry(nil, i)) != w {
			t.Errorf("D[%d] = %q, want %q", i, s.AppendEntry(nil, i), w)
		}
	}
	wantAV := []uint32{2, 3, 0, 1, 3, 3}
	for j, w := range wantAV {
		if s.VID(j) != w {
			t.Errorf("AV[%d] = %d, want %d", j, s.VID(j), w)
		}
	}
}

func TestBuildEncryptedEntriesAreProbabilistic(t *testing.T) {
	// ED7 stores one entry per row; equal plaintexts must still produce
	// distinct ciphertexts.
	col := paperColumn()
	p := testParams(t, ED7, false)
	s, err := Build(col, p)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	seen := make(map[string]bool)
	for i := 0; i < s.Len(); i++ {
		ct := string(s.AppendEntry(nil, i))
		if seen[ct] {
			t.Fatal("duplicate ciphertext in frequency-hiding dictionary")
		}
		seen[ct] = true
	}
}

func TestBuildRejectsInvalidParams(t *testing.T) {
	col := paperColumn()
	base := func() Params { return testParams(t, ED1, true) }

	t.Run("invalid kind", func(t *testing.T) {
		p := base()
		p.Kind = 0
		if _, err := Build(col, p); err == nil {
			t.Error("want error for invalid kind")
		}
	})
	t.Run("nil rand", func(t *testing.T) {
		p := base()
		p.Rand = nil
		if _, err := Build(col, p); err == nil {
			t.Error("want error for nil Rand")
		}
	})
	t.Run("missing cipher", func(t *testing.T) {
		p := base()
		p.Plain = false
		p.Cipher = nil
		if _, err := Build(col, p); err == nil {
			t.Error("want error for missing cipher")
		}
	})
	t.Run("missing bsmax", func(t *testing.T) {
		p := testParams(t, ED5, true)
		p.BSMax = 0
		if _, err := Build(col, p); err == nil {
			t.Error("want error for missing bsmax")
		}
	})
	t.Run("oversized value", func(t *testing.T) {
		p := base()
		p.MaxLen = 3
		if _, err := Build(col, p); !errors.Is(err, ordenc.ErrTooLong) {
			t.Errorf("err = %v, want ErrTooLong", err)
		}
	})
	t.Run("nul byte", func(t *testing.T) {
		p := base()
		if _, err := Build([][]byte{{0}}, p); !errors.Is(err, ordenc.ErrNULByte) {
			t.Errorf("err = %v, want ErrNULByte", err)
		}
	})
}

func TestBuildEmptyColumn(t *testing.T) {
	for _, k := range allKinds() {
		p := testParams(t, k, true)
		s, err := Build(nil, p)
		if err != nil {
			t.Fatalf("Build(%v, empty): %v", k, err)
		}
		if s.Len() != 0 || s.Rows() != 0 {
			t.Errorf("%v: empty column produced |D|=%d |AV|=%d", k, s.Len(), s.Rows())
		}
	}
}

// TestEmptySplitsCarryPackedVector pins the constructor invariant Rows and
// Packed rely on instead of a nil check: every constructor sets the packed
// vector, even for zero rows.
func TestEmptySplitsCarryPackedVector(t *testing.T) {
	decoded, err := DecodeSplit(Empty(ED1, 8, 0, false).AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	built, err := Build(nil, testParams(t, ED5, true))
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Split{"Empty": Empty(ED1, 8, 0, false), "DecodeSplit": decoded, "Build": built} {
		if s.Packed() == nil {
			t.Fatalf("%s: no packed vector", name)
		}
		if s.Rows() != 0 || len(s.AVCodes()) != 0 {
			t.Errorf("%s: %d rows, want 0", name, s.Rows())
		}
	}
}

func TestBuildSingleValueColumn(t *testing.T) {
	col := [][]byte{[]byte("x"), []byte("x"), []byte("x")}
	for _, k := range allKinds() {
		p := testParams(t, k, true)
		s, err := Build(col, p)
		if err != nil {
			t.Fatalf("Build(%v): %v", k, err)
		}
		if err := s.VerifyCorrectness(col, identity); err != nil {
			t.Errorf("%v: %v", k, err)
		}
	}
}

func TestGetRndBucketSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for occ := 1; occ <= 50; occ++ {
		for _, bsmax := range []int{1, 2, 3, 10, 100} {
			sizes := getRndBucketSizes(occ, bsmax, rng)
			total := 0
			for i, sz := range sizes {
				if sz < 1 || sz > bsmax {
					t.Fatalf("occ=%d bsmax=%d: size[%d]=%d out of [1,%d]", occ, bsmax, i, sz, bsmax)
				}
				total += sz
			}
			if total != occ {
				t.Fatalf("occ=%d bsmax=%d: sizes sum to %d", occ, bsmax, total)
			}
		}
	}
}

func TestGetRndBucketSizesBSMaxOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := getRndBucketSizes(5, 1, rng)
	if len(sizes) != 5 {
		t.Fatalf("bsmax=1 should create one bucket per occurrence, got %d", len(sizes))
	}
}

func TestBuildSmoothingExpectedDictSize(t *testing.T) {
	// Paper Table 3: E[|D|] ~ sum over values of 2*occ/(1+bsmax).
	// With a single value occurring 10000 times and bsmax=10, expect
	// ~1818 buckets; allow generous statistical slack.
	const occ, bsmax = 10000, 10
	col := make([][]byte, occ)
	for i := range col {
		col[i] = []byte("v")
	}
	p := testParams(t, ED4, true)
	p.BSMax = bsmax
	s, err := Build(col, p)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	want := 2.0 * occ / (1 + bsmax)
	if got := float64(s.Len()); got < want*0.85 || got > want*1.15 {
		t.Errorf("|D| = %v, want ~%v (+-15%%)", got, want)
	}
}

func TestSplitAccessors(t *testing.T) {
	col := paperColumn()
	p := testParams(t, ED1, false)
	s, err := Build(col, p)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if s.Rows() != len(col) {
		t.Errorf("Rows() = %d, want %d", s.Rows(), len(col))
	}
	if len(s.head) != s.Len() {
		t.Errorf("len(head) = %d, want %d", len(s.head), s.Len())
	}
	// The attribute vector is bit-packed: |D| = 4 needs 2 bits per code,
	// one 64-row group of 2 slice words for the 6 rows.
	wantSize := s.DictSizeBytes() + s.Packed().MemBytes()
	if s.SizeBytes() != wantSize {
		t.Errorf("SizeBytes() = %d, want %d", s.SizeBytes(), wantSize)
	}
	if s.Packed().Bits() != 2 || s.Packed().MemBytes() != 16 {
		t.Errorf("packed AV: bits=%d mem=%d, want 2 bits in 16 bytes",
			s.Packed().Bits(), s.Packed().MemBytes())
	}
	var total int
	for i := 0; i < s.Len(); i++ {
		_, end := s.bodyRange(s.head[i])
		total += end - int(s.head[i])
	}
	if total != len(s.Tail()) {
		t.Errorf("entries cover %d bytes, tail has %d", total, len(s.Tail()))
	}
}

func TestVerifyCorrectnessDetectsCorruption(t *testing.T) {
	col := paperColumn()
	p := testParams(t, ED1, true)
	s, err := Build(col, p)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	s.setVID(0, s.VID(1)) // break the split for row 0 (Hans -> Jessica's vid)
	if err := s.VerifyCorrectness(col, identity); err == nil {
		t.Error("VerifyCorrectness accepted a corrupted split")
	}
}

func TestVerifyCorrectnessDetectsOutOfRangeVid(t *testing.T) {
	// A fifth unique value makes |D| = 5, so the 3-bit packed codes can
	// represent out-of-range ValueIDs (5..7) — exactly the corruption a
	// split loaded from a hostile source could carry.
	col := append(paperColumn(), []byte("Zoe"))
	s, err := Build(col, testParams(t, ED1, true))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	s.setVID(2, uint32(s.Len()))
	if err := s.VerifyCorrectness(col, identity); err == nil {
		t.Error("VerifyCorrectness accepted an out-of-range ValueID")
	}
}

func TestDecodeRotOffsetRejectsBadLength(t *testing.T) {
	for _, b := range [][]byte{nil, {1, 2, 3}, make([]byte, 7), make([]byte, 9)} {
		if _, _, err := DecodeRotOffset(b); err == nil {
			t.Errorf("want error for a %d-byte header", len(b))
		}
	}
}

// TestDecodeRotOffsetLayout pins the header layout u32 tailRun ‖ u32 offset
// (big-endian) and that a header written as a u64 offset decodes with
// tailRun = 0.
func TestDecodeRotOffsetLayout(t *testing.T) {
	off, run, err := DecodeRotOffset([]byte{0, 0, 0x01, 0x02, 0, 0x03, 0x04, 0x05})
	if err != nil || off != 0x030405 || run != 0x0102 {
		t.Errorf("DecodeRotOffset = %#x, %#x, %v; want offset 0x30405, tailRun 0x102", off, run, err)
	}
	off, run, err = DecodeRotOffset(rotHeader(77, 9))
	if err != nil || off != 77 || run != 9 {
		t.Errorf("round trip = %d, %d, %v; want 77, 9", off, run, err)
	}
	legacy := binary.BigEndian.AppendUint64(nil, 4242)
	off, run, err = DecodeRotOffset(legacy)
	if err != nil || off != 4242 || run != 0 {
		t.Errorf("u64 header = %d, %d, %v; want 4242, 0", off, run, err)
	}
}

// TestBuildSealsWrappedRun checks the header's tailRun against a walk of
// the built dictionary for rotated kinds whose values repeat, over many
// rotation draws: it must equal the number of trailing entries i >= 1 equal
// to D[0].
func TestBuildSealsWrappedRun(t *testing.T) {
	col := make([][]byte, 0, 400)
	for i := 0; i < 300; i++ {
		col = append(col, []byte("heavy"))
	}
	for i := 0; i < 100; i++ {
		col = append(col, []byte(fmt.Sprintf("v%03d", i%40)))
	}
	wrapped := 0
	for seed := int64(0); seed < 40; seed++ {
		for _, k := range []Kind{ED2, ED5, ED8} {
			s, err := Build(col, Params{Kind: k, MaxLen: 8, BSMax: 4, Plain: true, Rand: rand.New(rand.NewSource(seed))})
			if err != nil {
				t.Fatal(err)
			}
			_, run, err := DecodeRotOffset(s.EncRndOffset)
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			for i := s.Len() - 1; i >= 1 && string(s.AppendEntry(nil, i)) == string(s.AppendEntry(nil, 0)); i-- {
				want++
			}
			if int(run) != want {
				t.Fatalf("seed %d %v: sealed tailRun %d, walk finds %d", seed, k, run, want)
			}
			if run > 0 {
				wrapped++
			}
		}
	}
	if wrapped == 0 {
		t.Fatal("no draw wrapped a run; the test has no signal")
	}
}

// randomColumn builds a column of n values drawn from u distinct strings.
func randomColumn(rng *rand.Rand, n, u, maxLen int) [][]byte {
	vocab := make([][]byte, u)
	for i := range vocab {
		l := 1 + rng.Intn(maxLen)
		v := make([]byte, l)
		for j := range v {
			v[j] = byte('a' + rng.Intn(26))
		}
		vocab[i] = v
	}
	col := make([][]byte, n)
	for i := range col {
		col[i] = vocab[rng.Intn(u)]
	}
	return col
}

func TestBuildPropertyRandomColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(200)
		u := 1 + rng.Intn(20)
		col := randomColumn(rng, n, u, 8)
		for _, k := range allKinds() {
			p := Params{
				Kind:   k,
				MaxLen: 8,
				BSMax:  1 + rng.Intn(5),
				Plain:  true,
				Rand:   rng,
			}
			s, err := Build(col, p)
			if err != nil {
				t.Fatalf("trial %d %v: Build: %v", trial, k, err)
			}
			if err := s.VerifyCorrectness(col, identity); err != nil {
				t.Fatalf("trial %d %v: %v", trial, k, err)
			}
		}
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for _, k := range allKinds() {
		if !strings.HasPrefix(k.String(), "ED") {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
	if Kind(0).String() == "ED0" {
		t.Error("invalid kind should not pretty-print as EDx")
	}
	for _, s := range []fmt.Stringer{RepRevealing, RepSmoothing, RepHiding, OrderSorted, OrderRotated, OrderUnsorted} {
		if s.String() == "" {
			t.Errorf("%T has empty String()", s)
		}
	}
}

func BenchmarkBuildED1_10k(b *testing.B) {
	benchBuild(b, ED1, false)
}

func BenchmarkBuildED5_10k(b *testing.B) {
	benchBuild(b, ED5, false)
}

func BenchmarkBuildED9_10k(b *testing.B) {
	benchBuild(b, ED9, false)
}

func benchBuild(b *testing.B, k Kind, plain bool) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	col := randomColumn(rng, 10000, 500, 12)
	c, _ := pae.NewCipher(pae.MustGen())
	p := Params{Kind: k, MaxLen: 12, BSMax: 10, Plain: plain, Cipher: c, Rand: rng}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(col, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupByValue groups 1M-row C1 (high-cardinality) and C2
// (low-cardinality, skewed) draws, the first step of every Build.
func BenchmarkGroupByValue(b *testing.B) {
	for _, prof := range []workload.Profile{workload.C1(), workload.C2()} {
		col := workload.Generate(prof.Scaled(1_000_000), 1).Values
		b.Run(prof.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				groupByValue(col)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(col)), "ns/row")
		})
	}
}
