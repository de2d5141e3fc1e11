package av

import (
	"math/rand"
	"testing"

	"github.com/encdbdb/encdbdb/internal/ridset"
)

// dictSizes covers the width boundaries the packer must get right: powers
// of two (exact widths), their successors (one more bit, codes that cannot
// fill the width), and the degenerate single-entry dictionary.
var dictSizes = []int{1, 2, 3, 4, 5, 16, 17, 255, 256, 257, 4096, 4097, 65536, 65537}

func randCodes(rng *rand.Rand, n, dictLen int) []uint32 {
	codes := make([]uint32, n)
	for i := range codes {
		codes[i] = uint32(rng.Intn(dictLen))
	}
	return codes
}

// refRangeScan is the obvious per-element implementation the kernels must
// agree with.
func refRangeScan(codes []uint32, ranges []Range) *ridset.Set {
	out := ridset.New(len(codes))
	for i, c := range codes {
		for _, r := range ranges {
			if c >= r.Lo && c <= r.Hi {
				out.Add(uint32(i))
				break
			}
		}
	}
	return out
}

func refBitsetScan(codes []uint32, set []uint64) *ridset.Set {
	out := ridset.New(len(codes))
	for i, c := range codes {
		if int(c) < len(set)*64 && set[c/64]&(1<<(c%64)) != 0 {
			out.Add(uint32(i))
		}
	}
	return out
}

func sameSet(t *testing.T, got, want *ridset.Set, label string) {
	t.Helper()
	g, w := got.Slice(), want.Slice()
	if len(g) != len(w) {
		t.Fatalf("%s: %d matches, want %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: match %d = %d, want %d", label, i, g[i], w[i])
		}
	}
}

func TestWidth(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 255: 8, 256: 8, 257: 9, 65536: 16, 65537: 17}
	for d, want := range cases {
		if got := Width(d); got != want {
			t.Errorf("Width(%d) = %d, want %d", d, got, want)
		}
	}
}

func TestPackGetUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range dictSizes {
		for _, n := range []int{0, 1, 63, 64, 65, 200, 1000} {
			codes := randCodes(rng, n, d)
			v := Pack(codes, d)
			if v.Len() != n || v.Bits() != Width(d) || v.DictLen() != d {
				t.Fatalf("|D|=%d n=%d: shape Len=%d Bits=%d DictLen=%d", d, n, v.Len(), v.Bits(), v.DictLen())
			}
			back := v.Unpack()
			for i, c := range codes {
				if back[i] != c {
					t.Fatalf("|D|=%d n=%d: Unpack[%d] = %d, want %d", d, n, i, back[i], c)
				}
				if got := v.Get(i); got != c {
					t.Fatalf("|D|=%d n=%d: Get(%d) = %d, want %d", d, n, i, got, c)
				}
			}
		}
	}
}

func TestSetOverwrites(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	codes := randCodes(rng, 130, 37)
	v := Pack(codes, 37)
	for trial := 0; trial < 200; trial++ {
		i := rng.Intn(len(codes))
		c := uint32(rng.Intn(37))
		v.Set(i, c)
		codes[i] = c
		if got := v.Get(i); got != c {
			t.Fatalf("Get(%d) = %d after Set, want %d", i, got, c)
		}
	}
	for i, c := range codes {
		if v.Get(i) != c {
			t.Fatalf("Get(%d) = %d, want %d (neighbor clobbered by Set)", i, v.Get(i), c)
		}
	}
}

// TestScanRangesMatchesReference is the central equivalence property:
// packed scan ≡ per-element scan for random codes, widths and ranges,
// including the |D| = 2^k and 2^k+1 width boundaries. The kernel runs over
// a full accumulator, so what survives is exactly its match set.
func TestScanRangesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, d := range dictSizes {
		for _, n := range []int{1, 64, 100, 1000} {
			codes := randCodes(rng, n, d)
			v := Pack(codes, d)
			for trial := 0; trial < 20; trial++ {
				nr := 1 + rng.Intn(2) // the searches emit at most two ranges
				ranges := make([]Range, nr)
				for i := range ranges {
					lo := uint32(rng.Intn(d))
					hi := lo + uint32(rng.Intn(d-int(lo)))
					ranges[i] = Range{Lo: lo, Hi: hi}
				}
				// Occasionally include degenerate and overshooting ranges.
				switch trial {
				case 17:
					ranges[0] = Range{Lo: 5, Hi: 2} // empty
				case 18:
					ranges[0] = Range{Lo: 0, Hi: uint32(2 * d)} // clamps
				case 19:
					ranges[0] = Range{Lo: uint32(2 * d), Hi: uint32(3 * d)} // past max
				}
				out := ridset.Full(n)
				v.ScanRangesInto(out, 0, (n+63)/64, ranges)
				sameSet(t, out, refRangeScan(codes, ranges), "ranges")
			}
		}
	}
}

func TestScanBitsetMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, d := range dictSizes {
		for _, n := range []int{1, 64, 100, 1000} {
			codes := randCodes(rng, n, d)
			v := Pack(codes, d)
			for trial := 0; trial < 10; trial++ {
				set := make([]uint64, (d+63)/64)
				for k := 0; k < 1+rng.Intn(d); k++ {
					u := rng.Intn(d)
					set[u/64] |= 1 << (u % 64)
				}
				out := ridset.Full(n)
				v.ScanBitsetInto(out, 0, (n+63)/64, set)
				sameSet(t, out, refBitsetScan(codes, set), "bitset")
			}
		}
	}
}

// TestScanShardsCompose checks that scanning disjoint group ranges into one
// accumulator — the parallel scan's emit pattern — equals a single full
// scan.
func TestScanShardsCompose(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	codes := randCodes(rng, 1000, 300)
	v := Pack(codes, 300)
	ranges := []Range{{Lo: 10, Hi: 99}, {Lo: 200, Hi: 250}}
	groups := (len(codes) + 63) / 64
	sharded := ridset.Full(len(codes))
	for g := 0; g < groups; g += 3 {
		hi := g + 3
		if hi > groups {
			hi = groups
		}
		v.ScanRangesInto(sharded, g, hi, ranges)
	}
	sameSet(t, sharded, refRangeScan(codes, ranges), "sharded")
}

// TestFromWordsValidates reconstructs the uniform layout — bare slice
// words, no blocks — through FromEncoded and rejects what a hostile file
// could carry in it.
func TestFromWordsValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	codes := randCodes(rng, 100, 1000)
	v := Pack(codes, 1000)
	good, err := FromEncoded(v.Words(), nil, nil, v.Len(), v.Bits(), v.DictLen())
	if err != nil {
		t.Fatalf("FromEncoded round trip: %v", err)
	}
	for i, c := range codes {
		if good.Get(i) != c {
			t.Fatalf("FromEncoded Get(%d) = %d, want %d", i, good.Get(i), c)
		}
	}
	if _, err := FromEncoded(v.Words(), nil, nil, v.Len(), v.Bits()+1, v.DictLen()); err == nil {
		t.Error("wrong width accepted")
	}
	if _, err := FromEncoded(v.Words()[:len(v.Words())-1], nil, nil, v.Len(), v.Bits(), v.DictLen()); err == nil {
		t.Error("short word slice accepted")
	}
	stray := append([]uint64(nil), v.Words()...)
	stray[len(stray)-1] |= 1 << 63 // phantom row 127 of a 100-row vector
	if _, err := FromEncoded(stray, nil, nil, v.Len(), v.Bits(), v.DictLen()); err == nil {
		t.Error("stray tail bits accepted")
	}
	high := append([]uint64(nil), v.Words()...)
	for j := 0; j < v.Bits(); j++ {
		high[j] |= 1 // row 0 holds 1023 >= |D| = 1000
	}
	if _, err := FromEncoded(high, nil, nil, v.Len(), v.Bits(), v.DictLen()); err == nil {
		t.Error("code >= |D| accepted")
	}
	if _, err := FromEncoded(nil, nil, nil, 3, 0, 0); err == nil {
		t.Error("rows over an empty dictionary accepted")
	}
}

func TestZeroWidthVector(t *testing.T) {
	v := Pack(make([]uint32, 70), 1)
	if v.Bits() != 0 || v.MemBytes() != 0 {
		t.Fatalf("|D|=1 vector: bits=%d mem=%d, want 0/0", v.Bits(), v.MemBytes())
	}
	out := ridset.Full(70)
	v.ScanRangesInto(out, 0, 2, []Range{{Lo: 0, Hi: 0}})
	if out.Len() != 70 {
		t.Errorf("range [0,0] over zero-width vector matched %d rows, want 70", out.Len())
	}
	out = ridset.Full(70)
	v.ScanRangesInto(out, 0, 2, []Range{{Lo: 1, Hi: 5}})
	if out.Len() != 0 {
		t.Errorf("range [1,5] over zero-width vector matched %d rows, want 0", out.Len())
	}
	out = ridset.Full(70)
	v.ScanBitsetInto(out, 0, 2, []uint64{1})
	if out.Len() != 70 {
		t.Errorf("bitset {0} over zero-width vector matched %d rows, want 70", out.Len())
	}
}
