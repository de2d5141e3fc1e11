package av

import (
	"math/rand"
	"testing"

	"github.com/encdbdb/encdbdb/internal/ridset"
)

// codeGens produces the value distributions the encoding selector must
// handle: uniform noise (stays packed), sorted and few-valued clustered
// columns (RLE), narrow-spread clustered blocks (FoR), ascending identities
// (FoR via per-block min), constants, and a mix that switches distribution
// per block so one vector carries several encodings at once.
var codeGens = []struct {
	name string
	gen  func(rng *rand.Rand, n, dictLen int) []uint32
}{
	{"uniform", randCodes},
	{"sorted", func(rng *rand.Rand, n, d int) []uint32 {
		codes := randCodes(rng, n, d)
		for i := 1; i < n; i++ {
			for j := i; j > 0 && codes[j] < codes[j-1]; j-- {
				codes[j], codes[j-1] = codes[j-1], codes[j]
			}
		}
		return codes
	}},
	{"runs", func(rng *rand.Rand, n, d int) []uint32 {
		codes := make([]uint32, n)
		cur := uint32(rng.Intn(d))
		for i := range codes {
			if rng.Intn(97) == 0 {
				cur = uint32(rng.Intn(d))
			}
			codes[i] = cur
		}
		return codes
	}},
	{"narrow", func(rng *rand.Rand, n, d int) []uint32 {
		codes := make([]uint32, n)
		for i := range codes {
			base := uint32((i / BlockRows * 37) % d)
			span := d - int(base)
			if span > 5 {
				span = 5
			}
			codes[i] = base + uint32(rng.Intn(span))
		}
		return codes
	}},
	{"identity", func(rng *rand.Rand, n, d int) []uint32 {
		codes := make([]uint32, n)
		for i := range codes {
			codes[i] = uint32(i % d)
		}
		return codes
	}},
	{"const", func(rng *rand.Rand, n, d int) []uint32 {
		codes := make([]uint32, n)
		c := uint32(rng.Intn(d))
		for i := range codes {
			codes[i] = c
		}
		return codes
	}},
	{"mixed", func(rng *rand.Rand, n, d int) []uint32 {
		codes := make([]uint32, n)
		for i := range codes {
			switch (i / BlockRows) % 3 {
			case 0:
				codes[i] = uint32(rng.Intn(d))
			case 1:
				codes[i] = uint32((i / 131) % d)
			default:
				codes[i] = uint32(i%3) % uint32(d)
			}
		}
		return codes
	}},
}

var encSizes = []int{1, 63, 64, 65, BlockRows - 1, BlockRows, BlockRows + 1, 3*BlockRows + 200}

func TestPackEncodedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, d := range []int{1, 2, 17, 256, 4097, 65537} {
		for _, n := range encSizes {
			for _, gen := range codeGens {
				codes := gen.gen(rng, n, d)
				v := PackEncoded(codes, d)
				if v.Len() != n || v.Bits() != Width(d) || v.DictLen() != d {
					t.Fatalf("%s |D|=%d n=%d: shape Len=%d Bits=%d DictLen=%d",
						gen.name, d, n, v.Len(), v.Bits(), v.DictLen())
				}
				back := v.Unpack()
				for i, c := range codes {
					if back[i] != c {
						t.Fatalf("%s |D|=%d n=%d: Unpack[%d] = %d, want %d", gen.name, d, n, i, back[i], c)
					}
					if got := v.Get(i); got != c {
						t.Fatalf("%s |D|=%d n=%d: Get(%d) = %d, want %d", gen.name, d, n, i, got, c)
					}
				}
			}
		}
	}
}

// TestPackEncodedSelection pins the heuristic's headline cases: sorted and
// constant columns become RLE, ascending identities become 10-bit FoR
// blocks, and uniform noise keeps the canonical uniform layout.
func TestPackEncodedSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	n, d := 4*BlockRows, 1<<16

	if v := PackEncoded(randCodes(rng, n, d), d); v.Blocks() != nil {
		t.Error("uniform noise picked block encodings; want canonical uniform layout")
	}

	sorted := codeGens[1].gen(rng, n, 100) // few distinct values, sorted
	v := PackEncoded(sorted, d)
	if v.Blocks() == nil {
		t.Fatal("sorted few-valued column stayed uniform")
	}
	for b, blk := range v.Blocks() {
		if blk.Enc != EncRLE {
			t.Errorf("sorted column block %d = %v, want rle", b, blk.Enc)
		}
	}

	ident := make([]uint32, n)
	for i := range ident {
		ident[i] = uint32(i)
	}
	v = PackEncoded(ident, n)
	if v.Blocks() == nil {
		t.Fatal("identity column stayed uniform")
	}
	for b, blk := range v.Blocks() {
		if blk.Enc != EncFoR || blk.W != 10 || blk.Base != uint32(b*BlockRows) {
			t.Errorf("identity block %d = {%v w=%d base=%d}, want FoR w=10 base=%d",
				b, blk.Enc, blk.W, blk.Base, b*BlockRows)
		}
	}
	if got, full := v.MemBytes(), Pack(ident, n).MemBytes(); got >= full {
		t.Errorf("FoR identity vector costs %dB, packed %dB — no narrowing", got, full)
	}
}

// TestEncodedScanMatchesReference re-runs the central kernel equivalence
// over every encoding distribution: PackEncoded's scans over a full
// accumulator must agree with the per-element reference (and hence with
// Pack's scans) for ranges and bitsets alike, over full and partial group
// windows.
func TestEncodedScanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, d := range []int{2, 300, 4097} {
		for _, n := range []int{65, BlockRows, 3*BlockRows + 200} {
			for _, gen := range codeGens {
				codes := gen.gen(rng, n, d)
				v := PackEncoded(codes, d)
				groups := (n + 63) / 64
				for trial := 0; trial < 10; trial++ {
					gLo, gHi := 0, groups
					if trial >= 5 { // partial windows
						gLo = rng.Intn(groups)
						gHi = gLo + 1 + rng.Intn(groups-gLo)
					}
					lo := uint32(rng.Intn(d))
					hi := lo + uint32(rng.Intn(d-int(lo)))
					ranges := []Range{{Lo: lo, Hi: hi}}
					out := ridset.Full(n)
					v.ScanRangesInto(out, gLo, gHi, ranges)
					want := fullOutside(refRangeScan(codes, ranges), gLo, gHi)
					sameSet(t, out, want, gen.name+"/ranges")

					set := make([]uint64, (d+63)/64)
					for k := 0; k < 1+rng.Intn(8); k++ {
						u := rng.Intn(d)
						set[u/64] |= 1 << (u % 64)
					}
					out = ridset.Full(n)
					v.ScanBitsetInto(out, gLo, gHi, set)
					want = fullOutside(refBitsetScan(codes, set), gLo, gHi)
					sameSet(t, out, want, gen.name+"/bitset")
				}
			}
		}
	}
}

// TestScanIntoMatchesTwoPass is the fused-kernel property at the av layer:
// ANDing a predicate into an accumulator must equal evaluating it row by row
// and intersecting afterwards — for every encoding, window, and a randomly
// pre-populated accumulator — and the returned any-flag must mirror whether
// the window kept rows.
func TestScanIntoMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, d := range []int{2, 300, 4097} {
		for _, n := range []int{65, BlockRows + 70, 2*BlockRows + 200} {
			for _, gen := range codeGens {
				codes := gen.gen(rng, n, d)
				v := PackEncoded(codes, d)
				groups := (n + 63) / 64
				for trial := 0; trial < 10; trial++ {
					gLo := rng.Intn(groups)
					gHi := gLo + 1 + rng.Intn(groups-gLo)
					acc0 := ridset.New(n)
					for i := 0; i < n; i++ {
						if rng.Intn(3) > 0 {
							acc0.Add(uint32(i))
						}
					}
					lo := uint32(rng.Intn(d))
					hi := lo + uint32(rng.Intn(d-int(lo)))
					ranges := []Range{{Lo: lo, Hi: hi}}

					fused := acc0.Clone()
					any := v.ScanRangesInto(fused, gLo, gHi, ranges)
					want := acc0.Clone()
					intersectWindow(want, refRangeScan(codes, ranges), gLo, gHi)
					sameSet(t, fused, want, gen.name+"/rangesInto")
					if any != windowHasRows(fused, gLo, gHi) {
						t.Fatalf("%s: rangesInto any=%v, window rows=%v", gen.name, any, !any)
					}

					set := make([]uint64, (d+63)/64)
					for k := 0; k < 1+rng.Intn(8); k++ {
						u := rng.Intn(d)
						set[u/64] |= 1 << (u % 64)
					}
					fused = acc0.Clone()
					any = v.ScanBitsetInto(fused, gLo, gHi, set)
					want = acc0.Clone()
					intersectWindow(want, refBitsetScan(codes, set), gLo, gHi)
					sameSet(t, fused, want, gen.name+"/bitsetInto")
					if any != windowHasRows(fused, gLo, gHi) {
						t.Fatalf("%s: bitsetInto any=%v, window rows=%v", gen.name, any, !any)
					}
				}
			}
		}
	}
}

// TestFromEncodedValidates round-trips an encoded vector through its
// serialized parts and rejects the corruptions a hostile file could carry,
// out-of-range codes in packed and FoR blocks included.
func TestFromEncodedValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	// |D| = 5000 is no power of two, so w = 13 bits can hold codes >= |D|,
	// and its uniform blocks spread too wide for FoR: they stay packed.
	n, d := 2*BlockRows+200, 5000
	codes := codeGens[6].gen(rng, n, d) // mixed: all three encodings
	v := PackEncoded(codes, d)
	if v.Blocks() == nil {
		t.Fatal("mixed distribution stayed uniform; selection test gap")
	}
	good, err := FromEncoded(v.Words(), v.Blocks(), v.Runs(), n, v.Bits(), d)
	if err != nil {
		t.Fatalf("FromEncoded round trip: %v", err)
	}
	for i, c := range codes {
		if good.Get(i) != c {
			t.Fatalf("FromEncoded Get(%d) = %d, want %d", i, good.Get(i), c)
		}
	}

	u := Pack(codes, d)
	if _, err := FromEncoded(u.Words(), nil, []Run{{VID: 0, End: 1}}, n, u.Bits(), d); err == nil {
		t.Error("runs without blocks accepted")
	}

	corrupt := func(name string, mut func(words []uint64, blocks []Block, runs []Run) ([]uint64, []Block, []Run)) {
		w := append([]uint64(nil), v.Words()...)
		b := append([]Block(nil), v.Blocks()...)
		r := append([]Run(nil), v.Runs()...)
		w, b, r = mut(w, b, r)
		if _, err := FromEncoded(w, b, r, n, v.Bits(), d); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	corrupt("wrong block count", func(w []uint64, b []Block, r []Run) ([]uint64, []Block, []Run) {
		return w, b[:len(b)-1], r
	})
	corrupt("unknown encoding tag", func(w []uint64, b []Block, r []Run) ([]uint64, []Block, []Run) {
		b[0].Enc = Encoding(9)
		return w, b, r
	})
	corrupt("non-tiling word offset", func(w []uint64, b []Block, r []Run) ([]uint64, []Block, []Run) {
		for i := range b {
			if b[i].Enc != EncRLE {
				b[i].Off++
				break
			}
		}
		return w, b, r
	})
	corrupt("FoR width not narrower", func(w []uint64, b []Block, r []Run) ([]uint64, []Block, []Run) {
		for i := range b {
			if b[i].Enc == EncFoR {
				b[i].W = uint8(v.Bits())
				break
			}
		}
		return w, b, r
	})
	corrupt("run end regression", func(w []uint64, b []Block, r []Run) ([]uint64, []Block, []Run) {
		for i := range b {
			if b[i].Enc == EncRLE && b[i].N >= 2 {
				r[b[i].Off+1].End = r[b[i].Off].End
				return w, b, r
			}
		}
		t.Fatal("no multi-run RLE block to corrupt")
		return w, b, r
	})
	corrupt("runs not covering block", func(w []uint64, b []Block, r []Run) ([]uint64, []Block, []Run) {
		for i := range b {
			if b[i].Enc == EncRLE {
				r[b[i].Off+b[i].N-1].End--
				return w, b, r
			}
		}
		return w, b, r
	})
	corrupt("packed code >= |D|", func(w []uint64, b []Block, r []Run) ([]uint64, []Block, []Run) {
		for i := range b {
			if b[i].Enc == EncPacked {
				for j := range int(b[i].W) {
					w[int(b[i].Off)+j] |= 1 // the block's row 0 holds 2^w-1
				}
				return w, b, r
			}
		}
		t.Fatal("no packed block to corrupt")
		return w, b, r
	})
	corrupt("FoR code >= |D|", func(w []uint64, b []Block, r []Run) ([]uint64, []Block, []Run) {
		for i := range b {
			if b[i].Enc == EncFoR && b[i].W > 0 {
				b[i].Base = uint32(d - 1) // a valid base; every non-zero residual overflows |D|
				return w, b, r
			}
		}
		t.Fatal("no FoR block to corrupt")
		return w, b, r
	})
	corrupt("run VID out of dictionary", func(w []uint64, b []Block, r []Run) ([]uint64, []Block, []Run) {
		for i := range b {
			if b[i].Enc == EncRLE {
				r[b[i].Off].VID = uint32(d)
				return w, b, r
			}
		}
		return w, b, r
	})
}

// TestEncodedSetRepacks checks the test hook on encoded vectors: a point
// write re-packs to the uniform layout without disturbing neighbors.
func TestEncodedSetRepacks(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	codes := codeGens[4].gen(rng, BlockRows+100, BlockRows+100) // identity: FoR blocks
	v := PackEncoded(codes, len(codes))
	if v.Blocks() == nil {
		t.Fatal("identity vector stayed uniform")
	}
	v.Set(70, 3)
	codes[70] = 3
	if v.Blocks() != nil {
		t.Error("Set left block encodings in place")
	}
	for i, c := range codes {
		if v.Get(i) != c {
			t.Fatalf("Get(%d) = %d after Set, want %d", i, v.Get(i), c)
		}
	}
}

// TestKernelsRespectUniverse asserts the central tail-mask contract: no
// kernel, over any encoding, may set a bit at or beyond Len() — the ridset
// tail invariant depends on it.
func TestKernelsRespectUniverse(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, gen := range codeGens {
		n, d := BlockRows+37, 300 // partial final group and partial block
		codes := gen.gen(rng, n, d)
		v := PackEncoded(codes, d)
		groups := (n + 63) / 64
		// Oversized universe: inside the window, rows [n, universe) must be
		// cleared by every kernel even when its predicate matches every
		// code; past the window they stay untouched.
		ranges := ridset.Full(n + 64)
		v.ScanRangesInto(ranges, 0, groups, []Range{{Lo: 0, Hi: uint32(d)}})
		bitset := ridset.Full(n + 64)
		v.ScanBitsetInto(bitset, 0, groups, onesBitmap((d+63)/64))
		for r := n; r < n+64; r++ {
			inWindow := r < groups*64
			if ranges.Contains(uint32(r)) == inWindow {
				t.Fatalf("%s: range kernel row %d (n=%d) kept=%v", gen.name, r, n, !inWindow)
			}
			if bitset.Contains(uint32(r)) == inWindow {
				t.Fatalf("%s: bitset kernel row %d (n=%d) kept=%v", gen.name, r, n, !inWindow)
			}
		}
	}
}

// fullOutside is what a kernel leaves in a full accumulator after scanning
// the groups [gLo, gHi): the reference matches inside the window, every row
// outside it.
func fullOutside(want *ridset.Set, gLo, gHi int) *ridset.Set {
	out := ridset.Full(want.Universe())
	intersectWindow(out, want, gLo, gHi)
	return out
}

// intersectWindow ANDs other into s on the groups [gLo, gHi), leaving the
// rest of s untouched — the reference semantics of the Into kernels.
func intersectWindow(s, other *ridset.Set, gLo, gHi int) {
	for g := gLo; g < gHi; g++ {
		s.AndWord(g, other.Word(g))
	}
}

// windowHasRows reports whether s holds any row in the groups [gLo, gHi).
func windowHasRows(s *ridset.Set, gLo, gHi int) bool {
	for g := gLo; g < gHi; g++ {
		if s.Word(g) != 0 {
			return true
		}
	}
	return false
}
