package search_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/encdbdb/encdbdb/internal/av"
	"github.com/encdbdb/encdbdb/internal/ridset"
	"github.com/encdbdb/encdbdb/internal/search"
)

// shortListVector packs n codes for a dictionary of dictLen entries in one of
// three shapes that select different block encodings: "uniform" noise over a
// small vocabulary plus the largest code (packed blocks at the full width),
// "runs" (RLE blocks) and "narrow" per-block spreads (FoR blocks). Codes stay
// small except the top one, so the reference bitmap stays small at any width.
func shortListVector(rng *rand.Rand, shape string, n, dictLen int) (*av.Vector, []uint32) {
	small := min(dictLen, 4096)
	vocab := make([]uint32, 48)
	for i := range vocab {
		vocab[i] = uint32(rng.Intn(min(small, 96))) // dense: neighbours occur
	}
	top := uint32(min(dictLen-1, 1<<32-1))
	codes := make([]uint32, n)
	cur := vocab[0]
	for i := range codes {
		switch shape {
		case "uniform":
			codes[i] = vocab[rng.Intn(len(vocab))]
			if i%97 == 0 {
				codes[i] = top
			}
		case "runs":
			if rng.Intn(90) == 0 {
				cur = vocab[rng.Intn(len(vocab))]
			}
			codes[i] = cur
		case "narrow":
			base := vocab[(i/av.BlockRows)%len(vocab)]
			codes[i] = min(base+uint32(rng.Intn(5)), uint32(small-1))
		}
	}
	return av.PackEncoded(codes, dictLen), vocab
}

// shortList draws l ValueIDs: mostly codes the vector holds, some absent
// ones, duplicates and near neighbours of earlier IDs (which coalesce into
// one range or must not), IDs >= |D| where the 32-bit ID space has any, and
// sometimes in descending order (as concatenated IN-list results arrive).
func shortList(rng *rand.Rand, l, dictLen int, vocab []uint32) []uint32 {
	ids := make([]uint32, 0, l)
	for len(ids) < l {
		switch r := rng.Intn(10); {
		case r < 5:
			ids = append(ids, vocab[rng.Intn(len(vocab))])
		case r < 7:
			ids = append(ids, uint32(rng.Intn(min(dictLen, 4096))))
		case r < 8 && len(ids) > 0: // a duplicate, a neighbour, or one apart
			ids = append(ids, ids[rng.Intn(len(ids))]+uint32(rng.Intn(3)))
		case dictLen < 1<<32:
			ids = append(ids, uint32(dictLen+rng.Intn(min(1<<32-dictLen, 1000))))
		}
	}
	if rng.Intn(3) == 0 {
		slices.Sort(ids)
		slices.Reverse(ids)
	}
	return ids
}

// TestShortListPredMatchesBitset: a ValueID list of at most
// av.ShortListRanges runs compiles to the range kernel, and that predicate
// produces exactly the words of the membership-bitmap predicate in both the
// Or and Into modes — at code widths 1/13/14/31/32/33, blocks of
// 1023/1024/1025 rows, packed, FoR and RLE blocks, and list lengths 0 to
// K+1 with duplicates and IDs >= |D|. (ValueIDs are 32-bit, so no
// dictionary reaches width 33; the kernels still accept it.)
func TestShortListPredMatchesBitset(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	seen := map[av.Encoding]bool{}
	for _, dictLen := range []int{2, 1 << 13, 1<<13 + 1, 1 << 31, 1 << 32, 1<<32 + 1} {
		for _, n := range []int{av.BlockRows - 1, av.BlockRows, av.BlockRows + 1} {
			for _, shape := range []string{"uniform", "runs", "narrow"} {
				v, vocab := shortListVector(rng, shape, n, dictLen)
				for _, b := range v.Blocks() {
					seen[b.Enc] = true
				}
				if v.Blocks() == nil {
					seen[av.EncPacked] = true
				}
				for l := 0; l <= av.ShortListRanges+1; l++ {
					ids := shortList(rng, l, dictLen, vocab)
					label := fmt.Sprintf("w%d n%d %s ids%v", v.Bits(), n, shape, ids)
					short := search.CompileListPred(v, ids)
					ref := search.CompileBitsetPred(v, ids)
					if l <= av.ShortListRanges && short.IsBitset() {
						t.Fatalf("%s: a %d-ID list compiled to the bitmap form", label, l)
					}
					comparePreds(t, rng, short, ref, n, label)
				}
			}
		}
	}
	for _, enc := range []av.Encoding{av.EncPacked, av.EncFoR, av.EncRLE} {
		if !seen[enc] {
			t.Errorf("no %v block was scanned", enc)
		}
	}
}

// comparePreds checks two predicates word for word over a full and a random
// accumulator, on the whole vector and on a partial group window.
func comparePreds(t *testing.T, rng *rand.Rand, got, want search.PackedPred, n int, label string) {
	t.Helper()
	groups := got.Groups()
	lo := rng.Intn(groups)
	for _, w := range [][2]int{{0, groups}, {lo, lo + 1 + rng.Intn(groups-lo)}} {
		a, b := ridset.Full(n), ridset.Full(n)
		got.ScanInto(a, w[0], w[1])
		want.ScanInto(b, w[0], w[1])
		sameWords(t, a, b, label+" full")

		acc := ridset.New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(4) > 0 {
				acc.Add(uint32(i))
			}
		}
		a, b = acc.Clone(), acc.Clone()
		anyA, anyB := got.ScanInto(a, w[0], w[1]), want.ScanInto(b, w[0], w[1])
		sameWords(t, a, b, label+" Into")
		if anyA != anyB {
			t.Fatalf("%s Into: any = %v, bitmap form says %v", label, anyA, anyB)
		}
	}
}

func sameWords(t *testing.T, a, b *ridset.Set, label string) {
	t.Helper()
	for i := 0; i < a.Words(); i++ {
		if a.Word(i) != b.Word(i) {
			t.Fatalf("%s: word %d = %#x, bitmap form %#x", label, i, a.Word(i), b.Word(i))
		}
	}
}
