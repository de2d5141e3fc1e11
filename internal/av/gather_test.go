package av

import (
	"math/rand"
	"slices"
	"testing"
)

// TestGatherMatchesGet: the bulk gather returns exactly Get's code for every
// requested row — over uniform, FoR, RLE and constant blocks, at code widths
// 1/13/14/31/32/33, for ascending row lists of every density (the render
// path's shape) and for shuffled and repeated rows. (ValueIDs are 32-bit, so
// no dictionary reaches width 33; the vector still accepts it.)
func TestGatherMatchesGet(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	seen := map[Encoding]bool{}
	for _, d := range []int{2, 1 << 13, 1<<13 + 1, 1 << 31, 1 << 32, 1<<32 + 1} {
		for _, n := range []int{1, 63, 64, BlockRows - 1, BlockRows, BlockRows + 1, 3*BlockRows + 200} {
			for _, gen := range codeGens {
				switch {
				case gen.name == "mixed" && d < 1<<32:
				case gen.name == "uniform", gen.name == "narrow", gen.name == "runs", gen.name == "const":
				default:
					continue // sorted and identity add no encoding; mixed needs |D| < 2^32
				}
				v := PackEncoded(gen.gen(rng, n, d), d)
				for _, b := range v.Blocks() {
					seen[b.Enc] = true
				}
				if v.Blocks() == nil {
					seen[EncPacked] = true
				}
				for _, rows := range gatherLists(rng, n) {
					got := make([]uint32, len(rows)+1)
					got[len(rows)] = 0xdeadbeef
					v.Gather(got, rows)
					for k, r := range rows {
						if want := v.Get(int(r)); got[k] != want {
							t.Fatalf("%s w=%d n=%d: Gather row %d (position %d of %d) = %d, Get says %d",
								gen.name, v.Bits(), n, r, k, len(rows), got[k], want)
						}
					}
					if got[len(rows)] != 0xdeadbeef {
						t.Fatalf("%s w=%d n=%d: Gather wrote past %d rows", gen.name, v.Bits(), n, len(rows))
					}
				}
			}
		}
	}
	for _, enc := range []Encoding{EncPacked, EncFoR, EncRLE} {
		if !seen[enc] {
			t.Errorf("no %v block was gathered", enc)
		}
	}
}

// gatherLists returns the row lists gathered from an n-row vector: none,
// every row, sparse and dense ascending subsets, the last row alone, and a
// shuffled list with repeats.
func gatherLists(rng *rand.Rand, n int) [][]uint32 {
	var all, sparse, dense []uint32
	for r := 0; r < n; r++ {
		all = append(all, uint32(r))
		if rng.Intn(50) == 0 {
			sparse = append(sparse, uint32(r))
		}
		if rng.Intn(3) > 0 {
			dense = append(dense, uint32(r))
		}
	}
	mixed := slices.Clone(dense)
	mixed = append(mixed, sparse...)
	rng.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
	return [][]uint32{nil, all, sparse, dense, {uint32(n - 1)}, mixed}
}
