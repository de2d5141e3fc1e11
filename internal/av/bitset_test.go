package av

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/encdbdb/encdbdb/internal/ridset"
)

// TestBitsetMatchesReference pins the membership kernel against the obvious
// per-row form — Get, then a bitmap lookup — over a full accumulator and a
// random one, with the any-flag checked. The widths cover both lane regimes
// of the width-sized transpose and their edges (1, 2, 15, 16 in 16-bit
// lanes; 17, 31, 32 in 32-bit lanes); one vector mixes uniform,
// frame-of-reference (nonzero bases, block widths on the lane edges),
// run-length and constant blocks and ends in a partial group; the bitmaps
// run from one word to past |D|; and a code >= |D|, planted with Set, must
// never match, even under a bitmap whose bits cover it.
func TestBitsetMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	const n = 4*BlockRows + 37
	for _, w := range []int{1, 2, 15, 16, 17, 31, 32} {
		d := 2 // the only |D| of width 1
		if w > 1 {
			d = 1<<(w-1) + 1 // leaves codes >= |D| representable
		}
		// Codes concentrate below hot so that bitmaps of a few KiB see
		// members at every width.
		hot := min(d, 1<<18)
		codes := mixedBlocks(rng, n, d, hot)
		vs := map[string]*Vector{"uniform": Pack(codes, d), "encoded": PackEncoded(codes, d)}
		if vs["encoded"].Blocks() == nil {
			t.Fatalf("w=%d: mixed blocks packed uniform; the test lost its encodings", w)
		}
		planted := Pack(codes, d)
		if w > 1 {
			planted.Set(n-1, uint32(d))         // just past |D|
			planted.Set(n/2, uint32(1<<w-1))    // the largest representable code
			planted.Set(BlockRows, uint32(d-1)) // the last legal code
		}
		vs["planted"] = planted

		bitmaps := map[string][]uint64{
			"one word":  randBitmap(rng, 1),
			"half hot":  randBitmap(rng, (hot/2+63)/64),
			"full hot":  randBitmap(rng, (hot+63)/64),
			"all ones":  onesBitmap((hot + 63) / 64),
			"past |D|":  onesBitmap((min(1<<w, 1<<19) + 63) / 64),
			"sparse 32": sparseBitmap(rng, hot, 32),
		}
		groups := (n + GroupRows - 1) / GroupRows
		for vname, v := range vs {
			for bname, set := range bitmaps {
				label := fmt.Sprintf("w=%d %s/%s", w, vname, bname)
				want := refMembership(v, set)
				for trial := 0; trial < 4; trial++ {
					gLo, gHi := 0, groups
					if trial > 0 {
						gLo = rng.Intn(groups)
						gHi = gLo + 1 + rng.Intn(groups-gLo)
					}
					out := ridset.Full(n)
					v.ScanBitsetInto(out, gLo, gHi, set)
					sameSet(t, out, fullOutside(want, gLo, gHi), label+"/full")

					acc := ridset.New(n)
					for i := 0; i < n; i++ {
						if rng.Intn(4) > 0 {
							acc.Add(uint32(i))
						}
					}
					wantAcc := acc.Clone()
					intersectWindow(wantAcc, want, gLo, gHi)
					any := v.ScanBitsetInto(acc, gLo, gHi, set)
					sameSet(t, acc, wantAcc, label+"/into")
					if any != windowHasRows(wantAcc, gLo, gHi) {
						t.Fatalf("%s/into: any = %v, want %v", label, any, !any)
					}
				}
			}
		}
	}
}

// refMembership is the per-row reference: row i matches when its code is
// below |D| and its bit is set in the bitmap.
func refMembership(v *Vector, set []uint64) *ridset.Set {
	out := ridset.New(v.Len())
	for i := 0; i < v.Len(); i++ {
		c := v.Get(i)
		if int(c) < v.DictLen() && int(c) < len(set)*64 && set[c/64]&(1<<(c%64)) != 0 {
			out.Add(uint32(i))
		}
	}
	return out
}

// mixedBlocks draws one block of codes at a time, cycling through uniform
// noise, narrow frame-of-reference spreads at a nonzero base whose widths
// sit on the lane edges, long runs, and a constant.
func mixedBlocks(rng *rand.Rand, n, d, hot int) []uint32 {
	codes := make([]uint32, n)
	for lo := 0; lo < n; lo += BlockRows {
		blk := codes[lo:min(n, lo+BlockRows)]
		switch (lo / BlockRows) % 4 {
		case 0:
			for i := range blk {
				if rng.Intn(8) == 0 {
					blk[i] = uint32(rng.Intn(d))
				} else {
					blk[i] = uint32(rng.Intn(hot))
				}
			}
		case 1:
			base := 1 + rng.Intn(max(hot-1, 1))
			bw := []int{1, 3, 15, 16, 17}[rng.Intn(5)]
			span := min(1<<bw, d-base)
			for i := range blk {
				blk[i] = uint32(base + rng.Intn(span))
			}
		case 2:
			cur := uint32(rng.Intn(hot))
			for i := range blk {
				if rng.Intn(150) == 0 {
					cur = uint32(rng.Intn(hot))
				}
				blk[i] = cur
			}
		default:
			c := uint32(rng.Intn(hot))
			for i := range blk {
				blk[i] = c
			}
		}
	}
	return codes
}

// randBitmap sets about a quarter of the bits of a words-long bitmap.
func randBitmap(rng *rand.Rand, words int) []uint64 {
	set := make([]uint64, max(words, 1))
	for i := range set {
		set[i] = rng.Uint64() & rng.Uint64()
	}
	return set
}

func onesBitmap(words int) []uint64 {
	set := make([]uint64, max(words, 1))
	for i := range set {
		set[i] = ^uint64(0)
	}
	return set
}

// sparseBitmap sets k scattered IDs below hot, as a short unsorted-search
// result would.
func sparseBitmap(rng *rand.Rand, hot, k int) []uint64 {
	set := make([]uint64, (hot+63)/64)
	for ; k > 0; k-- {
		u := rng.Intn(hot)
		set[u/64] |= 1 << (u % 64)
	}
	return set
}
