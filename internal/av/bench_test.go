package av

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/encdbdb/encdbdb/internal/ridset"
)

// benchRows matches the compression experiment's scale: large enough that
// the scan is memory-bound, small enough for the CI smoke run.
const benchRows = 1 << 20

// benchWidths mirrors the |D| sweep of the compression experiment.
var benchWidths = []int{16, 256, 4096, 65536}

// unpackedRangeScan is the pre-packing baseline: one comparison chain per
// element over a []uint32, as baseline.AttrVectRangesSet's match closure
// performs.
func unpackedRangeScan(out *ridset.Set, codes []uint32, ranges []Range) {
	for i, c := range codes {
		for _, r := range ranges {
			if c >= r.Lo && c <= r.Hi {
				out.Add(uint32(i))
				break
			}
		}
	}
}

func benchSetup(dictLen int) ([]uint32, *Vector, []Range) {
	rng := rand.New(rand.NewSource(int64(dictLen)))
	codes := randCodes(rng, benchRows, dictLen)
	// ~10% selectivity, one range — the common sorted-dictionary case.
	lo := uint32(dictLen / 4)
	hi := lo + uint32(dictLen/10)
	return codes, Pack(codes, dictLen), []Range{{Lo: lo, Hi: hi}}
}

// The scan benchmarks time the kernels the way the engine runs them: fused
// into an accumulator, which every pass refills first (one word store per
// 64 rows, timed with the scan) — an accumulator emptied by the previous
// pass would let the zero-word early-out skip every group.

func BenchmarkPackedRangeScan(b *testing.B) {
	for _, d := range benchWidths {
		codes, v, ranges := benchSetup(d)
		_ = codes
		b.Run(fmt.Sprintf("dict%d_w%d", d, v.Bits()), func(b *testing.B) {
			groups := (v.Len() + GroupRows - 1) / GroupRows
			acc, full := ridset.New(v.Len()), ridset.Full(v.Len())
			b.SetBytes(int64(v.MemBytes()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				acc.UnionWith(full)
				v.ScanRangesInto(acc, 0, groups, ranges)
			}
		})
	}
}

func BenchmarkPackedRangeScanBaselineUint32(b *testing.B) {
	for _, d := range benchWidths {
		codes, v, ranges := benchSetup(d)
		b.Run(fmt.Sprintf("dict%d_w%d", d, v.Bits()), func(b *testing.B) {
			out := ridset.New(len(codes))
			b.SetBytes(int64(4 * len(codes)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				unpackedRangeScan(out, codes, ranges)
			}
		})
	}
}

func BenchmarkPackedBitsetScan(b *testing.B) {
	for _, d := range benchWidths {
		_, v, _ := benchSetup(d)
		rng := rand.New(rand.NewSource(7))
		set := make([]uint64, (d+63)/64)
		for k := 0; k < d/10+1; k++ {
			u := rng.Intn(d)
			set[u/64] |= 1 << (u % 64)
		}
		b.Run(fmt.Sprintf("dict%d_w%d", d, v.Bits()), func(b *testing.B) {
			groups := (v.Len() + GroupRows - 1) / GroupRows
			acc, full := ridset.New(v.Len()), ridset.Full(v.Len())
			b.SetBytes(int64(v.MemBytes()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				acc.UnionWith(full)
				v.ScanBitsetInto(acc, 0, groups, set)
			}
		})
	}
}

// BenchmarkPackedShortList measures where ShortListRanges comes from: k
// scattered ValueIDs scanned as k point ranges by the range kernel against
// the same IDs as a membership bitmap, at the scan-heavy benchmark's shape
// (2M rows, |D| = 13,361, the C2 profile's distinct count). The range
// kernel's cost grows with k, the bitmap's hardly does; they cross at about
// k = 7.
func BenchmarkPackedShortList(b *testing.B) {
	const rows, dictLen = 2 << 20, 13361
	rng := rand.New(rand.NewSource(13))
	v := Pack(randCodes(rng, rows, dictLen), dictLen)
	groups := (v.Len() + GroupRows - 1) / GroupRows
	acc, full := ridset.New(v.Len()), ridset.Full(v.Len())
	for _, k := range []int{1, 2, 4, 6, 8, 16, 32} {
		ranges := make([]Range, k)
		set := make([]uint64, (dictLen+63)/64)
		for i := range ranges {
			u := uint32(i * (dictLen / k)) // scattered: no two IDs adjacent
			ranges[i] = Range{Lo: u, Hi: u}
			set[u/64] |= 1 << (u % 64)
		}
		run := func(name string, scan func()) {
			b.Run(fmt.Sprintf("ids%d/%s", k, name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					scan()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
			})
		}
		run("ranges", func() {
			acc.UnionWith(full)
			v.ScanRangesInto(acc, 0, groups, ranges)
		})
		run("bitset", func() {
			acc.UnionWith(full)
			v.ScanBitsetInto(acc, 0, groups, set)
		})
	}
}

func BenchmarkPackedPack(b *testing.B) {
	for _, d := range []int{256, 65536} {
		codes, v, _ := benchSetup(d)
		b.Run(fmt.Sprintf("dict%d_w%d", d, v.Bits()), func(b *testing.B) {
			b.SetBytes(int64(4 * len(codes)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = Pack(codes, d)
			}
		})
	}
}
