package av

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/encdbdb/encdbdb/internal/ridset"
)

// benchRows and benchWidths are the scale and |D| sweep of the kernel
// benchmarks, as in internal/search's membership sweep: large enough that
// the scan is memory-bound, small enough for the CI smoke run.
const benchRows = 1 << 20

var benchWidths = []int{16, 256, 4096, 65536}

// unpackedRangeScan is the pre-packing baseline: one comparison chain per
// element over a []uint32, as internal/baseline's AttrVectRangesSet
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

// packedRangeOp is one range scan as the engine runs it: fused into an
// accumulator, which every pass refills first (one word store per 64 rows,
// timed with the scan) — an accumulator emptied by the previous pass would
// let the zero-word early-out skip every group.
func packedRangeOp(v *Vector, ranges []Range) func() {
	groups := (v.Len() + GroupRows - 1) / GroupRows
	acc, full := ridset.New(v.Len()), ridset.Full(v.Len())
	return func() {
		acc.UnionWith(full)
		v.ScanRangesInto(acc, 0, groups, ranges)
	}
}

// uint32RangeOp is one unpackedRangeScan of codes.
func uint32RangeOp(codes []uint32, ranges []Range) func() {
	out := ridset.New(len(codes))
	return func() { unpackedRangeScan(out, codes, ranges) }
}

// runRows times b.N calls of op, a scan of rows rows, and reports ns/row
// and the row count.
func runRows(b *testing.B, rows int, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkPackedRangeScan is the range half of the compression sweep: the
// packed range kernel at each width, with the vector's width and bytes.
// BenchmarkPackedRangeScanBaselineUint32 scans the same codes unpacked.
func BenchmarkPackedRangeScan(b *testing.B) {
	for _, d := range benchWidths {
		_, v, ranges := benchSetup(d)
		b.Run(fmt.Sprintf("dict=%d", d), func(b *testing.B) {
			runRows(b, v.Len(), packedRangeOp(v, ranges))
			b.ReportMetric(float64(v.Bits()), "bits/row")
			b.ReportMetric(float64(v.MemBytes()), "B")
		})
	}
}

func BenchmarkPackedRangeScanBaselineUint32(b *testing.B) {
	for _, d := range benchWidths {
		codes, _, ranges := benchSetup(d)
		b.Run(fmt.Sprintf("dict=%d", d), func(b *testing.B) {
			runRows(b, len(codes), uint32RangeOp(codes, ranges))
		})
	}
}

// BenchmarkEncodedShapes sweeps data shapes through PackEncoded and scans
// each with the block-encoded kernels (layout=encoded) and with the uniform
// kernels on the same codes (layout=uniform), single-threaded, at ~10%
// selectivity. It reports the encoding mix and each layout's bytes.
func BenchmarkEncodedShapes(b *testing.B) {
	// Large enough for a realistic slice width, small enough that sorted
	// columns have long runs.
	const dictLen = 1 << 12
	rng := rand.New(rand.NewSource(1))
	shapes := []struct {
		name string
		gen  func(i int) uint32
	}{
		// Sorted: long monotone runs, the RLE showcase (a clustered index
		// or an insertion-ordered timestamp column).
		{"sorted", func(i int) uint32 { return uint32(i * dictLen / benchRows) }},
		// Clustered: value changes every ~20 rows in random directions.
		{"clustered", func(i int) uint32 { return uint32((i / 20 * 769) % dictLen) }},
		// Drifting: per-block base advances, small local spread (FoR).
		{"drifting", func(i int) uint32 {
			base := i / BlockRows * 29 % (dictLen - 64)
			return uint32(base + rng.Intn(48))
		}},
		// Uniform: full-range random draws; no block beats the uniform
		// layout, so PackEncoded falls back to it.
		{"uniform", func(i int) uint32 { return uint32(rng.Intn(dictLen)) }},
	}
	ranges := []Range{{Lo: dictLen / 4, Hi: dictLen/4 + dictLen/10}}
	for _, shape := range shapes {
		codes := make([]uint32, benchRows)
		for i := range codes {
			codes[i] = shape.gen(i)
		}
		layouts := []struct {
			name string
			v    *Vector
		}{{"encoded", PackEncoded(codes, dictLen)}, {"uniform", Pack(codes, dictLen)}}
		for _, l := range layouts {
			b.Run(fmt.Sprintf("dict=%d/shape=%s/layout=%s", dictLen, shape.name, l.name), func(b *testing.B) {
				runRows(b, benchRows, packedRangeOp(l.v, ranges))
				var blocks [EncRLE + 1]int
				for _, blk := range l.v.Blocks() {
					blocks[blk.Enc]++
				}
				for e, n := range blocks {
					b.ReportMetric(float64(n), Encoding(e).String()+"-blocks")
				}
				b.ReportMetric(float64(l.v.Bits()), "bits/row")
				b.ReportMetric(float64(l.v.MemBytes()), "B")
			})
		}
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

// TestPackedRangeScanSpeedup is the acceptance guard for the SWAR kernels:
// at 1M rows, the packed range scan must be at least 2x the []uint32 scan
// single-threaded for every |D| up to 2^16. Timing-shape assertion, so it
// skips under the race detector's slowdown and in -short runs.
func TestPackedRangeScanSpeedup(t *testing.T) {
	if raceEnabled {
		t.Skip("timing shapes are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("1M-row scan comparison")
	}
	// fastest is op's best time of three passes, each at least 2M rows of
	// work, so one preempted pass does not decide the ratio.
	fastest := func(op func()) time.Duration {
		best := time.Duration(math.MaxInt64)
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			op()
			op()
			best = min(best, time.Since(start))
		}
		return best
	}
	for _, d := range benchWidths {
		codes, v, ranges := benchSetup(d)
		packed, unpacked := fastest(packedRangeOp(v, ranges)), fastest(uint32RangeOp(codes, ranges))
		t.Logf("|D|=%d: packed %v, unpacked %v per 2 scans", d, packed, unpacked)
		if speedup := float64(unpacked) / float64(packed); speedup < 2 {
			t.Errorf("|D|=%d: packed range scan speedup %.2fx, want >= 2x (packed %v, unpacked %v per 2 scans)",
				d, speedup, packed, unpacked)
		}
	}
}

// TestPackedAVRatio pins the footprint the compression sweep records: a
// packed vector takes width/32 of the 4-byte-per-row layout, within 0.05.
func TestPackedAVRatio(t *testing.T) {
	const rows = 1000
	rng := rand.New(rand.NewSource(42))
	for _, d := range benchWidths {
		v := Pack(randCodes(rng, rows, d), d)
		ratio, want := float64(v.MemBytes())/(4*rows), float64(v.Bits())/32
		if ratio < want-0.05 || ratio > want+0.05 {
			t.Errorf("|D|=%d: AV ratio %.3f, want ~%.3f (= width/32)", d, ratio, want)
		}
	}
}
