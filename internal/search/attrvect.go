package search

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/encdbdb/encdbdb/internal/av"
	"github.com/encdbdb/encdbdb/internal/ridset"
)

// AVMode selects the membership test used by AttrVectSearch for unsorted
// dictionaries (ED3/ED6/ED9), where the dictionary search returns a list of
// ValueIDs rather than ranges. The paper's algorithm compares every
// attribute vector entry with every returned ValueID (O(|AV|·|vid|)); this
// repository defaults to a sorted-list binary search and also offers a
// bitset, both preserved side by side for ablation A1 (see DESIGN.md).
type AVMode int

const (
	// AVSortedProbe binary-searches a sorted copy of the ValueID list for
	// each attribute vector entry: O(|AV|·log|vid|). The default.
	AVSortedProbe AVMode = iota + 1
	// AVNestedLoop is the paper's literal algorithm: compare each entry
	// against each ValueID, O(|AV|·|vid|), with early exit on match.
	AVNestedLoop
	// AVBitset materializes a |D|-bit set of matching ValueIDs, then
	// scans the attribute vector with O(1) probes.
	AVBitset
)

// Parallelism picks the worker count for attribute vector scans: the paper
// notes the scan "is parallelizable with a speedup expected to be linear in
// the number of threads". Zero or negative means GOMAXPROCS.
func parallelism(p int) int {
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	return p
}

// AttrVectRangesSet implements AttrVectSearch 1/2/4/5/7/8: it scans the
// attribute vector and emits, into a bitmap over [0, |AV|), the RecordIDs
// whose ValueID falls into any of the given inclusive ranges (at most two
// ranges are produced by the dictionary searches). workers <= 0 uses
// GOMAXPROCS.
func AttrVectRangesSet(av []uint32, ranges []VidRange, workers int) *ridset.Set {
	out := ridset.New(len(av))
	if len(av) == 0 || len(ranges) == 0 {
		return out
	}
	match := func(vid uint32) bool {
		for _, r := range ranges {
			if vid >= r.Lo && vid <= r.Hi {
				return true
			}
		}
		return false
	}
	parallelScan(out, av, workers, match)
	return out
}

// AttrVectListSet implements AttrVectSearch 3/6/9: it emits, into a bitmap
// over [0, |AV|), the RecordIDs whose ValueID appears in vids. dictLen is
// |D|, needed by the bitset mode. workers <= 0 uses GOMAXPROCS.
func AttrVectListSet(av []uint32, vids []uint32, dictLen int, mode AVMode, workers int) *ridset.Set {
	out := ridset.New(len(av))
	if len(av) == 0 || len(vids) == 0 {
		return out
	}
	var match func(uint32) bool
	switch mode {
	case AVNestedLoop:
		match = func(vid uint32) bool {
			for _, u := range vids {
				if vid == u {
					return true
				}
			}
			return false
		}
	case AVBitset:
		bits := make([]uint64, (dictLen+63)/64)
		for _, u := range vids {
			bits[u/64] |= 1 << (u % 64)
		}
		match = func(vid uint32) bool {
			return bits[vid/64]&(1<<(vid%64)) != 0
		}
	default: // AVSortedProbe
		sorted := vids
		if !slices.IsSorted(sorted) {
			sorted = slices.Clone(vids)
			slices.Sort(sorted)
		}
		match = func(vid uint32) bool {
			_, ok := slices.BinarySearch(sorted, vid)
			return ok
		}
	}
	parallelScan(out, av, workers, match)
	return out
}

// AttrVectRangesPackedSet is the bit-packed fast path of AttrVectSearch
// 1/2/4/5/7/8: the SWAR kernels of internal/av evaluate the range
// disjunction on 64 packed codes per iteration and OR match words directly
// into the bitmap — no per-element unpacking and no match-closure dispatch.
// The unpacked AttrVectRangesSet remains beside it for the baseline and the
// ablations. workers <= 0 uses GOMAXPROCS.
func AttrVectRangesPackedSet(v *av.Vector, ranges []VidRange, workers int) *ridset.Set {
	return packedSet(CompileRangesPred(v, ranges), workers)
}

// AttrVectListPackedSet is the bit-packed fast path of AttrVectSearch
// 3/6/9, compiled by CompileListPred: a short ValueID list runs the range
// kernel, a long one a membership bitmap. workers <= 0 uses GOMAXPROCS.
func AttrVectListPackedSet(v *av.Vector, vids []uint32, workers int) *ridset.Set {
	return packedSet(CompileListPred(v, vids), workers)
}

// packedSet ORs a compiled predicate's matches over the whole vector into a
// fresh set, sharded across workers.
func packedSet(p PackedPred, workers int) *ridset.Set {
	out := ridset.New(p.v.Len())
	if p.v.Len() == 0 || p.matchesNothing() {
		return out
	}
	packedShards(p.v.Len(), workers, func(gLo, gHi int) {
		p.Scan(out, gLo, gHi)
	})
	return out
}

// PackedPred is a predicate compiled against one packed attribute vector:
// either a range disjunction (sorted/rotated dictionaries and short ValueID
// lists) or a ValueID membership bitmap (long lists from unsorted
// dictionaries). Compiling once separates the per-query setup (range
// conversion, bitmap build) from the per-morsel scan calls of the fused
// conjunction pipeline, which evaluates every compiled predicate over one
// group range before moving to the next morsel.
type PackedPred struct {
	v      *av.Vector
	ranges []av.Range
	bitset []uint64
	list   bool // bitset form
}

// CompileRangesPred compiles a range-disjunction predicate over v. An empty
// range list compiles to a predicate matching no rows.
func CompileRangesPred(v *av.Vector, ranges []VidRange) PackedPred {
	rs := make([]av.Range, len(ranges))
	for i, r := range ranges {
		rs[i] = av.Range{Lo: r.Lo, Hi: r.Hi}
	}
	return PackedPred{v: v, ranges: rs}
}

// CompileListPred compiles a ValueID-membership predicate over v — the
// result of an unsorted dictionary search, on the main store or a sealed
// delta run. IDs >= |D| cannot occur in the vector and are dropped; the
// rest are sorted and coalesced into runs of consecutive IDs. A list of at
// most av.ShortListRanges runs compiles to a range disjunction, which the
// SWAR range kernel scans several times faster than the bitmap probe's
// transpose; a longer one compiles to a membership bitmap. An empty ValueID
// list compiles to a predicate matching no rows.
func CompileListPred(v *av.Vector, vids []uint32) PackedPred {
	if rs, ok := listRanges(vids, v.DictLen()); ok {
		return PackedPred{v: v, ranges: rs}
	}
	return compileBitsetPred(v, vids)
}

// listRanges drops IDs >= dictLen from vids and coalesces the rest, sorted,
// into inclusive ranges. It reports false once more than
// av.ShortListRanges ranges would be needed.
func listRanges(vids []uint32, dictLen int) ([]av.Range, bool) {
	if !slices.IsSorted(vids) {
		vids = slices.Clone(vids)
		slices.Sort(vids)
	}
	rs := make([]av.Range, 0, av.ShortListRanges)
	for _, u := range vids {
		if int(u) >= dictLen {
			break // sorted: every later ID is out of range too
		}
		if n := len(rs); n > 0 && u-rs[n-1].Hi <= 1 {
			rs[n-1].Hi = u // a duplicate or the next ID extends the range
			continue
		}
		if len(rs) == av.ShortListRanges {
			return nil, false
		}
		rs = append(rs, av.Range{Lo: u, Hi: u})
	}
	return rs, true
}

// compileBitsetPred compiles vids to a membership bitmap sized to the
// largest listed ID below |D|; the kernel treats codes past the bitmap as
// non-members.
func compileBitsetPred(v *av.Vector, vids []uint32) PackedPred {
	top := -1
	for _, u := range vids {
		if int(u) < v.DictLen() && int(u) > top {
			top = int(u)
		}
	}
	var set []uint64
	if top >= 0 {
		set = make([]uint64, top/64+1)
		for _, u := range vids {
			if int(u) <= top {
				set[u/64] |= 1 << (u % 64)
			}
		}
	}
	return PackedPred{v: v, bitset: set, list: true}
}

// matchesNothing reports whether the predicate was compiled from an empty
// range list or an empty (or entirely out-of-range) ValueID list.
func (p PackedPred) matchesNothing() bool {
	if p.list {
		return len(p.bitset) == 0
	}
	return len(p.ranges) == 0
}

// Groups returns the number of 64-row groups of the compiled vector — the
// morsel domain of a fused scan.
func (p PackedPred) Groups() int {
	return (p.v.Len() + av.GroupRows - 1) / av.GroupRows
}

// ScanInto fuses the predicate into acc over the row groups [gLo, gHi):
// match words are ANDed in word-by-word with zero-word early-out. It reports
// whether any accumulator word of the window remains non-zero, so a caller
// evaluating a conjunction can stop at the first predicate that empties the
// morsel. Distinct group windows touch disjoint accumulator words, so morsel
// workers may call it concurrently against the same accumulator.
func (p PackedPred) ScanInto(acc *ridset.Set, gLo, gHi int) bool {
	if p.list {
		return p.v.ScanBitsetInto(acc, gLo, gHi, p.bitset)
	}
	return p.v.ScanRangesInto(acc, gLo, gHi, p.ranges)
}

// Scan ORs the predicate's matches over [gLo, gHi) into out — the two-pass
// baseline counterpart of ScanInto.
func (p PackedPred) Scan(out *ridset.Set, gLo, gHi int) {
	if p.list {
		p.v.ScanBitset(out, gLo, gHi, p.bitset)
		return
	}
	p.v.ScanRanges(out, gLo, gHi, p.ranges)
}

// AttrVectRangesPackedInto fuses the bit-packed range scan of AttrVectSearch
// 1/2/4/5/7/8 into an existing accumulator (typically already carrying row
// validity and the preceding conjuncts) instead of materializing a set and
// intersecting afterwards. It reports whether the scanned window kept any
// rows. workers <= 0 uses GOMAXPROCS.
func AttrVectRangesPackedInto(v *av.Vector, ranges []VidRange, acc *ridset.Set, workers int) bool {
	return packedInto(CompileRangesPred(v, ranges), acc, workers)
}

// AttrVectListPackedInto fuses the bit-packed membership scan of
// AttrVectSearch 3/6/9 into an existing accumulator — the delta path's
// sealed-run kernels AND directly into the region accumulator through here.
// It reports whether the scanned window kept any rows. workers <= 0 uses
// GOMAXPROCS.
func AttrVectListPackedInto(v *av.Vector, vids []uint32, acc *ridset.Set, workers int) bool {
	return packedInto(CompileListPred(v, vids), acc, workers)
}

// packedInto runs a compiled predicate's fused scan across all groups,
// sharded like the Or-mode scans: shards own whole groups, hence disjoint
// accumulator words.
func packedInto(p PackedPred, acc *ridset.Set, workers int) bool {
	if p.v.Len() == 0 {
		return false
	}
	var any atomic.Bool
	packedShards(p.v.Len(), workers, func(gLo, gHi int) {
		if p.ScanInto(acc, gLo, gHi) {
			any.Store(true)
		}
	})
	return any.Load()
}

// packedShards distributes the packed vector's 64-row groups across workers.
// Each shard owns whole groups, hence disjoint words of the output set, so
// the kernels emit without synchronization — the same invariant the
// unpacked parallelScan maintains via 64-aligned chunk boundaries.
func packedShards(rows, workers int, scan func(gLo, gHi int)) {
	groups := (rows + av.GroupRows - 1) / av.GroupRows
	w := parallelism(workers)
	if w > groups {
		w = groups
	}
	if w <= 1 {
		scan(0, groups)
		return
	}
	per := (groups + w - 1) / w
	var wg sync.WaitGroup
	for lo := 0; lo < groups; lo += per {
		hi := lo + per
		if hi > groups {
			hi = groups
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			scan(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// AttrVectRanges is AttrVectRangesSet rendered to an ascending RecordID
// slice, kept for callers outside the engine's bitmap pipeline.
func AttrVectRanges(av []uint32, ranges []VidRange, workers int) []uint32 {
	return AttrVectRangesSet(av, ranges, workers).Slice()
}

// AttrVectList is AttrVectListSet rendered to an ascending RecordID slice,
// kept for callers outside the engine's bitmap pipeline.
func AttrVectList(av []uint32, vids []uint32, dictLen int, mode AVMode, workers int) []uint32 {
	return AttrVectListSet(av, vids, dictLen, mode, workers).Slice()
}

// parallelScan shards av across workers, each emitting matches into the
// shared bitmap. Shard boundaries are aligned to 64 RecordIDs so every
// worker owns a disjoint word range of the set and no synchronization is
// needed beyond the final WaitGroup join.
func parallelScan(out *ridset.Set, av []uint32, workers int, match func(uint32) bool) {
	w := parallelism(workers)
	if maxShards := (len(av) + 63) / 64; w > maxShards {
		w = maxShards
	}
	if w <= 1 {
		scanChunk(out, av, 0, match)
		return
	}
	chunk := ((len(av)+w-1)/w + 63) &^ 63
	var wg sync.WaitGroup
	for lo := 0; lo < len(av); lo += chunk {
		hi := lo + chunk
		if hi > len(av) {
			hi = len(av)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			scanChunk(out, av[lo:hi], uint32(lo), match)
		}(lo, hi)
	}
	wg.Wait()
}

// scanChunk scans one shard, offsetting RecordIDs by base.
func scanChunk(out *ridset.Set, av []uint32, base uint32, match func(uint32) bool) {
	for j, vid := range av {
		if match(vid) {
			out.Add(base + uint32(j))
		}
	}
}
