package search

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/encdbdb/encdbdb/internal/av"
	"github.com/encdbdb/encdbdb/internal/ridset"
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
// SWAR range kernel scans faster than the bitmap kernel's transpose and
// per-row probe (they cross at about 7 IDs; see av.ShortListRanges); a
// longer one compiles to a membership bitmap. An empty ValueID
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

// AttrVectRangesPackedInto is the bit-packed AttrVectSearch 1/2/4/5/7/8:
// the SWAR kernels of internal/av evaluate the range disjunction on 64
// packed codes per iteration and AND the match words into an existing
// accumulator (typically already carrying row validity and the preceding
// conjuncts; ridset.Full for the predicate alone) — no per-element
// unpacking, no match-closure dispatch, no set materialized and intersected
// afterwards. The unpacked per-element scans it replaced live on in
// internal/baseline for the ablations. It reports whether the scanned
// window kept any rows. workers <= 0 uses GOMAXPROCS.
func AttrVectRangesPackedInto(v *av.Vector, ranges []VidRange, acc *ridset.Set, workers int) bool {
	return packedInto(CompileRangesPred(v, ranges), acc, workers)
}

// AttrVectListPackedInto is the bit-packed AttrVectSearch 3/6/9, compiled
// by CompileListPred (a short ValueID list runs the range kernel, a long one
// a membership bitmap) and fused into an existing accumulator, as the
// engine's compiled predicates are over the main store and each sealed
// run. It reports whether the scanned window kept any rows.
// workers <= 0 uses GOMAXPROCS.
func AttrVectListPackedInto(v *av.Vector, vids []uint32, acc *ridset.Set, workers int) bool {
	return packedInto(CompileListPred(v, vids), acc, workers)
}

// packedInto runs a compiled predicate's fused scan across all groups,
// sharded across workers: shards own whole groups, hence disjoint
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
// Each shard owns whole groups, hence disjoint words of the accumulator, so
// the kernels emit without synchronization.
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
