package baseline

import (
	"runtime"
	"slices"
	"sync"

	"github.com/encdbdb/encdbdb/internal/ridset"
	"github.com/encdbdb/encdbdb/internal/search"
)

// AVMode selects the membership test used by AttrVectSearch for unsorted
// dictionaries (ED3/ED6/ED9), where the dictionary search returns a list of
// ValueIDs rather than ranges. The paper's algorithm compares every
// attribute vector entry with every returned ValueID (O(|AV|·|vid|)); the
// sorted-list binary search and the bitset are the alternatives ablation A1
// (`encdbdb-bench -exp ablation-av`) times beside the engine's bit-packed
// kernel.
type AVMode int

const (
	// AVSortedProbe binary-searches a sorted copy of the ValueID list for
	// each attribute vector entry: O(|AV|·log|vid|).
	AVSortedProbe AVMode = iota + 1
	// AVNestedLoop is the paper's literal algorithm: compare each entry
	// against each ValueID, O(|AV|·|vid|), with early exit on match.
	AVNestedLoop
	// AVBitset materializes a |D|-bit set of matching ValueIDs, then
	// scans the attribute vector with O(1) probes.
	AVBitset
)

// AttrVectRangesSet implements AttrVectSearch 1/2/4/5/7/8 over an unpacked
// []uint32 attribute vector: it emits, into a bitmap over [0, |AV|), the
// RecordIDs whose ValueID falls into any of the given inclusive ranges. It
// is the per-element reference the bit-packed search.AttrVectRangesPackedInto
// is measured and checked against. workers <= 0 uses GOMAXPROCS.
func AttrVectRangesSet(av []uint32, ranges []search.VidRange, workers int) *ridset.Set {
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

// AttrVectListSet implements AttrVectSearch 3/6/9 over an unpacked
// attribute vector: it emits, into a bitmap over [0, |AV|), the RecordIDs
// whose ValueID appears in vids. dictLen is |D|, needed by the bitset mode.
// workers <= 0 uses GOMAXPROCS.
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

// AttrVectRanges is AttrVectRangesSet rendered to an ascending RecordID
// slice.
func AttrVectRanges(av []uint32, ranges []search.VidRange, workers int) []uint32 {
	return AttrVectRangesSet(av, ranges, workers).Slice()
}

// AttrVectList is AttrVectListSet rendered to an ascending RecordID slice.
func AttrVectList(av []uint32, vids []uint32, dictLen int, mode AVMode, workers int) []uint32 {
	return AttrVectListSet(av, vids, dictLen, mode, workers).Slice()
}

// parallelScan shards av across workers, each emitting matches into the
// shared bitmap. Shard boundaries are aligned to 64 RecordIDs so every
// worker owns a disjoint word range of the set and no synchronization is
// needed beyond the final WaitGroup join.
func parallelScan(out *ridset.Set, av []uint32, workers int, match func(uint32) bool) {
	w := workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
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
