package av

import (
	"github.com/encdbdb/encdbdb/internal/ridset"
)

// The scan kernels. Every predicate shape (range disjunction, ValueID-set
// membership) has one entry point, ScanRangesInto and ScanBitsetInto, with
// one combine mode: each 64-row group's match word is ANDed into an
// accumulator, fusing the predicate into the running conjunction that every
// attribute-vector search feeds. A caller wanting a predicate's matches
// alone scans into a full accumulator (ridset.Full).
//
// Groups whose accumulator word is already zero are skipped without
// evaluating the predicate — the early-out that makes fused conjunctions
// cheaper the more selective the preceding predicates were (and the reason a
// timed loop must refill its accumulator before every pass). Distinct group
// windows touch disjoint accumulator words, so shards of the parallel scan
// may run concurrently against the same accumulator. Every match word passes
// through the one tail-masking emit point (emitAnd), so within the scanned
// window accumulator bits of rows >= Len() are always cleared and a
// full-window scan leaves the boundary word exact. The bool result reports
// whether any accumulator word in the window is still non-zero, letting
// callers short-circuit the remaining predicates.

// ShortListRanges is the longest range disjunction a ValueID list is
// compiled to instead of a membership bitmap (search.CompileListPred).
// ScanRangesInto costs grow with the range count, while ScanBitsetInto
// costs about the same for any list: a transpose sized to the code width,
// then one branch-free bitmap probe per row. BenchmarkPackedShortList (2M
// rows, |D| = 13,361, so 14-bit codes in 16-bit lanes, fused into a full
// accumulator as the engine runs them; median of 5 on one core of a 2-vCPU
// Xeon) puts the crossing at about 7 scattered ValueIDs: 1 ID scans at 0.7
// ns/row against the bitmap's 4.9, 4 at 2.5 against 5.2, 6 at 4.0 against
// 4.7, 8 at 4.3 against 4.1, 16 at 9.2 against 4.0, 32 at 15 against 4.0.
// The range kernels keep up to this many ranges on the stack.
const ShortListRanges = 7

// ScanRangesInto evaluates the disjunction of the inclusive ValueID ranges
// over the row groups [gLo, gHi) and fuses it into acc, whose universe must
// cover [0, Len()): each group's match word is ANDed into the accumulator
// word, with zero-word early-out. It reports whether any word of [gLo, gHi)
// remains non-zero.
func (v *Vector) ScanRangesInto(acc *ridset.Set, gLo, gHi int, ranges []Range) bool {
	// Clamp once: codes hold at most w bits, so a range reaching past the
	// largest representable code is truncated and a range starting past it
	// can never match.
	maxCode := uint32(0)
	if v.w > 0 {
		maxCode = v.codeMask()
	}
	// The dictionary searches emit at most two ranges and short ValueID
	// lists at most ShortListRanges; keep those allocation-free.
	var buf [ShortListRanges]Range
	active := buf[:0]
	if len(ranges) > len(buf) {
		active = make([]Range, 0, len(ranges))
	}
	zeroMatch := false // does some range cover code 0 (the w==0 case)?
	for _, r := range ranges {
		if r.Lo > r.Hi || r.Lo > maxCode {
			continue
		}
		if r.Hi > maxCode {
			r.Hi = maxCode
		}
		if r.Lo == 0 {
			zeroMatch = true
		}
		active = append(active, r)
	}
	if len(active) == 0 {
		return zeroWindow(acc, gLo, gHi)
	}
	if v.w == 0 {
		// Every code is 0: all rows match iff some range covers 0.
		return v.scanConst(acc, gLo, gHi, zeroMatch)
	}
	if v.blocks == nil {
		any := false
		for g := gLo; g < gHi; g++ {
			if acc.Word(g) == 0 {
				continue
			}
			if v.emitAnd(acc, g, rangesGroupWord(v.words[g*v.w:g*v.w+v.w], active)) {
				any = true
			}
		}
		return any
	}
	any := false
	for b := gLo / BlockGroups; b*BlockGroups < gHi; b++ {
		blk := v.blocks[b]
		bgLo, bgHi := v.blockWindow(b, gLo, gHi)
		if blk.Enc == EncRLE {
			if v.scanRuns(acc, b, blk, bgLo, bgHi, func(vid uint32) bool {
				return rangesContain(active, vid)
			}) {
				any = true
			}
			continue
		}
		if v.scanSliceRanges(acc, blk, bgLo, bgHi, active) {
			any = true
		}
	}
	return any
}

// scanSliceRanges evaluates the range disjunction over one packed or FoR
// block, translating the ranges into the block's base-subtracted code space.
func (v *Vector) scanSliceRanges(acc *ridset.Set, blk Block, gLo, gHi int, active []Range) bool {
	var buf [ShortListRanges]Range
	tact := buf[:0]
	if len(active) > len(buf) {
		tact = make([]Range, 0, len(active))
	}
	maxStored := uint32((uint64(1) << uint(blk.W)) - 1)
	for _, r := range active {
		if r.Hi < blk.Base {
			continue
		}
		var lo uint32
		if r.Lo > blk.Base {
			lo = r.Lo - blk.Base
		}
		if lo > maxStored {
			continue
		}
		hi := r.Hi - blk.Base
		if hi > maxStored {
			hi = maxStored
		}
		tact = append(tact, Range{Lo: lo, Hi: hi})
	}
	if len(tact) == 0 {
		return zeroWindow(acc, gLo, gHi)
	}
	if blk.W == 0 {
		// A constant FoR block: every row holds Base, and a surviving
		// translated range proves some query range covers it.
		return v.scanConst(acc, gLo, gHi, true)
	}
	w, g0 := int(blk.W), (gLo/BlockGroups)*BlockGroups
	any := false
	for g := gLo; g < gHi; g++ {
		if acc.Word(g) == 0 {
			continue
		}
		off := int(blk.Off) + (g-g0)*w
		if v.emitAnd(acc, g, rangesGroupWord(v.words[off:off+w], tact)) {
			any = true
		}
	}
	return any
}

// rangesGroupWord evaluates the range disjunction over one group's slices.
func rangesGroupWord(sl []uint64, active []Range) uint64 {
	var m uint64
	for _, r := range active {
		m |= scanRangeGroup(sl, r.Lo, r.Hi)
		if m == ^uint64(0) {
			break
		}
	}
	return m
}

// scanRangeGroup is the SWAR comparator: one 64-row group against one
// inclusive range. It walks the bit slices most-significant first, tracking
// per-row "still equal to the bound so far" masks for both bounds; a row
// leaves the undecided set the moment its code diverges from a bound, and
// the loop exits early once no row is undecided — for random codes that
// resolves after a handful of slices regardless of width.
func scanRangeGroup(sl []uint64, lo, hi uint32) uint64 {
	if lo == hi {
		return scanPointGroup(sl, lo)
	}
	eqLo, eqHi := ^uint64(0), ^uint64(0)
	var ltLo, gtHi uint64
	for j := len(sl) - 1; j >= 0; j-- {
		s := sl[j]
		if (lo>>uint(j))&1 == 1 {
			ltLo |= eqLo &^ s
			eqLo &= s
		} else {
			eqLo &^= s
		}
		if (hi>>uint(j))&1 == 1 {
			eqHi &= s
		} else {
			gtHi |= eqHi & s
			eqHi &^= s
		}
		if eqLo|eqHi == 0 {
			break
		}
	}
	// code >= lo is "not below lo", code <= hi is "not above hi"; rows
	// still equal to a bound after all slices are inside the range.
	return ^(ltLo | gtHi)
}

// scanPointGroup is scanRangeGroup for a single ValueID — each entry of a
// short ValueID list: one equality mask instead of two bound trackers, with
// the same most-significant-first early exit.
func scanPointGroup(sl []uint64, u uint32) uint64 {
	eq := ^uint64(0)
	for j := len(sl) - 1; j >= 0 && eq != 0; j-- {
		if (u>>uint(j))&1 == 1 {
			eq &= sl[j]
		} else {
			eq &^= sl[j]
		}
	}
	return eq
}

// ScanBitsetInto evaluates ValueID-set membership over the row groups
// [gLo, gHi) and fuses it into acc: each group's match word is ANDed into
// the accumulator word, with zero-word early-out (which also skips that
// group's transpose entirely). It reports whether any word of [gLo, gHi)
// remains non-zero. bset is a bitmap over ValueIDs (bit u = ValueID u
// matches) as built from an unsorted dictionary search's ID list. The
// group's 64 codes are reassembled with an in-register bit-matrix transpose
// of the slice words sized to the code width, then probed against the
// bitmap without a data-dependent branch. Codes past the bitmap or at or
// past |D| never match.
func (v *Vector) ScanBitsetInto(acc *ridset.Set, gLo, gHi int, bset []uint64) bool {
	if len(bset) == 0 {
		return zeroWindow(acc, gLo, gHi)
	}
	if v.w == 0 {
		return v.scanConst(acc, gLo, gHi, bset[0]&1 != 0)
	}
	// Codes at or past |D| (a corrupt vector) never match, even where the
	// bitmap's last word has bits for them.
	limit := min(uint64(len(bset))*64, uint64(v.dict))
	if v.blocks == nil {
		any := false
		for g := gLo; g < gHi; g++ {
			if acc.Word(g) == 0 {
				continue
			}
			if v.emitAnd(acc, g, bitsetGroupWord(v.words[g*v.w:g*v.w+v.w], 0, bset, limit)) {
				any = true
			}
		}
		return any
	}
	any := false
	for b := gLo / BlockGroups; b*BlockGroups < gHi; b++ {
		blk := v.blocks[b]
		bgLo, bgHi := v.blockWindow(b, gLo, gHi)
		if blk.Enc == EncRLE {
			if v.scanRuns(acc, b, blk, bgLo, bgHi, func(vid uint32) bool {
				return uint64(vid) < limit && bset[vid/64]&(1<<(vid%64)) != 0
			}) {
				any = true
			}
			continue
		}
		if blk.W == 0 {
			c := uint64(blk.Base)
			hit := c < limit && bset[c/64]&(1<<(c%64)) != 0
			if v.scanConst(acc, bgLo, bgHi, hit) {
				any = true
			}
			continue
		}
		w, g0 := int(blk.W), (bgLo/BlockGroups)*BlockGroups
		for g := bgLo; g < bgHi; g++ {
			if acc.Word(g) == 0 {
				continue
			}
			off := int(blk.Off) + (g-g0)*w
			if v.emitAnd(acc, g, bitsetGroupWord(v.words[off:off+w], blk.Base, bset, limit)) {
				any = true
			}
		}
	}
	return any
}

// bitsetGroupWord reassembles one group's 64 codes from its w slice words,
// offsets them by the block base and probes each against the membership
// bitmap. Codes hold at most 32 bits, so the reassembly is a bit-matrix
// transpose sized to the width, run side by side in the lanes of a word:
// for w <= 16 four 16x16 transposes in 16-bit lanes (4 rounds of 8 word
// swaps), for w <= 32 two 32x32 ones in 32-bit lanes (5 rounds of 16).
func bitsetGroupWord(sl []uint64, base uint32, bset []uint64, limit uint64) uint64 {
	if len(sl) <= 16 {
		var a [16]uint64
		copy(a[:], sl)
		transpose16(&a)
		var m uint64
		for i, x := range a[:] {
			m |= member(bset, limit, uint64(base)+x&0xFFFF) << uint(i)
			m |= member(bset, limit, uint64(base)+(x>>16)&0xFFFF) << (16 + uint(i))
			m |= member(bset, limit, uint64(base)+(x>>32)&0xFFFF) << (32 + uint(i))
			m |= member(bset, limit, uint64(base)+x>>48) << (48 + uint(i))
		}
		return m
	}
	var a [32]uint64
	copy(a[:], sl)
	transpose32(&a)
	var m uint64
	for i, x := range a[:] {
		m |= member(bset, limit, uint64(base)+x&0xFFFFFFFF) << uint(i)
		m |= member(bset, limit, uint64(base)+x>>32) << (32 + uint(i))
	}
	return m
}

// member returns 1 if code c is below limit and its bitmap bit is set, else
// 0, without a data-dependent branch: limit is at most len(bset)*64, and a
// code at or past it reads a clamped word and is masked off. c and limit
// are below 2^34, so c-limit wraps into the top bit exactly when c < limit.
func member(bset []uint64, limit, c uint64) uint64 {
	in := (c - limit) >> 63
	return (bset[min(c/64, uint64(len(bset)-1))] >> (c % 64)) & in
}

// transpose16 transposes, in each 16-bit lane k of a's words, the 16x16 bit
// matrix whose row j is lane k of a[j]: the slice words of rows
// [16k, 16k+16) in, their codes out — lane k of a[i] ends up holding the
// code of row 16k+i. Each round swaps the off-diagonal s x s blocks of
// every 2s x 2s block (Hacker's Delight §7-3, in little-endian bit order).
func transpose16(a *[16]uint64) {
	transposeRound16(a, 8, 0x00FF00FF00FF00FF)
	transposeRound16(a, 4, 0x0F0F0F0F0F0F0F0F)
	transposeRound16(a, 2, 0x3333333333333333)
	transposeRound16(a, 1, 0x5555555555555555)
}

func transposeRound16(a *[16]uint64, s uint, m uint64) {
	for k := 0; k < 16; k = (k + int(s) + 1) &^ int(s) {
		t := ((a[k] >> s) ^ a[(k+int(s))&15]) & m
		a[(k+int(s))&15] ^= t
		a[k] ^= t << s
	}
}

// transpose32 is transpose16 for two 32x32 matrices in 32-bit lanes: lane k
// of a[i] ends up holding the code of row 32k+i.
func transpose32(a *[32]uint64) {
	transposeRound32(a, 16, 0x0000FFFF0000FFFF)
	transposeRound32(a, 8, 0x00FF00FF00FF00FF)
	transposeRound32(a, 4, 0x0F0F0F0F0F0F0F0F)
	transposeRound32(a, 2, 0x3333333333333333)
	transposeRound32(a, 1, 0x5555555555555555)
}

func transposeRound32(a *[32]uint64, s uint, m uint64) {
	for k := 0; k < 32; k = (k + int(s) + 1) &^ int(s) {
		t := ((a[k] >> s) ^ a[(k+int(s))&31]) & m
		a[(k+int(s))&31] ^= t
		a[k] ^= t << s
	}
}

// scanRuns evaluates a predicate over one RLE block: each run's ValueID is
// tested once, making the block O(runs + touched words) instead of O(rows).
// It walks the window group by group with a monotone run cursor, so the
// zero-word early-out still skips dead groups.
func (v *Vector) scanRuns(acc *ridset.Set, b int, blk Block, gLo, gHi int, match func(uint32) bool) bool {
	runs := v.runs[blk.Off : blk.Off+blk.N]
	rowBase := b * BlockRows
	cur := 0
	any := false
	for g := gLo; g < gHi; g++ {
		if acc.Word(g) == 0 {
			continue
		}
		lo := g*GroupRows - rowBase // block-local row window of group g
		hi := lo + GroupRows
		if rows := min(v.n-rowBase, BlockRows); hi > rows {
			hi = rows
		}
		for cur < len(runs) && int(runs[cur].End) <= lo {
			cur++
		}
		var m uint64
		start := lo
		for i := cur; i < len(runs) && start < hi; i++ {
			end := int(runs[i].End)
			if end > hi {
				end = hi
			}
			if match(runs[i].VID) {
				m |= spanWordMask(start-lo, end-lo)
			}
			start = end
		}
		if v.emitAnd(acc, g, m) {
			any = true
		}
	}
	return any
}

// scanConst fuses an all-rows-match (or no-rows-match) verdict over the
// window — the w==0 and constant-block paths.
func (v *Vector) scanConst(acc *ridset.Set, gLo, gHi int, matchAll bool) bool {
	if !matchAll {
		return zeroWindow(acc, gLo, gHi)
	}
	any := false
	for g := gLo; g < gHi; g++ {
		if v.emitAnd(acc, g, ^uint64(0)) {
			any = true
		}
	}
	return any
}

// blockWindow intersects the scan window [gLo, gHi) with block b's groups.
func (v *Vector) blockWindow(b, gLo, gHi int) (int, int) {
	lo, hi := b*BlockGroups, (b+1)*BlockGroups
	if g := v.groups(); hi > g {
		hi = g
	}
	if lo < gLo {
		lo = gLo
	}
	if hi > gHi {
		hi = gHi
	}
	return lo, hi
}

// rangesContain reports whether vid falls in any of the ranges.
func rangesContain(ranges []Range, vid uint32) bool {
	for _, r := range ranges {
		if vid >= r.Lo && vid <= r.Hi {
			return true
		}
	}
	return false
}

// zeroWindow clears every accumulator word of [gLo, gHi) — the result of a
// predicate that cannot match.
func zeroWindow(acc *ridset.Set, gLo, gHi int) bool {
	for g := gLo; g < gHi; g++ {
		acc.AndWord(g, 0)
	}
	return false
}

// spanWordMask returns the word mask with bits [a, b) set, 0 <= a < b <= 64.
func spanWordMask(a, b int) uint64 {
	return (^uint64(0) >> uint(GroupRows-(b-a))) << uint(a)
}
