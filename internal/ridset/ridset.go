// Package ridset provides a bitmap set of RecordIDs over a fixed universe
// [0, n). The engine's query pipeline produces one set per filter (the
// attribute-vector scans emit directly into it), intersects them for the
// conjunction, and applies row validity — all as word-parallel bitmap
// operations instead of the repeated O(n) sorted-slice merges the pipeline
// used before. A set over n rows costs n/8 bytes regardless of how many
// RecordIDs it holds, so per-filter allocations on the hot path collapse to
// a single fixed-size buffer.
package ridset

import "math/bits"

const wordBits = 64

// Set is a bitmap of RecordIDs drawn from the universe [0, Universe()).
// Bits beyond the universe are always zero — every mutating operation
// maintains that invariant, so popcounts and word-wise combinations never
// see stray bits.
//
// A Set is not safe for concurrent mutation, with one deliberate exception:
// concurrent writers that own disjoint 64-aligned index ranges (as the
// attribute-vector scan shards do) may Add into the same Set, because they
// touch disjoint words.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set over the universe [0, n).
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Full returns the set holding every RecordID in [0, n).
func Full(n int) *Set {
	s := New(n)
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.maskTail()
	return s
}

// FromSorted builds a set over [0, n) from an ascending RecordID list.
// RecordIDs outside the universe are ignored.
func FromSorted(rids []uint32, n int) *Set {
	s := New(n)
	for _, r := range rids {
		if int(r) < n {
			s.words[r/wordBits] |= 1 << (r % wordBits)
		}
	}
	return s
}

// maskTail clears the bits of the last word that lie beyond the universe.
func (s *Set) maskTail() {
	if rem := s.n % wordBits; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << rem) - 1
	}
}

// Universe returns the exclusive upper bound of the RecordID domain.
func (s *Set) Universe() int { return s.n }

// Grow extends the universe to [0, n). Shrinking is not supported; a smaller
// n is a no-op.
func (s *Set) Grow(n int) {
	if n <= s.n {
		return
	}
	need := (n + wordBits - 1) / wordBits
	for len(s.words) < need {
		s.words = append(s.words, 0)
	}
	s.n = n
}

// Add inserts RecordID r. The caller must ensure r < Universe().
func (s *Set) Add(r uint32) {
	s.words[r/wordBits] |= 1 << (r % wordBits)
}

// Word returns word i of the bitmap: the membership bits of RecordIDs
// [64i, 64i+64). The fused scan kernels read it to skip groups whose
// accumulator word is already empty.
func (s *Set) Word(i int) uint64 { return s.words[i] }

// Words returns the number of 64-bit words covering the universe.
func (s *Set) Words() int { return len(s.words) }

// AndWord ANDs a 64-bit match word into word i of the bitmap — the
// accumulator path of the fused scan kernels, which conjoin each predicate's
// match word in-register instead of materializing a set per predicate and
// intersecting afterwards. Writers owning disjoint word indexes may call it
// concurrently. ANDing only clears bits, so the tail invariant holds without
// re-masking.
func (s *Set) AndWord(i int, w uint64) {
	s.words[i] &= w
}

// AndNotWord clears the bits of a 64-bit match word from word i of the
// bitmap — the fused complement of AndWord for kernels that compute the
// NON-matching rows of a group (e.g. folding a deletion word into an
// accumulator). Clearing preserves the tail invariant.
func (s *Set) AndNotWord(i int, w uint64) {
	s.words[i] &^= w
}

// Remove deletes RecordID r if present. RecordIDs outside the universe are
// ignored.
func (s *Set) Remove(r uint32) {
	if int(r) < s.n {
		s.words[r/wordBits] &^= 1 << (r % wordBits)
	}
}

// Contains reports whether RecordID r is in the set.
func (s *Set) Contains(r uint32) bool {
	return int(r) < s.n && s.words[r/wordBits]&(1<<(r%wordBits)) != 0
}

// Len returns the number of RecordIDs in the set.
func (s *Set) Len() int {
	total := 0
	for _, w := range s.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Empty reports whether the set holds no RecordIDs.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (s *Set) Clone() *Set {
	return &Set{words: append([]uint64(nil), s.words...), n: s.n}
}

// IntersectWith keeps only the RecordIDs also present in o. The receiver's
// universe is unchanged; RecordIDs beyond o's universe are dropped, matching
// intersection semantics over the smaller domain.
func (s *Set) IntersectWith(o *Set) {
	common := len(s.words)
	if len(o.words) < common {
		common = len(o.words)
	}
	for i := 0; i < common; i++ {
		s.words[i] &= o.words[i]
	}
	for i := common; i < len(s.words); i++ {
		s.words[i] = 0
	}
}

// UnionWith adds every RecordID of o. The receiver's universe grows to cover
// o's if needed.
func (s *Set) UnionWith(o *Set) {
	s.Grow(o.n)
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// AndNot removes every RecordID of o from the receiver.
func (s *Set) AndNot(o *Set) {
	common := len(s.words)
	if len(o.words) < common {
		common = len(o.words)
	}
	for i := 0; i < common; i++ {
		s.words[i] &^= o.words[i]
	}
}

// AndShifted keeps only the RecordIDs whose counterpart off positions higher
// is present in o: s &= (o >> off). It is OrShifted's read-side mirror: where
// OrShifted splices a store-local result upward into a table-wide set, this
// projects a table-wide bitmap (typically row validity) downward onto a
// store-local accumulator — RecordID r of the receiver survives iff o holds
// off+r. Bits beyond o's universe read as zero.
func (s *Set) AndShifted(o *Set, off int) {
	if off < 0 {
		panic("ridset: negative shift")
	}
	wordOff, bitOff := off/wordBits, uint(off%wordBits)
	for i := range s.words {
		var w uint64
		if j := i + wordOff; j < len(o.words) {
			w = o.words[j] >> bitOff
			if bitOff != 0 && j+1 < len(o.words) {
				w |= o.words[j+1] << (wordBits - bitOff)
			}
		}
		s.words[i] &= w
	}
}

// ClearFrom removes every RecordID >= r, leaving [0, r) untouched. The fused
// scan uses it to seed its accumulator with the main store's validity words
// while keeping the delta region zero until the delta phase fills it.
func (s *Set) ClearFrom(r int) {
	if r < 0 {
		r = 0
	}
	b := r / wordBits
	if b >= len(s.words) {
		return
	}
	if rem := r % wordBits; rem != 0 {
		s.words[b] &= (1 << rem) - 1
		b++
	}
	for i := b; i < len(s.words); i++ {
		s.words[i] = 0
	}
}

// OrShifted adds every RecordID of o offset upward by off: s |= (o << off).
// The engine uses it to splice a delta-store result (RecordIDs local to the
// delta) into a table-wide set behind the main store's rows. The receiver's
// universe grows to fit.
func (s *Set) OrShifted(o *Set, off int) {
	if off < 0 {
		panic("ridset: negative shift")
	}
	s.Grow(o.n + off)
	wordOff, bitOff := off/wordBits, uint(off%wordBits)
	if bitOff == 0 {
		for i, w := range o.words {
			s.words[i+wordOff] |= w
		}
		s.maskTail()
		return
	}
	var carry uint64
	for i, w := range o.words {
		s.words[i+wordOff] |= w<<bitOff | carry
		carry = w >> (wordBits - bitOff)
	}
	if carry != 0 {
		s.words[wordOff+len(o.words)] |= carry
	}
	s.maskTail()
}

// Slice returns the RecordIDs in ascending order, or nil if the set is
// empty. The result is sized exactly by a popcount pass, so it is the only
// allocation of a query's emit path.
func (s *Set) Slice() []uint32 {
	total := s.Len()
	if total == 0 {
		return nil
	}
	out := make([]uint32, 0, total)
	for i, w := range s.words {
		base := uint32(i * wordBits)
		for w != 0 {
			out = append(out, base+uint32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return out
}

// ForEach calls fn for every RecordID in ascending order.
func (s *Set) ForEach(fn func(uint32)) {
	for i, w := range s.words {
		base := uint32(i * wordBits)
		for w != 0 {
			fn(base + uint32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}
