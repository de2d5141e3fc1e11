package dict

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"github.com/encdbdb/encdbdb/internal/av"
	"github.com/encdbdb/encdbdb/internal/ordenc"
	"github.com/encdbdb/encdbdb/internal/pae"
)

// Params configures a column split (the paper's EncDB operation).
type Params struct {
	// Kind selects which of the nine encrypted dictionaries to build.
	Kind Kind
	// MaxLen is the column's maximum value length in bytes (e.g. 30 for
	// VARCHAR(30)). Values are validated against it.
	MaxLen int
	// BSMax is the maximum bucket size for frequency smoothing kinds
	// (paper Algorithm 5). Required for ED4–ED6; ignored otherwise.
	BSMax int
	// Plain builds a PlainDBDB-style split: identical algorithms, entries
	// stored unencrypted, rotation offset stored unencrypted.
	Plain bool
	// Cipher encrypts dictionary entries under the column key SK_D.
	// Required unless Plain is set.
	Cipher *pae.Cipher
	// Rand supplies the randomness for bucket sizes, rotation offsets,
	// shuffles and the tail layout. Security-relevant in production (the
	// facade seeds it from crypto/rand); injectable for deterministic
	// tests.
	Rand *rand.Rand
}

// Build performs the EncDB operation: it splits col into a dictionary and an
// attribute vector according to p.Kind, applies the repetition and order
// options, and encrypts the dictionary entries (paper §4.1).
func Build(col [][]byte, p Params) (*Split, error) {
	if !p.Kind.Valid() {
		return nil, fmt.Errorf("dict: invalid kind %d", int(p.Kind))
	}
	if p.Rand == nil {
		return nil, errors.New("dict: Params.Rand is required")
	}
	if !p.Plain && p.Cipher == nil {
		return nil, errors.New("dict: Params.Cipher is required for encrypted splits")
	}
	if p.Kind.Repetition() == RepSmoothing && p.BSMax < 1 {
		return nil, fmt.Errorf("dict: bsmax must be >= 1 for %v, got %d", p.Kind, p.BSMax)
	}
	enc, err := ordenc.NewEncoder(p.MaxLen)
	if err != nil {
		return nil, err
	}
	for j, v := range col {
		if err := enc.Validate(v); err != nil {
			return nil, fmt.Errorf("dict: row %d: %w", j, err)
		}
	}

	groups := groupByValue(col)
	buckets := makeBuckets(groups, p)
	split := &Split{
		Kind:   p.Kind,
		Plain:  p.Plain,
		MaxLen: p.MaxLen,
		BSMax:  smoothingBSMax(p),
	}

	phys, rotOffset := physicalOrder(len(buckets), p.Kind.Order(), p.Rand)
	if p.Kind.Order() == OrderRotated {
		if err := split.attachRotHeader(rotOffset, wrappedRun(buckets, rotOffset), p); err != nil {
			return nil, err
		}
	}

	// Assign ValueIDs into a scratch vector, then bit-pack it; the scratch
	// is discarded so a resident split costs at most ceil(log2 |D|) bits
	// per row — less where PackEncoded's block statistics pick a
	// frame-of-reference or run-length representation (sorted and
	// clustered columns).
	codes := make([]uint32, len(col))
	assignAttributeVector(codes, groups, buckets, phys, p.Rand)
	split.packed = av.PackEncoded(codes, len(buckets))
	if err := split.layOutEntries(groups, buckets, phys, p); err != nil {
		return nil, err
	}
	return split, nil
}

// smoothingBSMax returns the effective per-ValueID frequency bound recorded
// on the split: bsmax for smoothing kinds, 1 for hiding kinds (frequency
// hiding is smoothing with bsmax = 1, §4.1), and 0 for revealing kinds.
func smoothingBSMax(p Params) int {
	switch p.Kind.Repetition() {
	case RepSmoothing:
		return p.BSMax
	case RepHiding:
		return 1
	default:
		return 0
	}
}

// group is one unique value and the rows where it occurs (oc(C, v)).
type group struct {
	value []byte
	rows  []int
}

// groupByValue returns the unique values of col in lexicographic order, each
// with its occurrence row indices in ascending order.
func groupByValue(col [][]byte) []group {
	idx := make([]int, len(col))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return string(col[idx[a]]) < string(col[idx[b]])
	})
	var groups []group
	for _, j := range idx {
		n := len(groups)
		if n > 0 && string(groups[n-1].value) == string(col[j]) {
			groups[n-1].rows = append(groups[n-1].rows, j)
			continue
		}
		groups = append(groups, group{value: col[j], rows: []int{j}})
	}
	return groups
}

// bucket is one dictionary entry slot: a value and how many attribute-vector
// rows it may absorb. Buckets are produced in lexicographic value order, so
// the bucket index is the entry's logical (sorted) position.
type bucket struct {
	groupIdx int // index into groups
	capacity int
}

// makeBuckets expands each unique value into dictionary entry slots
// according to the repetition option:
//
//   - revealing: one bucket of capacity |oc(C,v)| per unique value,
//   - smoothing: getRndBucketSizes buckets (Algorithm 5),
//   - hiding: |oc(C,v)| buckets of capacity 1 (smoothing with bsmax = 1).
func makeBuckets(groups []group, p Params) []bucket {
	var buckets []bucket
	for gi, g := range groups {
		switch p.Kind.Repetition() {
		case RepRevealing:
			buckets = append(buckets, bucket{groupIdx: gi, capacity: len(g.rows)})
		case RepSmoothing:
			sizes := getRndBucketSizes(len(g.rows), p.BSMax, p.Rand)
			// The order of repetitions within a value is random
			// (EncDB 4); shuffling the sizes realizes that.
			p.Rand.Shuffle(len(sizes), func(a, b int) { sizes[a], sizes[b] = sizes[b], sizes[a] })
			for _, sz := range sizes {
				buckets = append(buckets, bucket{groupIdx: gi, capacity: sz})
			}
		case RepHiding:
			for range g.rows {
				buckets = append(buckets, bucket{groupIdx: gi, capacity: 1})
			}
		}
	}
	return buckets
}

// getRndBucketSizes implements paper Algorithm 5: it draws bucket sizes
// uniformly from [1, bsmax] until they cover occ occurrences, then shrinks
// the last bucket so the total matches exactly. Every returned size is in
// [1, bsmax] and the sizes sum to occ.
func getRndBucketSizes(occ, bsmax int, rng *rand.Rand) []int {
	var (
		sizes     []int
		total     int
		prevTotal int
	)
	for total < occ {
		rnd := 1 + rng.Intn(bsmax)
		sizes = append(sizes, rnd)
		prevTotal = total
		total += rnd
	}
	if len(sizes) > 0 {
		sizes[len(sizes)-1] = occ - prevTotal
	}
	return sizes
}

// physicalOrder maps logical (sorted) bucket indices to physical ValueIDs
// according to the order option. For rotated order it also returns the
// random rotation offset: logical index j is stored at physical index
// (j + off) mod n, exactly as EncDB 2 specifies.
func physicalOrder(n int, o Order, rng *rand.Rand) (phys []int, rotOffset uint32) {
	phys = make([]int, n)
	switch o {
	case OrderSorted:
		for i := range phys {
			phys[i] = i
		}
	case OrderRotated:
		off := 0
		if n > 0 {
			off = rng.Intn(n)
		}
		for j := range phys {
			phys[j] = (j + off) % n
		}
		rotOffset = uint32(off)
	case OrderUnsorted:
		copy(phys, rng.Perm(n))
	}
	return phys, rotOffset
}

// assignAttributeVector fills av so the split is correct per Definition 1:
// each row of a value receives one of the value's physical ValueIDs, each
// ValueID used exactly as often as its bucket capacity, with the assignment
// randomized across the value's occurrences.
func assignAttributeVector(av []uint32, groups []group, buckets []bucket, phys []int, rng *rand.Rand) {
	// Bucket ranges per group; buckets are grouped by groupIdx in order.
	start := 0
	for gi, g := range groups {
		end := start
		for end < len(buckets) && buckets[end].groupIdx == gi {
			end++
		}
		pool := make([]uint32, 0, len(g.rows))
		for bi := start; bi < end; bi++ {
			for c := 0; c < buckets[bi].capacity; c++ {
				pool = append(pool, uint32(phys[bi]))
			}
		}
		rng.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
		for k, row := range g.rows {
			av[row] = pool[k]
		}
		start = end
	}
}

// wrappedRun counts the trailing physical entries i >= 1 that hold the same
// value as physical entry 0: the run of equal values a rotation offset can
// split across the array end (frequency smoothing and hiding store a value
// in several entries). The build has the plaintext groups at hand, so the
// enclave never has to walk the run at query time.
func wrappedRun(buckets []bucket, off uint32) uint32 {
	n := len(buckets)
	group := func(phys int) int { return buckets[(phys-int(off)+n)%n].groupIdx }
	run := uint32(0)
	for i := n - 1; i >= 1 && group(i) == group(0); i-- {
		run++
	}
	return run
}

// attachRotHeader stores the rotation header (layout at DecodeRotOffset):
// PAE-encrypted for encrypted splits (EncDB 2 attaches encRndOffset to eD),
// raw for PlainDBDB splits.
func (s *Split) attachRotHeader(off, tailRun uint32, p Params) error {
	raw := rotHeader(off, tailRun)
	if p.Plain {
		s.EncRndOffset = raw
		return nil
	}
	ct, err := p.Cipher.Encrypt(raw)
	if err != nil {
		return fmt.Errorf("dict: encrypt rotation offset: %w", err)
	}
	s.EncRndOffset = ct
	return nil
}

// layOutEntries encrypts each bucket's value and writes the payloads into
// the tail in random order, with head references in physical dictionary
// order (paper §5: the tail stores values sequentially in a random order,
// the head holds fixed-size offsets ordered by the selected dictionary).
func (s *Split) layOutEntries(groups []group, buckets []bucket, phys []int, p Params) error {
	n := len(buckets)
	s.head = make([]EntryRef, n)
	payloads := make([][]byte, n) // indexed by physical ValueID
	tailSize := 0
	for logical, b := range buckets {
		v := groups[b.groupIdx].value
		var payload []byte
		if p.Plain {
			payload = append([]byte(nil), v...)
		} else {
			ct, err := p.Cipher.Encrypt(v)
			if err != nil {
				return fmt.Errorf("dict: encrypt entry: %w", err)
			}
			payload = ct
		}
		payloads[phys[logical]] = payload
		tailSize += len(payload)
	}
	s.tail = make([]byte, 0, tailSize)
	for _, physIdx := range p.Rand.Perm(n) {
		pl := payloads[physIdx]
		s.head[physIdx] = EntryRef{Off: uint32(len(s.tail)), Len: uint32(len(pl))}
		s.tail = append(s.tail, pl...)
	}
	return nil
}
