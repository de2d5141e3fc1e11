package dict

import (
	"bytes"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

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
	if len(col) > math.MaxInt32 {
		return nil, fmt.Errorf("dict: %d rows exceed the %d a split indexes", len(col), math.MaxInt32)
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

// rowKey is one row of the column being grouped: the first 8 bytes of its
// value, big-endian and zero-padded, and the row index.
type rowKey struct {
	prefix uint64
	row    int32
}

// prefixKey returns v's first 8 bytes as a big-endian integer, zero-padded.
// Validated values hold no NUL byte, so for values of at most 8 bytes the
// keys order exactly as bytes.Compare orders the values, and equal keys mean
// equal values; longer values sharing a key are resolved by groupByValue.
func prefixKey(v []byte) uint64 {
	if len(v) >= 8 {
		return binary.BigEndian.Uint64(v)
	}
	var b [8]byte
	copy(b[:], v)
	return binary.BigEndian.Uint64(b[:])
}

// groupByValue returns the unique values of col in lexicographic order, each
// with its occurrence row indices in ascending order. col must be validated
// (no NUL bytes) and hold at most math.MaxInt32 rows.
//
// It runs in linear time: an LSD radix sort orders the rows by prefixKey,
// then the rare runs of equal keys whose values are longer than 8 bytes are
// ordered by the full value. Both sorts are stable, so each group's rows
// stay ascending.
func groupByValue(col [][]byte) []group {
	keys := make([]rowKey, len(col))
	long := false
	for j, v := range col {
		keys[j] = rowKey{prefix: prefixKey(v), row: int32(j)}
		long = long || len(v) > 8
	}
	keys = radixSort(keys)

	// first[i] marks keys[i] as the first row of its value.
	first := make([]bool, len(keys))
	n := 0
	for i := 0; i < len(keys); {
		end := i + 1
		for end < len(keys) && keys[end].prefix == keys[i].prefix {
			end++
		}
		// A key whose last byte is 0 is padded: its value is shorter
		// than 8 bytes, so the whole run holds that one value.
		if end-i == 1 || !long || keys[i].prefix&0xff == 0 {
			first[i] = true
			n++
		} else {
			n += markValues(col, keys[i:end], first[i:end])
		}
		i = end
	}

	// Carve every group's rows out of one slice.
	groups := make([]group, 0, n)
	rows := make([]int, len(keys))
	start := 0
	for i, k := range keys {
		rows[i] = int(k.row)
		if i+1 == len(keys) || first[i+1] {
			groups = append(groups, group{value: col[k.row], rows: rows[start : i+1 : i+1]})
			start = i + 1
		}
	}
	return groups
}

// markValues orders run, keys sharing one prefix of values of 8 bytes or
// more, by the full value and marks in first the first row of each distinct
// value; it returns how many there are. Runs usually arrive ordered (one
// value repeated), so the sort runs only when a comparison finds them out of
// order.
func markValues(col [][]byte, run []rowKey, first []bool) int {
	first[0] = true
	n := 1
	for i := 1; i < len(run); i++ {
		switch c := bytes.Compare(col[run[i-1].row], col[run[i].row]); {
		case c < 0:
			first[i] = true
			n++
		case c > 0:
			slices.SortStableFunc(run, func(a, b rowKey) int { return bytes.Compare(col[a.row], col[b.row]) })
			clear(first)
			return markValues(col, run, first)
		}
	}
	return n
}

// radixSort sorts keys by prefix with stable counting passes, one per byte
// from the least significant, skipping a byte on which every key agrees. It
// returns the sorted keys, in keys or in a scratch slice of the same length.
func radixSort(keys []rowKey) []rowKey {
	if len(keys) < 2 {
		return keys
	}
	var counts [8][256]int
	for _, k := range keys {
		for b := range counts {
			counts[b][byte(k.prefix>>(8*b))]++
		}
	}
	var buf []rowKey
	for b := range counts {
		shift := 8 * b
		c := &counts[b]
		if c[byte(keys[0].prefix>>shift)] == len(keys) {
			continue
		}
		if buf == nil {
			buf = make([]rowKey, len(keys))
		}
		sum := 0
		for d, n := range c {
			c[d] = sum
			sum += n
		}
		for _, k := range keys {
			d := byte(k.prefix >> shift)
			buf[c[d]] = k
			c[d]++
		}
		keys, buf = buf, keys
	}
	return keys
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
	// One pool serves every group: the draws depend on its length only.
	start := 0
	var pool []uint32
	for gi, g := range groups {
		end := start
		for end < len(buckets) && buckets[end].groupIdx == gi {
			end++
		}
		pool = pool[:0]
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

// layOutEntries encrypts each bucket's value and writes the entries into
// the tail in random order, with head offsets in physical dictionary order
// (paper §5: the tail stores values sequentially in a random order, the head
// holds fixed-size offsets ordered by the selected dictionary). An encrypted
// split first draws its nonce salt from crypto/rand, never from p.Rand,
// whose draws stay exactly those of a split without one.
func (s *Split) layOutEntries(groups []group, buckets []bucket, phys []int, p Params) error {
	n := len(buckets)
	bodySize := func(v []byte) int {
		if p.Plain {
			return len(v)
		}
		return len(v) + pae.TagSize
	}
	// logical[i] is the bucket physical entry i holds.
	logical := make([]int, n)
	for l, ph := range phys {
		logical[ph] = l
	}
	order := p.Rand.Perm(n) // physical entries in tail order
	values := make([][]byte, n)
	var tailSize uint64
	for k, physIdx := range order {
		values[k] = groups[buckets[logical[physIdx]].groupIdx].value
		size := bodySize(values[k])
		tailSize += uint64(uvarintLen(size) + size)
	}
	if err := checkTailSize(tailSize); err != nil {
		return err
	}
	if !p.Plain {
		if _, err := crand.Read(s.salt[:]); err != nil {
			return fmt.Errorf("dict: draw nonce salt: %w", err)
		}
	}
	s.tail = make([]byte, 0, tailSize)
	s.head = make([]uint32, n)
	var iv [pae.IVSize]byte
	copy(iv[:], s.salt[:])
	for k, physIdx := range order {
		s.head[physIdx] = uint32(len(s.tail))
		v := values[k]
		s.tail = binary.AppendUvarint(s.tail, uint64(bodySize(v)))
		if p.Plain {
			s.tail = append(s.tail, v...)
			continue
		}
		binary.BigEndian.PutUint32(iv[saltSize:], uint32(physIdx))
		s.tail = p.Cipher.Seal(s.tail, iv[:], v)
	}
	return nil
}

// uvarintLen returns the size of n's uvarint encoding.
func uvarintLen(n int) int {
	k := 1
	for ; n >= 0x80; n >>= 7 {
		k++
	}
	return k
}

// checkTailSize rejects a tail of tailSize bytes that the head's 32-bit
// offsets cannot address. A wrapped offset would still pass DecodeSplit's
// bounds checks and name another entry, which now fails to decrypt — its
// IV names the index it was sealed for — but the split would be unusable.
func checkTailSize(tailSize uint64) error {
	if tailSize > math.MaxUint32 {
		return fmt.Errorf("dict: dictionary payloads of %d bytes exceed the %d a split addresses", tailSize, uint64(math.MaxUint32))
	}
	return nil
}

// NewRand returns a math/rand generator seeded from crypto/rand, for the
// security-relevant draws of a build: the rotation offset, the tail shuffle
// and the bucket sizes. A failure of the system randomness source is
// returned, never papered over: a fixed seed would make every draw of every
// split predictable.
func NewRand() (*rand.Rand, error) {
	var seed [8]byte
	if _, err := crand.Read(seed[:]); err != nil {
		return nil, fmt.Errorf("dict: seeding build randomness: %w", err)
	}
	return rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(seed[:])))), nil
}
