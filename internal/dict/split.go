package dict

import (
	"encoding/binary"
	"fmt"

	"github.com/encdbdb/encdbdb/internal/av"
)

// EntryRef locates one dictionary entry's payload inside the tail.
type EntryRef struct {
	Off uint32
	Len uint32
}

// entryRefSize is the serialized size of an EntryRef, used for storage
// accounting (paper Table 6) and the on-disk format.
const entryRefSize = 8

// Split is the result of splitting a column into a dictionary and an
// attribute vector under one of the nine encrypted dictionaries. Dictionary
// entries are PAE ciphertexts (or raw values for the PlainDBDB baseline),
// stored as a head of fixed-size references in dictionary order pointing
// into a randomly ordered variable-length tail (paper §5).
type Split struct {
	// Kind is the encrypted dictionary type used for the split.
	Kind Kind
	// Plain marks a PlainDBDB-style split: identical structure and
	// algorithms, but entries are stored unencrypted.
	Plain bool
	// MaxLen is the column's maximum value length in bytes.
	MaxLen int
	// BSMax is the maximum bucket size for frequency-smoothing kinds
	// (0 otherwise).
	BSMax int
	// EncRndOffset is the PAE-encrypted rotation header for rotated kinds
	// (stored raw for plain splits; layout at DecodeRotOffset), nil
	// otherwise.
	EncRndOffset []byte

	// packed is the attribute vector — row j's ValueID — bit-packed at
	// ceil(log2 |D|) bits per code (see internal/av). The SWAR scan
	// kernels run on it directly. Every constructor sets it, and nothing
	// replaces it afterwards, so concurrent readers need no lock.
	packed *av.Vector

	head []EntryRef
	tail []byte
}

// Len returns the number of dictionary entries |D|.
func (s *Split) Len() int { return len(s.head) }

// Rows returns the number of rows |AV| (= |C|).
func (s *Split) Rows() int { return s.packed.Len() }

// Packed returns the bit-packed attribute vector the scan kernels consume.
func (s *Split) Packed() *av.Vector { return s.packed }

// VID returns the ValueID of row j.
func (s *Split) VID(j int) uint32 { return s.packed.Get(j) }

// AVCodes unpacks the attribute vector into a fresh []uint32 on every call.
// The packed vector is the only resident representation; leakage analysis,
// serialization and the unpacked baselines (internal/baseline) pay 4
// bytes/row only while they hold the result.
func (s *Split) AVCodes() []uint32 { return s.packed.Unpack() }

// setVID overwrites row j's ValueID. Test hook for corrupting splits
// deliberately; vid is truncated to the packed width.
func (s *Split) setVID(j int, vid uint32) { s.packed.Set(j, vid) }

// Entry returns the payload of dictionary entry i: a PAE ciphertext, or the
// raw value for plain splits. The returned slice aliases the tail and must
// not be modified.
func (s *Split) Entry(i int) []byte {
	ref := s.head[i]
	return s.tail[ref.Off : ref.Off+ref.Len]
}

// Gather sets cells[k] to the payload of row rows[k]'s dictionary entry —
// cell = D[AV[row]] (paper Fig. 5 step 12) for a batch of rows — in tight
// passes instead of one row at a time: all rows' ValueIDs first (one bulk
// attribute-vector gather), then their head references, then one read of
// each payload. Rows are random and the tail is shuffled by design, so
// nearly every step of every row misses the cache; with the passes
// independent, those misses overlap instead of queueing behind each other,
// and the payloads are cached by the time the caller copies them out. The
// cells alias the tail and must not be modified. cells needs room for
// len(rows) entries; rows must be < Rows().
func (s *Split) Gather(cells [][]byte, rows []uint32) {
	cells = cells[:len(rows)]
	var small [8]uint32 // point lookups resolve without allocating
	codes := small[:]
	if len(rows) > len(small) {
		codes = make([]uint32, len(rows))
	}
	s.packed.Gather(codes, rows)
	for k, vid := range codes[:len(rows)] {
		ref := s.head[vid]
		cells[k] = s.tail[ref.Off : ref.Off+ref.Len : ref.Off+ref.Len]
	}
	touch(cells)
}

// touch reads the first and last byte of every cell in one loop of
// independent loads, pulling the payloads' cache lines in. It must not be
// inlined: the compiler would drop loads whose result is unused.
//
//go:noinline
func touch(cells [][]byte) (x byte) {
	for _, c := range cells {
		if len(c) > 0 {
			x ^= c[0] ^ c[len(c)-1]
		}
	}
	return x
}

// Load is Entry under the name required by the enclave's untrusted-memory
// interface (search.Region), letting a Split be handed to the enclave
// directly as the region backing a dictionary search.
func (s *Split) Load(i int) []byte { return s.Entry(i) }

// Head returns the entry reference table (dictionary order). Exposed for
// serialization; callers must not modify it.
func (s *Split) Head() []EntryRef { return s.head }

// Tail returns the raw tail bytes. Exposed for serialization; callers must
// not modify it.
func (s *Split) Tail() []byte { return s.tail }

// DictSizeBytes returns the storage size of the dictionary alone
// (head references plus tail payloads plus the encrypted rotation offset).
func (s *Split) DictSizeBytes() int {
	return len(s.head)*entryRefSize + len(s.tail) + len(s.EncRndOffset)
}

// MemBytes returns the in-memory footprint of the split column: dictionary
// plus the bit-packed attribute vector (ceil(log2 |D|) bits per row; the
// unpacked equivalent is 4*Rows() bytes).
func (s *Split) MemBytes() int {
	return s.DictSizeBytes() + s.packed.MemBytes()
}

// SizeBytes returns the total storage size of the split column — the
// quantity compared in paper Table 6. Since the v2 storage format persists
// the attribute vector in its packed form, this equals MemBytes.
func (s *Split) SizeBytes() int {
	return s.MemBytes()
}

// Empty returns a split with zero rows and zero dictionary entries, used as
// the initial main store of a freshly created table whose data arrives
// exclusively through the delta store.
func Empty(kind Kind, maxLen, bsmax int, plain bool) *Split {
	return &Split{Kind: kind, Plain: plain, MaxLen: maxLen, BSMax: bsmax, packed: av.Pack(nil, 0)}
}

// SplitData is the exported, serializable form of a Split, used by the
// on-disk column store format and the client/server wire protocol.
type SplitData struct {
	Kind         Kind
	Plain        bool
	MaxLen       int
	BSMax        int
	EncRndOffset []byte
	AV           []uint32
	Head         []EntryRef
	Tail         []byte
}

// Data returns the serializable form of s. The AV field is the unpacked
// []uint32 interchange shape — stable across storage format versions and
// wire peers; the storage layer re-packs it for the v2 on-disk layout. It
// is unpacked afresh, so snapshotting a large table does not inflate the
// split's resident footprint. The other slices alias s and must not be
// modified.
func (s *Split) Data() SplitData {
	return SplitData{
		Kind:         s.Kind,
		Plain:        s.Plain,
		MaxLen:       s.MaxLen,
		BSMax:        s.BSMax,
		EncRndOffset: s.EncRndOffset,
		AV:           s.AVCodes(),
		Head:         s.head,
		Tail:         s.tail,
	}
}

// FromData reconstructs a Split from its serialized form, validating the
// structural invariants an untrusted file or peer could violate.
func FromData(d SplitData) (*Split, error) {
	if !d.Kind.Valid() {
		return nil, fmt.Errorf("dict: invalid kind %d", int(d.Kind))
	}
	if d.MaxLen <= 0 {
		return nil, fmt.Errorf("dict: invalid max length %d", d.MaxLen)
	}
	for i, ref := range d.Head {
		end := uint64(ref.Off) + uint64(ref.Len)
		if end > uint64(len(d.Tail)) {
			return nil, fmt.Errorf("dict: entry %d reference [%d,%d) exceeds tail size %d",
				i, ref.Off, end, len(d.Tail))
		}
	}
	for j, vid := range d.AV {
		if int(vid) >= len(d.Head) {
			return nil, fmt.Errorf("dict: row %d references ValueID %d >= |D|=%d", j, vid, len(d.Head))
		}
	}
	if d.Kind.Order() == OrderRotated && len(d.Head) > 0 && len(d.EncRndOffset) == 0 {
		return nil, fmt.Errorf("dict: rotated dictionary lacks rotation offset")
	}
	return &Split{
		Kind:         d.Kind,
		Plain:        d.Plain,
		MaxLen:       d.MaxLen,
		BSMax:        d.BSMax,
		EncRndOffset: d.EncRndOffset,
		packed:       av.PackEncoded(d.AV, len(d.Head)),
		head:         d.Head,
		tail:         d.Tail,
	}, nil
}

// rotHeader encodes a rotated dictionary's header; see DecodeRotOffset.
func rotHeader(offset, tailRun uint32) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint32(b[:4], tailRun)
	binary.BigEndian.PutUint32(b[4:], offset)
	return b
}

// DecodeRotOffset decodes a rotated dictionary's 8-byte header, stored raw
// for plain splits and PAE-encrypted (EncRndOffset) otherwise, so only the
// enclave reads it. The layout is big-endian u32 tailRun ‖ u32 offset:
//
//   - offset is the secret rotation offset rndOffset (paper EncDB 2);
//   - tailRun is the number of trailing entries D[i], i >= 1, whose
//     plaintext equals D[0] — the run of equal values that wraps around the
//     array end, which the rotated search must exclude from its binary
//     searches (search.RotatedDict).
//
// A header written as a u64 offset before tailRun existed decodes with
// tailRun = 0.
func DecodeRotOffset(b []byte) (offset, tailRun uint32, err error) {
	if len(b) != 8 {
		return 0, 0, fmt.Errorf("dict: rotation header has %d bytes, want 8", len(b))
	}
	return binary.BigEndian.Uint32(b[4:]), binary.BigEndian.Uint32(b[:4]), nil
}

// VerifyCorrectness checks split correctness per Definition 1: for every row
// j, decrypt(D[AV[j]]) must equal col[j]. decrypt is applied to each entry
// payload; pass an identity function for plain splits. Intended for tests
// and the data owner's post-build sanity check.
func (s *Split) VerifyCorrectness(col [][]byte, decrypt func([]byte) ([]byte, error)) error {
	if len(col) != s.Rows() {
		return fmt.Errorf("dict: column has %d rows, split has %d", len(col), s.Rows())
	}
	// Decrypt each dictionary entry once, then check all rows.
	plain := make([][]byte, s.Len())
	for i := range plain {
		v, err := decrypt(s.Entry(i))
		if err != nil {
			return fmt.Errorf("dict: decrypt entry %d: %w", i, err)
		}
		plain[i] = v
	}
	codes := s.AVCodes()
	for j, vid := range codes {
		if int(vid) >= len(plain) {
			return fmt.Errorf("dict: row %d references ValueID %d >= |D|=%d", j, vid, len(plain))
		}
		if string(plain[vid]) != string(col[j]) {
			return fmt.Errorf("dict: row %d: D[%d]=%q != C[%d]=%q", j, vid, plain[vid], j, col[j])
		}
	}
	if err := s.verifyRepetition(plain, codes); err != nil {
		return err
	}
	return nil
}

// verifyRepetition checks the repetition option's structural invariants on
// the decrypted dictionary (paper Table 3).
func (s *Split) verifyRepetition(plain [][]byte, codes []uint32) error {
	counts := make(map[string]int, len(plain))
	for _, v := range plain {
		counts[string(v)]++
	}
	vidUse := make([]int, len(plain))
	for _, vid := range codes {
		vidUse[vid]++
	}
	switch s.Kind.Repetition() {
	case RepRevealing:
		for v, c := range counts {
			if c != 1 {
				return fmt.Errorf("dict: revealing split stores %q %d times", v, c)
			}
		}
	case RepSmoothing:
		for i, use := range vidUse {
			if use < 1 || use > s.BSMax {
				return fmt.Errorf("dict: smoothing bucket %d used %d times, want 1..%d", i, use, s.BSMax)
			}
		}
	case RepHiding:
		if len(plain) != s.Rows() {
			return fmt.Errorf("dict: hiding split has |D|=%d != |AV|=%d", len(plain), s.Rows())
		}
		for i, use := range vidUse {
			if use != 1 {
				return fmt.Errorf("dict: hiding ValueID %d used %d times, want 1", i, use)
			}
		}
	}
	return nil
}
