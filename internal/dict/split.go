package dict

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"github.com/encdbdb/encdbdb/internal/av"
)

// entryRef locates one dictionary entry's payload inside the tail.
type entryRef struct {
	Off uint32
	Len uint32
}

// entryRefSize is the serialized size of an entryRef, used for storage
// accounting (paper Table 6) and the binary layout.
const entryRefSize = 8

// blockSize is the serialized size of an av.Block in the binary layout.
const blockSize = 14

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

	head []entryRef
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

// Tail returns the raw tail bytes. Callers must not modify them.
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

// FromData returns s itself: an engine snapshot's main store is the
// engine's own immutable split. It is kept only for benchmark/trace.go,
// which rebuilds its replayer's splits through it.
func FromData(s *Split) (*Split, error) { return s, nil }

// The binary layout of a split — the one form every carrier stores: the
// wire's opImportColumn, the WAL's import record, and table images. All
// integers are little-endian; every count and length is a u32.
//
//	u8 kind ‖ u8 plain (0 or 1) ‖ u32 MaxLen ‖ u32 BSMax
//	u32 len ‖ rotation header (EncRndOffset)
//	u32 rows ‖ u8 width
//	u32 n ‖ n × u64 slice words
//	u32 n ‖ n × (u8 encoding ‖ u8 width ‖ u32 base ‖ u32 off ‖ u32 n) blocks
//	u32 n ‖ n × (u32 ValueID ‖ u32 end) RLE runs
//	u32 n ‖ n × (u32 off ‖ u32 len) head
//	u32 len ‖ tail
//
// The attribute vector is written exactly as held (internal/av's words,
// block metadata and runs), so neither side unpacks or re-packs it.

// AppendBinary appends the binary layout of s to dst and returns the
// extended slice.
func (s *Split) AppendBinary(dst []byte) []byte {
	v := s.packed
	words, blocks, runs := v.Words(), v.Blocks(), v.Runs()
	size := 2 + 4*2 + 4 + len(s.EncRndOffset) + 4 + 1 + 4 + 8*len(words) + 4 + blockSize*len(blocks) +
		4 + 8*len(runs) + 4 + entryRefSize*len(s.head) + 4 + len(s.tail)
	dst = slices.Grow(dst, size)
	le := binary.LittleEndian
	dst = append(dst, uint8(s.Kind), boolByte(s.Plain))
	dst = le.AppendUint32(dst, uint32(s.MaxLen))
	dst = le.AppendUint32(dst, uint32(s.BSMax))
	dst = appendBytes(dst, s.EncRndOffset)
	dst = le.AppendUint32(dst, uint32(v.Len()))
	dst = append(dst, uint8(v.Bits()))
	dst = le.AppendUint32(dst, uint32(len(words)))
	for _, w := range words {
		dst = le.AppendUint64(dst, w)
	}
	dst = le.AppendUint32(dst, uint32(len(blocks)))
	for _, b := range blocks {
		dst = append(dst, uint8(b.Enc), b.W)
		dst = le.AppendUint32(dst, b.Base)
		dst = le.AppendUint32(dst, b.Off)
		dst = le.AppendUint32(dst, b.N)
	}
	dst = le.AppendUint32(dst, uint32(len(runs)))
	for _, r := range runs {
		dst = le.AppendUint32(dst, r.VID)
		dst = le.AppendUint32(dst, r.End)
	}
	dst = le.AppendUint32(dst, uint32(len(s.head)))
	for _, ref := range s.head {
		dst = le.AppendUint32(dst, ref.Off)
		dst = le.AppendUint32(dst, ref.Len)
	}
	return appendBytes(dst, s.tail)
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// DecodeSplit reconstructs a split from its binary layout (AppendBinary).
// The bytes may come from an untrusted file or peer: every structural
// invariant is validated — the kind, the maximum length, every head
// reference against the tail, the attribute vector's shape and that each of
// its codes is < |D| (av.FromEncoded), a rotated dictionary's header, at
// most math.MaxInt32 rows — and so is the layout itself, trailing bytes
// included. A zero-width vector (|D| = 1) holds no words, so its row count
// costs no bytes here: a caller taking bytes from a peer bounds it. The
// returned split owns its memory; b may be reused once DecodeSplit returns.
func DecodeSplit(b []byte) (*Split, error) {
	d := &decoder{buf: b}
	s := &Split{Kind: Kind(d.u8())}
	plain := d.u8()
	s.Plain = plain == 1
	s.MaxLen = int(d.u32())
	s.BSMax = int(d.u32())
	s.EncRndOffset = d.bytes()
	rows, width := int(d.u32()), int(d.u8())
	le := binary.LittleEndian
	b8 := d.elems(8)
	words := make([]uint64, len(b8)/8)
	for i := range words {
		words[i] = le.Uint64(b8[8*i:])
	}
	bb := d.elems(blockSize)
	blocks := make([]av.Block, len(bb)/blockSize)
	for i := range blocks {
		e := bb[blockSize*i:]
		blocks[i] = av.Block{Enc: av.Encoding(e[0]), W: e[1], Base: le.Uint32(e[2:]), Off: le.Uint32(e[6:]), N: le.Uint32(e[10:])}
	}
	b8 = d.elems(8)
	runs := make([]av.Run, len(b8)/8)
	for i := range runs {
		runs[i] = av.Run{VID: le.Uint32(b8[8*i:]), End: le.Uint32(b8[8*i+4:])}
	}
	b8 = d.elems(entryRefSize)
	s.head = make([]entryRef, len(b8)/entryRefSize)
	for i := range s.head {
		s.head[i] = entryRef{Off: le.Uint32(b8[8*i:]), Len: le.Uint32(b8[8*i+4:])}
	}
	s.tail = d.bytes()
	switch {
	case d.err != nil:
		return nil, d.err
	case d.off != len(b):
		return nil, fmt.Errorf("dict: split has %d trailing bytes", len(b)-d.off)
	case plain > 1:
		return nil, fmt.Errorf("dict: invalid plain flag %d", plain)
	case !s.Kind.Valid():
		return nil, fmt.Errorf("dict: invalid kind %d", int(s.Kind))
	case s.MaxLen <= 0:
		return nil, fmt.Errorf("dict: invalid max length %d", s.MaxLen)
	case rows > math.MaxInt32:
		return nil, fmt.Errorf("dict: %d rows exceed the %d a split indexes", rows, math.MaxInt32)
	case s.Kind.Order() == OrderRotated && len(s.head) > 0 && len(s.EncRndOffset) == 0:
		return nil, fmt.Errorf("dict: rotated dictionary lacks rotation offset")
	}
	for i, ref := range s.head {
		if end := uint64(ref.Off) + uint64(ref.Len); end > uint64(len(s.tail)) {
			return nil, fmt.Errorf("dict: entry %d reference [%d,%d) exceeds tail size %d",
				i, ref.Off, end, len(s.tail))
		}
	}
	var err error
	if s.packed, err = av.FromEncoded(words, blocks, runs, rows, width, len(s.head)); err != nil {
		return nil, fmt.Errorf("dict: %w", err)
	}
	return s, nil
}

// decoder consumes a split's binary layout, capturing the first error.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) take(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.err = fmt.Errorf("dict: split truncated at byte %d (+%d of %d)", d.off, n, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

func (d *decoder) u8() uint8 {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *decoder) u32() uint32 {
	if b := d.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// elems reads a u32 count of elem-byte elements and returns their bytes:
// a count the bytes left cannot fill is an error, never an allocation.
func (d *decoder) elems(elem int) []byte {
	return d.take(uint64(d.u32()) * uint64(elem))
}

// bytes reads a length-prefixed byte string into memory of its own; an
// empty one reads as nil.
func (d *decoder) bytes() []byte {
	b := d.take(uint64(d.u32()))
	if len(b) == 0 {
		return nil
	}
	return bytes.Clone(b)
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
