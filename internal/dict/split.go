package dict

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"github.com/encdbdb/encdbdb/internal/av"
	"github.com/encdbdb/encdbdb/internal/codec"
	"github.com/encdbdb/encdbdb/internal/pae"
)

// headRefSize is the serialized size of one head reference — an entry's u32
// offset into the tail — used for storage accounting (paper Table 6) and the
// binary layout.
const headRefSize = 4

// saltSize is the size of an encrypted split's nonce salt.
const saltSize = 8

// blockSize is the serialized size of an av.Block in the binary layout.
const blockSize = 14

// Split is the result of splitting a column into a dictionary and an
// attribute vector under one of the nine encrypted dictionaries. Dictionary
// entries are PAE ciphertexts (or raw values for the PlainDBDB baseline),
// stored as a head of fixed-size references in dictionary order pointing
// into a randomly ordered variable-length tail (paper §5).
//
// An entry stores no IV. Each build of an encrypted split draws one random
// salt, and entry i — i is its ValueID, the physical dictionary index — is
// sealed under the IV salt ‖ u32(i) (pae.Seal). The tail holds each entry as
// uvarint(len) ‖ body, body being ciphertext ‖ tag or the raw value, and the
// head holds each entry's offset only: the tail is shuffled, so the next
// head offset says nothing about an entry's length. AppendEntry rebuilds the
// self-contained PAE form, IV ‖ ciphertext ‖ tag, that pae.Decrypt and the
// wire's cells take. Because the IV names the index, an entry decrypts only
// at the position it was sealed for.
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

	salt [saltSize]byte // IV prefix of every entry; zero for plain splits
	head []uint32       // tail offset of each entry, in ValueID order
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

// AppendEntry appends dictionary entry i in its self-contained form to dst
// and returns the extended slice: the PAE ciphertext salt ‖ u32(i) ‖ body,
// or the raw value for plain splits. The entry is read from the tail, which
// may be untrusted memory; the appended copy is the caller's own.
func (s *Split) AppendEntry(dst []byte, i int) []byte {
	start, end := s.bodyRange(s.head[i])
	if !s.Plain {
		dst = append(dst, s.salt[:]...)
		dst = binary.BigEndian.AppendUint32(dst, uint32(i))
	}
	return append(dst, s.tail[start:end]...)
}

// bodyRange returns the tail range of the body of the entry at tail offset
// off, behind its length prefix. DecodeSplit has checked every head offset.
func (s *Split) bodyRange(off uint32) (start, end int) {
	if n := s.tail[off]; n < 0x80 { // a one-byte prefix: a body under 128 bytes
		return int(off) + 1, int(off) + 1 + int(n)
	}
	n, k := binary.Uvarint(s.tail[off:])
	start = int(off) + k
	return start, start + int(n)
}

// Gather appends row rows[k]'s cell — cell = D[AV[row]] (paper Fig. 5 step
// 12), in AppendEntry's self-contained form — to arena for every k, sets
// cells[k] to it and returns the extended arena. It works in tight passes
// instead of one row at a time: all rows' ValueIDs first (one bulk
// attribute-vector gather), then their head offsets, then each entry's
// first byte (its length prefix), then the body ranges, then each body's
// last byte, then one copy of every entry into the arena, grown at most
// once, to the size the ranges add up to. Rows are random and the tail is
// shuffled by design, so nearly every step of every row misses the cache;
// in the two byte passes the loads are independent, so those misses overlap
// instead of queueing behind each other, and the copy finds the entries in
// the cache. The cells alias only the arena, which a caller may reuse once
// it is done with them. cells needs room for len(rows) entries; rows must be
// < Rows().
func (s *Split) Gather(arena []byte, cells [][]byte, rows []uint32) []byte {
	if len(rows) == 0 {
		return arena
	}
	cells = cells[:len(rows)]
	n := len(rows)
	var small [24]uint32 // point lookups resolve without allocating
	scratch := small[:]
	if 3*n > len(small) {
		scratch = make([]uint32, 3*n)
	}
	codes, offs, touched := scratch[:n], scratch[n:2*n], scratch[2*n:3*n]
	s.packed.Gather(codes, rows)
	for k, vid := range codes {
		offs[k] = s.head[vid]
	}
	for k, off := range offs {
		touched[k] = uint32(s.tail[off]) // stored, so the load is kept
	}
	size := 0
	if !s.Plain {
		size = (saltSize + 4) * n
	}
	for k, off := range offs {
		start, end := s.bodyRange(off)
		cells[k] = s.tail[start:end:end]
		size += end - start
	}
	for k, c := range cells {
		if len(c) > 0 {
			touched[k] = uint32(c[len(c)-1])
		}
	}
	arena = slices.Grow(arena, size)
	for k, vid := range codes {
		start := len(arena)
		if !s.Plain {
			arena = append(arena, s.salt[:]...)
			arena = binary.BigEndian.AppendUint32(arena, vid)
		}
		arena = append(arena, cells[k]...)
		cells[k] = arena[start:len(arena):len(arena)]
	}
	return arena
}

// Tail returns the raw tail bytes. Callers must not modify them.
func (s *Split) Tail() []byte { return s.tail }

// DictSizeBytes returns the storage size of the dictionary alone: head
// references, tail entries, the encrypted rotation offset and, for an
// encrypted split, the nonce salt.
func (s *Split) DictSizeBytes() int {
	n := len(s.head)*headRefSize + len(s.tail) + len(s.EncRndOffset)
	if !s.Plain {
		n += saltSize
	}
	return n
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
//	u8 kind ‖ u8 plain (0 or 1) ‖ u32 MaxLen ‖ u32 BSMax ‖ 8-byte salt
//	u32 len ‖ rotation header (EncRndOffset)
//	u32 rows ‖ u8 width
//	u32 n ‖ n × u64 slice words
//	u32 n ‖ n × (u8 encoding ‖ u8 width ‖ u32 base ‖ u32 off ‖ u32 n) blocks
//	u32 n ‖ n × (u32 ValueID ‖ u32 end) RLE runs
//	u32 n ‖ n × u32 off head
//	u32 len ‖ tail: entries as uvarint(len) ‖ body
//
// The attribute vector is written exactly as held (internal/av's words,
// block metadata and runs), so neither side unpacks or re-packs it.

// AppendBinary appends the binary layout of s to dst and returns the
// extended slice.
func (s *Split) AppendBinary(dst []byte) []byte {
	v := s.packed
	words, blocks, runs := v.Words(), v.Blocks(), v.Runs()
	size := 2 + 4*2 + saltSize + 4 + len(s.EncRndOffset) + 4 + 1 + 4 + 8*len(words) + 4 + blockSize*len(blocks) +
		4 + 8*len(runs) + 4 + headRefSize*len(s.head) + 4 + len(s.tail)
	e := codec.Encoder{B: slices.Grow(dst, size)}
	e.Byte(uint8(s.Kind))
	e.Bool(s.Plain)
	e.LE32(uint32(s.MaxLen))
	e.LE32(uint32(s.BSMax))
	e.Raw(s.salt[:])
	e.LE32(uint32(len(s.EncRndOffset)))
	e.Raw(s.EncRndOffset)
	e.LE32(uint32(v.Len()))
	e.Byte(uint8(v.Bits()))
	e.LE32(uint32(len(words)))
	for _, w := range words {
		e.LE64(w)
	}
	e.LE32(uint32(len(blocks)))
	for _, b := range blocks {
		e.Byte(uint8(b.Enc))
		e.Byte(b.W)
		e.LE32(b.Base)
		e.LE32(b.Off)
		e.LE32(b.N)
	}
	e.LE32(uint32(len(runs)))
	for _, r := range runs {
		e.LE32(r.VID)
		e.LE32(r.End)
	}
	e.LE32(uint32(len(s.head)))
	for _, off := range s.head {
		e.LE32(off)
	}
	e.LE32(uint32(len(s.tail)))
	e.Raw(s.tail)
	return e.B
}

// DecodeSplit reconstructs a split from its binary layout (AppendBinary).
// The bytes may come from an untrusted file or peer: every structural
// invariant is validated — the kind, the maximum length, every head
// offset, length prefix and entry length against the tail and the maximum
// length, the attribute vector's shape and that each of
// its codes is < |D| (av.FromEncoded), a rotated dictionary's header, at
// most math.MaxInt32 rows — and so is the layout itself, trailing bytes
// included. A zero-width vector (|D| = 1) holds no words, so its row count
// costs no bytes here: a caller taking bytes from a peer bounds it. The
// returned split owns its memory; b may be reused once DecodeSplit returns.
func DecodeSplit(b []byte) (*Split, error) {
	var d codec.Reader
	d.Reset(b)
	s := &Split{Kind: Kind(d.Byte())}
	plain := d.Byte()
	s.Plain = plain == 1
	s.MaxLen = int(d.LE32())
	s.BSMax = int(d.LE32())
	copy(s.salt[:], d.Take(saltSize))
	s.EncRndOffset = cloneBytes(d.Take(d.Count(1)))
	rows, width := int(d.LE32()), int(d.Byte())
	words := make([]uint64, d.Count(8))
	for i := range words {
		words[i] = d.LE64()
	}
	blocks := make([]av.Block, d.Count(blockSize))
	for i := range blocks {
		blocks[i] = av.Block{Enc: av.Encoding(d.Byte()), W: d.Byte(), Base: d.LE32(), Off: d.LE32(), N: d.LE32()}
	}
	runs := make([]av.Run, d.Count(8))
	for i := range runs {
		runs[i] = av.Run{VID: d.LE32(), End: d.LE32()}
	}
	s.head = make([]uint32, d.Count(headRefSize))
	for i := range s.head {
		s.head[i] = d.LE32()
	}
	s.tail = cloneBytes(d.Take(d.Count(1)))
	switch err := d.Err(); {
	case err != nil:
		return nil, fmt.Errorf("dict: split: %w", err)
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
	if err := s.checkEntries(); err != nil {
		return nil, err
	}
	var err error
	if s.packed, err = av.FromEncoded(words, blocks, runs, rows, width, len(s.head)); err != nil {
		return nil, fmt.Errorf("dict: %w", err)
	}
	return s, nil
}

// checkEntries validates every head offset against the tail: its length
// prefix and body must lie inside the tail, and the body must be what Build
// writes for a value of at most MaxLen bytes. AppendEntry then never reads
// out of bounds, and no entry outgrows the enclave's scratch charge.
func (s *Split) checkEntries() error {
	minBody, maxBody := 0, s.MaxLen
	if !s.Plain {
		minBody, maxBody = pae.TagSize, s.MaxLen+pae.TagSize
	}
	for i, off := range s.head {
		if uint64(off) >= uint64(len(s.tail)) {
			return fmt.Errorf("dict: entry %d offset %d is outside the %d-byte tail", i, off, len(s.tail))
		}
		n, k := binary.Uvarint(s.tail[off:])
		if k <= 0 || n > uint64(len(s.tail)-int(off)-k) {
			return fmt.Errorf("dict: entry %d at offset %d runs past the %d-byte tail", i, off, len(s.tail))
		}
		if n < uint64(minBody) || n > uint64(maxBody) {
			return fmt.Errorf("dict: entry %d has %d bytes, want %d..%d", i, n, minBody, maxBody)
		}
	}
	return nil
}

// cloneBytes copies b into memory of its own; an empty b reads as nil.
func cloneBytes(b []byte) []byte {
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
		v, err := decrypt(s.AppendEntry(nil, i))
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
