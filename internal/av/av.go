// Package av implements the compressed attribute vector of the paper's
// column store: each ValueID is stored in w = ceil(log2 |D|) bits instead of
// a 4-byte uint32, and scan predicates are evaluated with SWAR
// (SIMD-within-a-register) kernels that process 64 rows per iteration.
//
// The base layout is bit-sliced ("vertical", in the style of BitWeaving/V):
// rows are grouped in blocks of 64, and a group stores w consecutive uint64
// words, word j holding bit j of all 64 codes (bit r of word j = bit j of
// row 64g+r's code). A range predicate lo <= code <= hi is then evaluated
// with the classic bit-serial comparator — a handful of AND/OR/ANDNOT word
// operations per slice, most-significant slice first, with early exit once
// every row's comparison is decided — producing exactly one 64-bit match
// word per group. That word combines directly into a ridset.Set, whose words
// cover the same 64-row blocks, so the packed scan plugs into the engine's
// 64-aligned parallel shard layout with no per-element emit path at all.
//
// On top of the uniform layout, PackEncoded adds two lightweight group
// encodings chosen per 1024-row block from block statistics:
//
//   - frame of reference (EncFoR): the block minimum is subtracted and the
//     residuals are bit-sliced at the narrowed width ceil(log2(max-min+1)),
//     which shrinks clustered blocks (e.g. a block of a clustered column
//     spanning few ValueIDs) far below the global width;
//   - run length (EncRLE): blocks with few value runs (sorted or clustered
//     columns) store (ValueID, end-row) runs and scans evaluate each run
//     once — O(runs + touched words) instead of O(rows).
//
// Every kernel has one combine mode: its entry point (ScanRangesInto,
// ScanBitsetInto) ANDs match words into an accumulator word-by-word,
// skipping any group whose accumulator word is already zero — the engine's
// fused conjunction pipeline evaluates multi-predicate queries and row
// validity in a single pass through each group.
package av

import (
	"fmt"
	"math/bits"

	"github.com/encdbdb/encdbdb/internal/ridset"
)

// GroupRows is the scan granularity: codes are packed (and match words
// emitted) in blocks of 64 rows, matching both the uint64 word size and the
// 64-aligned shard boundaries of the parallel attribute-vector scan.
const GroupRows = 64

// BlockGroups is the number of 64-row groups per encoding block: encoding
// decisions (packed vs FoR vs RLE) are made per block of BlockRows rows, so
// per-block metadata stays amortized while clustered regions of a column can
// still pick their own representation.
const BlockGroups = 16

// BlockRows is the encoding-block granularity in rows.
const BlockRows = GroupRows * BlockGroups

// rleMaxRuns caps the run count of an RLE block so the O(runs) kernels never
// degenerate past the slice kernels on noisy data.
const rleMaxRuns = BlockRows / 8

// Encoding identifies the per-block representation of an encoded vector.
type Encoding uint8

// The block encodings. EncPacked is the uniform bit-sliced layout at the
// global width; EncFoR bit-slices base-subtracted residuals at a narrowed
// width; EncRLE stores value runs.
const (
	EncPacked Encoding = iota
	EncFoR
	EncRLE
)

// String names an encoding for stats and bench output.
func (e Encoding) String() string {
	switch e {
	case EncPacked:
		return "packed"
	case EncFoR:
		return "for"
	case EncRLE:
		return "rle"
	default:
		return fmt.Sprintf("Encoding(%d)", uint8(e))
	}
}

// Block is one encoding block's metadata: its representation, slice width W
// and FoR base (EncPacked/EncFoR), and its extent in the vector's backing
// arrays — Off/N index words for sliced blocks and runs for RLE blocks.
// Blocks tile the backing arrays in order, so Off is also derivable; it is
// stored (and validated) to keep the serialized form self-describing.
type Block struct {
	Enc  Encoding
	W    uint8
	Base uint32
	Off  uint32
	N    uint32
}

// blockMetaBytes is the in-memory footprint charged per block by MemBytes.
const blockMetaBytes = 16

// Run is one RLE run: rows [prev.End, End) of the block (block-local,
// cumulative) hold ValueID VID.
type Run struct {
	VID uint32
	End uint32
}

// Width returns the number of bits needed to store any ValueID of a
// dictionary with dictLen entries: ceil(log2 dictLen), and 0 when a single
// entry (or none) makes every code trivially zero.
func Width(dictLen int) int {
	if dictLen <= 1 {
		return 0
	}
	return bits.Len(uint(dictLen - 1))
}

// Vector is a bit-packed attribute vector over a fixed dictionary size.
// It is immutable after Pack in normal operation (Set exists for tests and
// repair tooling) and safe for concurrent readers.
type Vector struct {
	n    int // rows
	w    int // bits per code = Width(dict)
	dict int // |D| the codes were validated against
	// words holds the bit slices. Uniform vectors (blocks == nil) are
	// group-major: words[g*w+j] is bit-slice j of rows [64g, 64g+64).
	// Encoded vectors lay each sliced block's groups out consecutively at
	// that block's width, starting at the block's Off.
	words []uint64
	// blocks is the per-block encoding metadata of an encoded vector, nil
	// for the uniform layout produced by Pack.
	blocks []Block
	// runs backs the RLE blocks of an encoded vector.
	runs []Run
}

// Range is an inclusive ValueID range [Lo, Hi] as produced by the sorted and
// rotated dictionary searches.
type Range struct {
	Lo uint32
	Hi uint32
}

// Pack bit-packs codes for a dictionary of dictLen entries into the uniform
// (single-width, no per-block encodings) layout. Codes are truncated to
// Width(dictLen) bits; the caller is responsible for having validated
// code < dictLen (dict.Build does).
func Pack(codes []uint32, dictLen int) *Vector {
	v := &Vector{n: len(codes), w: Width(dictLen), dict: dictLen}
	if v.w == 0 || v.n == 0 {
		return v
	}
	v.words = make([]uint64, v.groups()*v.w)
	packSlices(v.words, codes, 0, v.w, v.codeMask())
	return v
}

// PackEncoded bit-packs codes like Pack and additionally selects a
// lightweight encoding per 1024-row block from block statistics: run-length
// encoding when the block has few value runs and the runs are cheaper than
// slices, frame-of-reference narrowing when the block's value spread needs
// fewer bits than the global width, and the uniform packed layout otherwise.
// If no block benefits, the canonical uniform vector is returned.
func PackEncoded(codes []uint32, dictLen int) *Vector {
	w := Width(dictLen)
	n := len(codes)
	if w == 0 || n == 0 {
		return Pack(codes, dictLen)
	}
	nblocks := (n + BlockRows - 1) / BlockRows
	encoded := false
	type stat struct {
		min, max uint32
		runs     int
	}
	stats := make([]stat, nblocks)
	for b := range stats {
		cs := codes[b*BlockRows : min(n, (b+1)*BlockRows)]
		st := stat{min: cs[0], max: cs[0], runs: 1}
		for i := 1; i < len(cs); i++ {
			c := cs[i]
			if c < st.min {
				st.min = c
			}
			if c > st.max {
				st.max = c
			}
			if c != cs[i-1] {
				st.runs++
			}
		}
		stats[b] = st
		if blockEncoding(st.runs, st.min, st.max, len(cs), w) != EncPacked {
			encoded = true
		}
	}
	if !encoded {
		return Pack(codes, dictLen)
	}

	v := &Vector{n: n, w: w, dict: dictLen, blocks: make([]Block, nblocks)}
	for b, st := range stats {
		cs := codes[b*BlockRows : min(n, (b+1)*BlockRows)]
		groups := (len(cs) + GroupRows - 1) / GroupRows
		switch blockEncoding(st.runs, st.min, st.max, len(cs), w) {
		case EncRLE:
			off := len(v.runs)
			end := uint32(0)
			for i := range cs {
				if i > 0 && cs[i] != cs[i-1] {
					v.runs = append(v.runs, Run{VID: cs[i-1], End: end})
				}
				end++
			}
			v.runs = append(v.runs, Run{VID: cs[len(cs)-1], End: end})
			v.blocks[b] = Block{Enc: EncRLE, Off: uint32(off), N: uint32(len(v.runs) - off)}
		case EncFoR:
			bw := bits.Len(uint(st.max - st.min))
			off := len(v.words)
			v.words = append(v.words, make([]uint64, groups*bw)...)
			packSlices(v.words[off:], cs, st.min, bw, (1<<uint(bw))-1)
			v.blocks[b] = Block{Enc: EncFoR, W: uint8(bw), Base: st.min, Off: uint32(off), N: uint32(groups * bw)}
		default:
			off := len(v.words)
			v.words = append(v.words, make([]uint64, groups*w)...)
			packSlices(v.words[off:], cs, 0, w, v.codeMask())
			v.blocks[b] = Block{Enc: EncPacked, W: uint8(w), Off: uint32(off), N: uint32(groups * w)}
		}
	}
	return v
}

// blockEncoding is the selection heuristic: RLE when the runs are both few
// enough for the O(runs) kernels and strictly smaller than the best slice
// representation, then FoR when the spread narrows the width, else packed.
func blockEncoding(runs int, lo, hi uint32, rows, w int) Encoding {
	groups := (rows + GroupRows - 1) / GroupRows
	sliceWidth := w
	if bw := bits.Len(uint(hi - lo)); bw < w {
		sliceWidth = bw
	}
	if runs <= rleMaxRuns && runs < groups*sliceWidth {
		return EncRLE
	}
	if sliceWidth < w {
		return EncFoR
	}
	return EncPacked
}

// packSlices writes codes (less base, masked to width bw) into dst in the
// bit-sliced group-major layout: group g's slice j at dst[g*bw+j].
func packSlices(dst []uint64, codes []uint32, base uint32, bw int, mask uint32) {
	for i, c := range codes {
		gbase := (i / GroupRows) * bw
		bit := uint64(1) << uint(i%GroupRows)
		c = (c - base) & mask
		for c != 0 {
			j := bits.TrailingZeros32(c)
			dst[gbase+j] |= bit
			c &= c - 1
		}
	}
}

// FromEncoded reconstructs a vector from its serialized parts: the slice
// words, the per-block encoding metadata and the RLE runs of n rows coded at
// w bits for a dictionary of dictLen entries. An empty block list means the
// uniform layout. The parts may come from an untrusted file or peer, so
// everything is validated: the shape, every block's encoding tag, width and
// sequential tiling of the backing arrays, run coverage and monotonicity,
// stray bits beyond the final row, and that every code is < dictLen (one
// word-parallel pass over the sliced blocks).
func FromEncoded(words []uint64, blocks []Block, runs []Run, n, w, dictLen int) (*Vector, error) {
	if n < 0 || w < 0 || w > 32 || w != Width(dictLen) {
		return nil, fmt.Errorf("av: invalid shape n=%d w=%d |D|=%d", n, w, dictLen)
	}
	if n > 0 && dictLen == 0 {
		return nil, fmt.Errorf("av: %d rows over an empty dictionary", n)
	}
	if len(words) == 0 {
		words = nil
	}
	if len(blocks) == 0 {
		if len(runs) != 0 {
			return nil, fmt.Errorf("av: %d runs without blocks", len(runs))
		}
		blocks, runs = nil, nil // the uniform layout is the one with nil blocks
	} else if n == 0 || w == 0 {
		return nil, fmt.Errorf("av: %d blocks for %d rows at %d bits", len(blocks), n, w)
	} else if want := (n + BlockRows - 1) / BlockRows; len(blocks) != want {
		return nil, fmt.Errorf("av: %d blocks for %d rows, want %d", len(blocks), n, want)
	}
	v := &Vector{n: n, w: w, dict: dictLen, words: words, blocks: blocks, runs: runs}
	wordOff, runOff := 0, 0
	for b := 0; b*BlockRows < n && w > 0; b++ {
		blk := v.blockOf(b)
		rows := min(n-b*BlockRows, BlockRows)
		groups := (rows + GroupRows - 1) / GroupRows
		switch blk.Enc {
		case EncPacked, EncFoR:
			if blk.Enc == EncPacked && (int(blk.W) != w || blk.Base != 0) {
				return nil, fmt.Errorf("av: block %d packed at width %d base %d, want %d/0", b, blk.W, blk.Base, w)
			}
			if blk.Enc == EncFoR && (int(blk.W) >= w || int(blk.Base) >= dictLen) {
				return nil, fmt.Errorf("av: block %d FoR width %d base %d invalid for w=%d |D|=%d", b, blk.W, blk.Base, w, dictLen)
			}
			if int(blk.Off) != wordOff || int(blk.N) != groups*int(blk.W) {
				return nil, fmt.Errorf("av: block %d words [%d,+%d) do not tile (want off %d, n %d)",
					b, blk.Off, blk.N, wordOff, groups*int(blk.W))
			}
			wordOff += int(blk.N)
			if wordOff > len(words) {
				return nil, fmt.Errorf("av: block %d exceeds %d backing words", b, len(words))
			}
			if rem := rows % GroupRows; rem != 0 && blk.W > 0 {
				// Bits beyond the final row would alias phantom rows in
				// Unpack and the scan kernels; a well-formed producer never
				// sets them.
				stray := ^((uint64(1) << uint(rem)) - 1)
				for j, s := range words[wordOff-int(blk.W) : wordOff] {
					if s&stray != 0 {
						return nil, fmt.Errorf("av: block %d slice %d has bits beyond row %d", b, j, rows)
					}
				}
			}
			if g, ok := codesBelow(words[blk.Off:wordOff], blk, dictLen); !ok {
				return nil, fmt.Errorf("av: block %d group %d holds a code >= |D|=%d", b, g, dictLen)
			}
		case EncRLE:
			if int(blk.Off) != runOff || blk.N == 0 {
				return nil, fmt.Errorf("av: block %d runs [%d,+%d) do not tile (want off %d)", b, blk.Off, blk.N, runOff)
			}
			runOff += int(blk.N)
			if runOff > len(runs) {
				return nil, fmt.Errorf("av: block %d exceeds %d backing runs", b, len(runs))
			}
			prev := uint32(0)
			for i, r := range runs[blk.Off:runOff] {
				if r.End <= prev || int(r.VID) >= dictLen {
					return nil, fmt.Errorf("av: block %d run %d (vid %d, end %d) invalid", b, i, r.VID, r.End)
				}
				prev = r.End
			}
			if int(prev) != rows {
				return nil, fmt.Errorf("av: block %d runs cover %d rows, want %d", b, prev, rows)
			}
		default:
			return nil, fmt.Errorf("av: block %d has unknown encoding %d", b, blk.Enc)
		}
	}
	if wordOff != len(words) || runOff != len(runs) {
		return nil, fmt.Errorf("av: blocks cover %d/%d words and %d/%d runs", wordOff, len(words), runOff, len(runs))
	}
	return v, nil
}

// codesBelow checks that every code of a sliced block — Base plus the
// residual its slices hold — is below dictLen, with the range comparator
// over each group's slices: residuals in [dictLen-Base, 2^W) are the
// out-of-range codes. It returns the first offending group.
func codesBelow(sl []uint64, blk Block, dictLen int) (int, bool) {
	maxRes := uint64(1)<<blk.W - 1
	if uint64(blk.Base)+maxRes < uint64(dictLen) {
		return 0, true // every residual the width can hold fits
	}
	lo, w := uint32(dictLen-int(blk.Base)), int(blk.W)
	for g := 0; g*w < len(sl); g++ {
		if scanRangeGroup(sl[g*w:(g+1)*w], lo, uint32(maxRes)) != 0 {
			return g, false
		}
	}
	return 0, true
}

// Len returns the number of rows.
func (v *Vector) Len() int { return v.n }

// Bits returns the per-code width in bits (the global width; FoR blocks
// store fewer).
func (v *Vector) Bits() int { return v.w }

// DictLen returns the dictionary size the vector was packed against.
func (v *Vector) DictLen() int { return v.dict }

// Words returns the raw bit-slice words. Exposed for serialization; callers
// must not modify them.
func (v *Vector) Words() []uint64 { return v.words }

// Blocks returns the per-block encoding metadata, nil for uniform vectors.
// Exposed for serialization and encoding stats; callers must not modify it.
func (v *Vector) Blocks() []Block { return v.blocks }

// Runs returns the RLE backing runs, nil for uniform vectors. Exposed for
// serialization; callers must not modify it.
func (v *Vector) Runs() []Run { return v.runs }

// MemBytes returns the memory footprint of the packed codes including
// per-block encoding metadata. The unpacked equivalent is 4*Len() bytes.
func (v *Vector) MemBytes() int {
	return len(v.words)*8 + len(v.runs)*8 + len(v.blocks)*blockMetaBytes
}

// groups returns the number of 64-row groups.
func (v *Vector) groups() int { return (v.n + GroupRows - 1) / GroupRows }

// codeMask returns the w-bit mask codes are truncated to.
func (v *Vector) codeMask() uint32 { return uint32((uint64(1) << uint(v.w)) - 1) }

// groupMask returns the valid-row mask of group g: all ones except in the
// final partial group. Every kernel's match words pass through the one emit
// point that applies it (emitAnd), so individual kernels never re-implement
// the trailing-group masking.
func (v *Vector) groupMask(g int) uint64 {
	if (g+1)*GroupRows <= v.n {
		return ^uint64(0)
	}
	return (uint64(1) << uint(v.n-g*GroupRows)) - 1
}

// emitAnd is the kernels' one emit point: the raw match word of group g is
// masked to the group's valid rows and ANDed into the accumulator. It
// reports whether the accumulator word remains non-empty.
func (v *Vector) emitAnd(acc *ridset.Set, g int, m uint64) bool {
	acc.AndWord(g, m&v.groupMask(g))
	return acc.Word(g) != 0
}

// blockOf returns the metadata of block b, synthesizing the uniform layout's
// implicit block for vectors produced by Pack.
func (v *Vector) blockOf(b int) Block {
	if v.blocks != nil {
		return v.blocks[b]
	}
	off := b * BlockGroups * v.w
	n := min(v.groups()-b*BlockGroups, BlockGroups) * v.w
	return Block{Enc: EncPacked, W: uint8(v.w), Off: uint32(off), N: uint32(n)}
}

// Get returns code i, reassembled from the block's representation.
func (v *Vector) Get(i int) uint32 {
	if v.w == 0 {
		return 0
	}
	if v.blocks == nil {
		return getSlices(v.words[(i/GroupRows)*v.w:], i%GroupRows, v.w)
	}
	blk := v.blocks[i/BlockRows]
	local := i % BlockRows
	switch blk.Enc {
	case EncRLE:
		for _, r := range v.runs[blk.Off : blk.Off+blk.N] {
			if uint32(local) < r.End {
				return r.VID
			}
		}
		return 0 // unreachable on validated vectors: runs cover the block
	default:
		return blk.Base + getSlices(v.words[int(blk.Off)+(local/GroupRows)*int(blk.W):], local%GroupRows, int(blk.W))
	}
}

// Gather writes the codes of rows into dst[:len(rows)], which must have room
// for them. It resolves the block metadata once per run of rows in the same
// block instead of once per row, and walks an RLE block's runs forward from
// the previous row's run, so ascending rows (a match set's RecordIDs) cost
// O(rows + runs) per block. Any row order is correct.
func (v *Vector) Gather(dst, rows []uint32) {
	dst = dst[:len(rows)]
	if v.w == 0 {
		clear(dst)
		return
	}
	if v.blocks == nil {
		for k, r := range rows {
			dst[k] = getSlices(v.words[(int(r)/GroupRows)*v.w:], int(r)%GroupRows, v.w)
		}
		return
	}
	cur := -1
	var blk Block
	var runs []Run
	ri := 0
	for k, r := range rows {
		b, local := int(r)/BlockRows, uint32(r)%BlockRows
		if b != cur {
			cur, blk, ri = b, v.blocks[b], 0
			if blk.Enc == EncRLE {
				runs = v.runs[blk.Off : blk.Off+blk.N]
			}
		}
		if blk.Enc != EncRLE {
			dst[k] = blk.Base + getSlices(v.words[int(blk.Off)+int(local/GroupRows)*int(blk.W):], int(local%GroupRows), int(blk.W))
			continue
		}
		if ri > 0 && local < runs[ri-1].End {
			ri = 0 // rows went backwards within the block
		}
		for local >= runs[ri].End {
			ri++
		}
		dst[k] = runs[ri].VID
	}
}

// getSlices reassembles the code at row r (within its group) from w slice
// words.
func getSlices(sl []uint64, r, w int) uint32 {
	var c uint32
	for j := 0; j < w; j++ {
		c |= uint32((sl[j]>>uint(r))&1) << uint(j)
	}
	return c
}

// Set overwrites code i (truncated to the vector's width). It exists for
// tests that corrupt a split deliberately; production vectors are immutable
// after Pack. Encoded vectors are re-packed into the uniform layout first,
// since a point write cannot preserve block encodings in place. Not safe for
// use concurrent with readers.
func (v *Vector) Set(i int, code uint32) {
	if v.w == 0 {
		return
	}
	if v.blocks != nil {
		*v = *Pack(v.Unpack(), v.dict)
	}
	base := (i / GroupRows) * v.w
	bit := uint64(1) << uint(i%GroupRows)
	code &= v.codeMask()
	for j := 0; j < v.w; j++ {
		if code&(1<<uint(j)) != 0 {
			v.words[base+j] |= bit
		} else {
			v.words[base+j] &^= bit
		}
	}
}

// Unpack materializes the codes as a fresh []uint32.
func (v *Vector) Unpack() []uint32 {
	if v.n == 0 {
		return nil
	}
	out := make([]uint32, v.n)
	if v.w == 0 {
		return out
	}
	for b := 0; b*BlockRows < v.n; b++ {
		blk := v.blockOf(b)
		rows := min(v.n-b*BlockRows, BlockRows)
		dst := out[b*BlockRows : b*BlockRows+rows]
		if blk.Enc == EncRLE {
			start := 0
			for _, r := range v.runs[blk.Off : blk.Off+blk.N] {
				for ; start < int(r.End); start++ {
					dst[start] = r.VID
				}
			}
			continue
		}
		w := int(blk.W)
		for g := 0; g*GroupRows < rows; g++ {
			sl := v.words[int(blk.Off)+g*w : int(blk.Off)+(g+1)*w]
			gdst := dst[g*GroupRows : min(len(dst), (g+1)*GroupRows)]
			for i := range gdst {
				gdst[i] = blk.Base
			}
			for j, s := range sl {
				for s != 0 {
					r := bits.TrailingZeros64(s)
					gdst[r] += 1 << uint(j)
					s &= s - 1
				}
			}
		}
	}
	return out
}
