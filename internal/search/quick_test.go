package search_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/encdbdb/encdbdb/internal/av"
	"github.com/encdbdb/encdbdb/internal/baseline"
	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/ridset"
	"github.com/encdbdb/encdbdb/internal/search"
)

// quickScenario is a generated (column, query) pair over a tiny alphabet so
// boundaries, duplicates and wrap runs occur constantly.
type quickScenario struct {
	col   [][]byte
	query search.Range
}

// Generate implements quick.Generator.
func (quickScenario) Generate(r *rand.Rand, size int) reflect.Value {
	value := func() []byte {
		l := 1 + r.Intn(4)
		v := make([]byte, l)
		for j := range v {
			v[j] = byte('a' + r.Intn(3))
		}
		return v
	}
	n := r.Intn(size*3 + 1)
	u := 1 + r.Intn(6)
	vocab := make([][]byte, u)
	for i := range vocab {
		vocab[i] = value()
	}
	col := make([][]byte, n)
	for i := range col {
		col[i] = vocab[r.Intn(u)]
	}
	a, b := value(), value()
	if bytes.Compare(a, b) > 0 {
		a, b = b, a
	}
	return reflect.ValueOf(quickScenario{
		col: col,
		query: search.Range{
			Start:     a,
			End:       b,
			StartIncl: r.Intn(2) == 0,
			EndIncl:   r.Intn(2) == 0,
		},
	})
}

func TestQuickSearchMatchesOracleEveryKind(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	f := func(sc quickScenario, kindSeed uint8) bool {
		kind := dict.ED1 + dict.Kind(kindSeed%9)
		fix := buildFixture(t, sc.col, kind, kindSeed%2 == 0, rng)
		got := searchRows(t, fix, sc.query)
		want := oracleRows(sc.col, sc.query)
		return equalIDs(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickRotatedRangesDisjointAndSorted(t *testing.T) {
	// Structural invariant of RotatedDict's output: at most two ranges,
	// disjoint, within bounds.
	rng := rand.New(rand.NewSource(42))
	f := func(sc quickScenario) bool {
		fix := buildFixture(t, sc.col, dict.ED5, false, rng)
		ranges, err := search.RotatedDict(fix.split, fix.dec, fix.enc, sc.query, fix.tailRun)
		if err != nil {
			return false
		}
		if len(ranges) > 2 {
			return false
		}
		n := uint32(fix.split.Len())
		for _, vr := range ranges {
			if vr.Lo > vr.Hi || vr.Hi >= n {
				return false
			}
		}
		if len(ranges) == 2 {
			a, b := ranges[0], ranges[1]
			if a.Lo > b.Lo {
				a, b = b, a
			}
			if a.Hi >= b.Lo { // overlap
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestQuickAttrVectModesAgree(t *testing.T) {
	f := func(avSeed []uint16, vidSeed []uint16, dictLenSeed uint8) bool {
		dictLen := 1 + int(dictLenSeed)
		av := make([]uint32, len(avSeed))
		for i, v := range avSeed {
			av[i] = uint32(int(v) % dictLen)
		}
		vids := make([]uint32, 0, len(vidSeed))
		seen := make(map[uint32]bool)
		for _, v := range vidSeed {
			u := uint32(int(v) % dictLen)
			if !seen[u] {
				seen[u] = true
				vids = append(vids, u)
			}
		}
		a := baseline.AttrVectList(av, vids, dictLen, baseline.AVSortedProbe, 1)
		b := baseline.AttrVectList(av, vids, dictLen, baseline.AVNestedLoop, 1)
		c := baseline.AttrVectList(av, vids, dictLen, baseline.AVBitset, 2)
		return equalIDs(a, b) && equalIDs(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickPackedScansAgreeWithUnpacked is the packed ≡ unpacked property
// at the search-entry-point level: the SWAR kernels over a bit-packed
// vector, fused into a full accumulator, must keep exactly the RecordIDs of
// internal/baseline's []uint32 scans, for random codes, dictionary sizes
// (including the 2^k / 2^k+1 width boundaries via the random dictLen),
// ranges, membership lists and worker counts.
func TestQuickPackedScansAgreeWithUnpacked(t *testing.T) {
	f := func(avSeed []uint16, vidSeed []uint16, dictLenSeed uint16, loSeed, hiSeed uint16, workerSeed uint8) bool {
		dictLen := 1 + int(dictLenSeed)%5000
		codes := make([]uint32, len(avSeed))
		for i, v := range avSeed {
			codes[i] = uint32(int(v) % dictLen)
		}
		vec := av.Pack(codes, dictLen)
		workers := 1 + int(workerSeed%4)

		lo := uint32(int(loSeed) % dictLen)
		hi := uint32(int(hiSeed) % dictLen)
		if lo > hi {
			lo, hi = hi, lo
		}
		// Two ranges, the second possibly wrapping past |D| (as rotated
		// searches produce before clamping).
		ranges := []search.VidRange{{Lo: lo, Hi: hi}, {Lo: hi, Hi: hi + 3}}
		a := baseline.AttrVectRangesSet(codes, ranges, 1).Slice()
		b := ridset.Full(len(codes))
		search.AttrVectRangesPackedInto(vec, ranges, b, workers)
		if !equalIDs(a, b.Slice()) {
			return false
		}

		vids := make([]uint32, 0, len(vidSeed))
		for _, v := range vidSeed {
			vids = append(vids, uint32(int(v)%dictLen))
		}
		c := baseline.AttrVectList(codes, vids, dictLen, baseline.AVSortedProbe, 1)
		d := ridset.Full(len(codes))
		search.AttrVectListPackedInto(vec, vids, d, workers)
		return equalIDs(c, d.Slice())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
