package search_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/encdbdb/encdbdb/internal/av"
	"github.com/encdbdb/encdbdb/internal/baseline"
	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/ordenc"
	"github.com/encdbdb/encdbdb/internal/pae"
	"github.com/encdbdb/encdbdb/internal/ridset"
	"github.com/encdbdb/encdbdb/internal/search"
)

const testMaxLen = 8

func allKinds() []dict.Kind {
	return []dict.Kind{
		dict.ED1, dict.ED2, dict.ED3,
		dict.ED4, dict.ED5, dict.ED6,
		dict.ED7, dict.ED8, dict.ED9,
	}
}

// fixture bundles a built split with everything a search needs.
type fixture struct {
	col   [][]byte
	split *dict.Split
	dec   search.Decryptor
	enc   *ordenc.Encoder
	// tailRun is the wrapped-run length sealed in a rotated split's header.
	tailRun int
}

// scratchDecryptor decrypts every entry into one reused buffer, as the
// enclave's per-ECALL decryptor does: a search that kept a plaintext across
// loads without copying it would read a later entry's bytes and fail the
// oracle checks below.
type scratchDecryptor struct {
	c   *pae.Cipher
	buf []byte
}

func (d *scratchDecryptor) Decrypt(ct []byte) ([]byte, error) {
	pt, err := d.c.DecryptInto(d.buf[:0], ct)
	if err != nil {
		return nil, err
	}
	d.buf = pt
	return pt, nil
}

func buildFixture(t testing.TB, col [][]byte, k dict.Kind, encrypted bool, rng *rand.Rand) *fixture {
	t.Helper()
	p := dict.Params{Kind: k, MaxLen: testMaxLen, BSMax: 3, Plain: !encrypted, Rand: rng}
	var dec search.Decryptor = search.PlainDecryptor{}
	if encrypted {
		c, err := pae.NewCipher(pae.MustGen())
		if err != nil {
			t.Fatalf("NewCipher: %v", err)
		}
		p.Cipher = c
		dec = &scratchDecryptor{c: c}
	}
	s, err := dict.Build(col, p)
	if err != nil {
		t.Fatalf("Build(%v): %v", k, err)
	}
	enc, err := ordenc.NewEncoder(testMaxLen)
	if err != nil {
		t.Fatalf("NewEncoder: %v", err)
	}
	f := &fixture{col: col, split: s, dec: dec, enc: enc}
	if k.Order() == dict.OrderRotated && s.Len() > 0 {
		raw, err := dec.Decrypt(s.EncRndOffset)
		if err != nil {
			t.Fatalf("decrypt rotation header: %v", err)
		}
		_, run, err := dict.DecodeRotOffset(raw)
		if err != nil {
			t.Fatalf("DecodeRotOffset: %v", err)
		}
		f.tailRun = int(run)
	}
	return f
}

// oracleRows returns the RecordIDs matching q by direct plaintext scan of
// the original column — the ground truth every search must reproduce.
func oracleRows(col [][]byte, q search.Range) []uint32 {
	var out []uint32
	for j, v := range col {
		if q.Contains(v) {
			out = append(out, uint32(j))
		}
	}
	return out
}

// searchRows runs the full two-phase search appropriate for the fixture's
// dictionary kind and returns the matching RecordIDs.
func searchRows(t testing.TB, f *fixture, q search.Range) []uint32 {
	t.Helper()
	switch f.split.Kind.Order() {
	case dict.OrderSorted:
		vr, ok, err := search.SortedDict(f.split, f.dec, q)
		if err != nil {
			t.Fatalf("SortedDict: %v", err)
		}
		if !ok {
			return nil
		}
		return baseline.AttrVectRanges(f.split.AVCodes(), []search.VidRange{vr}, 1)
	case dict.OrderRotated:
		ranges, err := search.RotatedDict(f.split, f.dec, f.enc, q, f.tailRun)
		if err != nil {
			t.Fatalf("RotatedDict: %v", err)
		}
		return baseline.AttrVectRanges(f.split.AVCodes(), ranges, 1)
	default:
		vids, err := search.UnsortedDict(f.split, f.dec, q)
		if err != nil {
			t.Fatalf("UnsortedDict: %v", err)
		}
		return baseline.AttrVectList(f.split.AVCodes(), vids, f.split.Len(), baseline.AVSortedProbe, 1)
	}
}

func equalIDs(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRangeContains(t *testing.T) {
	tests := []struct {
		name string
		r    search.Range
		v    string
		want bool
	}{
		{name: "inside closed", r: search.Closed([]byte("b"), []byte("d")), v: "c", want: true},
		{name: "at start incl", r: search.Closed([]byte("b"), []byte("d")), v: "b", want: true},
		{name: "at end incl", r: search.Closed([]byte("b"), []byte("d")), v: "d", want: true},
		{name: "below", r: search.Closed([]byte("b"), []byte("d")), v: "a", want: false},
		{name: "above", r: search.Closed([]byte("b"), []byte("d")), v: "e", want: false},
		{name: "at start excl", r: search.Range{Start: []byte("b"), End: []byte("d"), EndIncl: true}, v: "b", want: false},
		{name: "at end excl", r: search.Range{Start: []byte("b"), End: []byte("d"), StartIncl: true}, v: "d", want: false},
		{name: "eq", r: search.Eq([]byte("x")), v: "x", want: true},
		{name: "eq other", r: search.Eq([]byte("x")), v: "y", want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.r.Contains([]byte(tt.v)); got != tt.want {
				t.Errorf("Contains(%q) = %v, want %v", tt.v, got, tt.want)
			}
		})
	}
}

func TestRangeEmpty(t *testing.T) {
	tests := []struct {
		name string
		r    search.Range
		want bool
	}{
		{name: "normal", r: search.Closed([]byte("a"), []byte("b")), want: false},
		{name: "point", r: search.Eq([]byte("a")), want: false},
		{name: "inverted", r: search.Closed([]byte("b"), []byte("a")), want: true},
		{name: "point excl start", r: search.Range{Start: []byte("a"), End: []byte("a"), EndIncl: true}, want: true},
		{name: "point excl end", r: search.Range{Start: []byte("a"), End: []byte("a"), StartIncl: true}, want: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.r.Empty(); got != tt.want {
				t.Errorf("Empty() = %v, want %v", got, tt.want)
			}
		})
	}
}

func paperColumn() [][]byte {
	return [][]byte{
		[]byte("Hans"), []byte("Jessica"), []byte("Archie"),
		[]byte("Ella"), []byte("Jessica"), []byte("Jessica"),
	}
}

func TestPaperSearchExample(t *testing.T) {
	// Paper §2.1: searching [Archie, Hans] in the example column returns
	// RecordIDs {0, 2, 3} for our row order (Hans, Jessica, Archie, Ella,
	// Jessica, Jessica): Hans@0, Archie@2, Ella@3.
	rng := rand.New(rand.NewSource(5))
	for _, k := range allKinds() {
		t.Run(k.String(), func(t *testing.T) {
			f := buildFixture(t, paperColumn(), k, true, rng)
			got := searchRows(t, f, search.Closed([]byte("Archie"), []byte("Hans")))
			want := []uint32{0, 2, 3}
			if !equalIDs(got, want) {
				t.Errorf("search = %v, want %v", got, want)
			}
		})
	}
}

func TestSearchEqualityQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, k := range allKinds() {
		f := buildFixture(t, paperColumn(), k, true, rng)
		got := searchRows(t, f, search.Eq([]byte("Jessica")))
		want := []uint32{1, 4, 5}
		if !equalIDs(got, want) {
			t.Errorf("%v: equality search = %v, want %v", k, got, want)
		}
	}
}

func TestSearchNoMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range allKinds() {
		f := buildFixture(t, paperColumn(), k, true, rng)
		for _, q := range []search.Range{
			search.Eq([]byte("Zoe")),                // above all
			search.Eq([]byte("Aaron")),              // below all
			search.Eq([]byte("Emma")),               // between entries
			search.Closed([]byte("F"), []byte("G")), // gap range
		} {
			if got := searchRows(t, f, q); len(got) != 0 {
				t.Errorf("%v: query %q-%q matched %v, want none", k, q.Start, q.End, got)
			}
		}
	}
}

func TestSearchOpenBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	col := paperColumn()
	for _, k := range allKinds() {
		f := buildFixture(t, col, k, true, rng)
		tests := []struct {
			name string
			q    search.Range
		}{
			{name: "lt", q: search.Range{Start: nil, End: []byte("Hans"), StartIncl: true}},
			{name: "le", q: search.Range{Start: nil, End: []byte("Hans"), StartIncl: true, EndIncl: true}},
			{name: "gt", q: search.Range{Start: []byte("Ella"), End: bytes.Repeat([]byte{0xFF}, testMaxLen), EndIncl: true}},
			{name: "ge", q: search.Range{Start: []byte("Ella"), End: bytes.Repeat([]byte{0xFF}, testMaxLen), StartIncl: true, EndIncl: true}},
		}
		for _, tt := range tests {
			got := searchRows(t, f, tt.q)
			want := oracleRows(col, tt.q)
			if !equalIDs(got, want) {
				t.Errorf("%v/%s: got %v, want %v", k, tt.name, got, want)
			}
		}
	}
}

func TestSearchEmptyDictionary(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, k := range allKinds() {
		f := buildFixture(t, nil, k, true, rng)
		if got := searchRows(t, f, search.Eq([]byte("x"))); len(got) != 0 {
			t.Errorf("%v: empty dictionary matched %v", k, got)
		}
	}
}

func TestSearchEmptyRange(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, k := range allKinds() {
		f := buildFixture(t, paperColumn(), k, true, rng)
		q := search.Range{Start: []byte("Hans"), End: []byte("Hans")} // both exclusive
		if got := searchRows(t, f, q); len(got) != 0 {
			t.Errorf("%v: empty range matched %v", k, got)
		}
	}
}

// randomColumn builds n values over u distinct random strings.
func randomColumn(rng *rand.Rand, n, u int) [][]byte {
	vocab := make([][]byte, u)
	for i := range vocab {
		l := 1 + rng.Intn(testMaxLen)
		v := make([]byte, l)
		for j := range v {
			v[j] = byte('a' + rng.Intn(4)) // tiny alphabet: many duplicates & adjacent values
		}
		vocab[i] = v
	}
	col := make([][]byte, n)
	for i := range col {
		col[i] = vocab[rng.Intn(u)]
	}
	return col
}

// randomRange picks query bounds near actual column values half the time.
func randomRange(rng *rand.Rand, col [][]byte) search.Range {
	pick := func() []byte {
		if len(col) > 0 && rng.Intn(2) == 0 {
			return col[rng.Intn(len(col))]
		}
		l := 1 + rng.Intn(testMaxLen)
		v := make([]byte, l)
		for j := range v {
			v[j] = byte('a' + rng.Intn(5))
		}
		return v
	}
	a, b := pick(), pick()
	if bytes.Compare(a, b) > 0 {
		a, b = b, a
	}
	return search.Range{Start: a, End: b, StartIncl: rng.Intn(2) == 0, EndIncl: rng.Intn(2) == 0}
}

func TestSearchMatchesOracleProperty(t *testing.T) {
	// The central invariant: for every ED, every search returns exactly
	// the RecordIDs a plaintext scan of the original column returns.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		col := randomColumn(rng, 1+rng.Intn(120), 1+rng.Intn(12))
		for _, k := range allKinds() {
			encrypted := trial%2 == 0
			f := buildFixture(t, col, k, encrypted, rng)
			for qi := 0; qi < 8; qi++ {
				q := randomRange(rng, col)
				got := searchRows(t, f, q)
				want := oracleRows(col, q)
				if !equalIDs(got, want) {
					t.Fatalf("trial %d %v encrypted=%v q=[%q,%q] incl=%v,%v:\ngot  %v\nwant %v",
						trial, k, encrypted, q.Start, q.End, q.StartIncl, q.EndIncl, got, want)
				}
			}
		}
	}
}

func TestRotatedSearchAllOffsets(t *testing.T) {
	// Exhaustively exercise every rotation offset for a column with a
	// repeated minimum and maximum — the wrap-run corner case of ED5/ED8.
	col := [][]byte{
		[]byte("aa"), []byte("aa"), []byte("aa"),
		[]byte("bb"), []byte("cc"),
		[]byte("dd"), []byte("dd"),
	}
	queries := []search.Range{
		search.Eq([]byte("aa")),
		search.Eq([]byte("dd")),
		search.Eq([]byte("bb")),
		search.Closed([]byte("aa"), []byte("bb")),
		search.Closed([]byte("cc"), []byte("dd")),
		search.Closed([]byte("aa"), []byte("dd")),
		search.Closed([]byte("a"), []byte("z")),
		search.Range{Start: []byte("aa"), End: []byte("dd")}, // both exclusive
	}
	// Many trials make the builder draw many distinct rotation offsets,
	// including offsets inside the run of duplicates.
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 60; trial++ {
		for _, k := range []dict.Kind{dict.ED2, dict.ED5, dict.ED8} {
			f := buildFixture(t, col, k, false, rng)
			for _, q := range queries {
				got := searchRows(t, f, q)
				want := oracleRows(col, q)
				if !equalIDs(got, want) {
					t.Fatalf("trial %d %v q=[%q,%q]: got %v, want %v", trial, k, q.Start, q.End, got, want)
				}
			}
		}
	}
}

func TestRotatedSearchSingleUniqueValue(t *testing.T) {
	col := [][]byte{[]byte("only"), []byte("only"), []byte("only")}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		for _, k := range []dict.Kind{dict.ED2, dict.ED5, dict.ED8} {
			f := buildFixture(t, col, k, true, rng)
			if got := searchRows(t, f, search.Eq([]byte("only"))); len(got) != 3 {
				t.Fatalf("%v: matched %v, want all 3 rows", k, got)
			}
			if got := searchRows(t, f, search.Eq([]byte("other"))); len(got) != 0 {
				t.Fatalf("%v: matched %v, want none", k, got)
			}
		}
	}
}

func TestRotatedDictReturnsAtMostTwoRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 40; trial++ {
		col := randomColumn(rng, 1+rng.Intn(60), 1+rng.Intn(8))
		for _, k := range []dict.Kind{dict.ED2, dict.ED5, dict.ED8} {
			f := buildFixture(t, col, k, false, rng)
			for qi := 0; qi < 5; qi++ {
				q := randomRange(rng, col)
				ranges, err := search.RotatedDict(f.split, f.dec, f.enc, q, f.tailRun)
				if err != nil {
					t.Fatal(err)
				}
				if len(ranges) > 2 {
					t.Fatalf("%v: %d vid ranges returned, want <= 2", k, len(ranges))
				}
			}
		}
	}
}

func TestSearchRejectsTamperedDictionary(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, k := range []dict.Kind{dict.ED1, dict.ED2, dict.ED3} {
		f := buildFixture(t, paperColumn(), k, true, rng)
		f.split.Tail()[1] ^= 0xFF // corrupt the first tail entry behind its 1-byte length prefix
		q := search.Closed([]byte("A"), []byte("z"))
		var err error
		switch k.Order() {
		case dict.OrderSorted:
			_, _, err = search.SortedDict(f.split, f.dec, q)
		case dict.OrderRotated:
			_, err = search.RotatedDict(f.split, f.dec, f.enc, q, f.tailRun)
		default:
			_, err = search.UnsortedDict(f.split, f.dec, q)
		}
		if err == nil {
			t.Errorf("%v: search over tampered dictionary succeeded", k)
		}
	}
}

func TestAttrVectModesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(500)
		dictLen := 1 + rng.Intn(50)
		av := make([]uint32, n)
		for i := range av {
			av[i] = uint32(rng.Intn(dictLen))
		}
		var vids []uint32
		for v := 0; v < dictLen; v++ {
			if rng.Intn(3) == 0 {
				vids = append(vids, uint32(v))
			}
		}
		want := baseline.AttrVectList(av, vids, dictLen, baseline.AVSortedProbe, 1)
		for _, mode := range []baseline.AVMode{baseline.AVNestedLoop, baseline.AVBitset} {
			got := baseline.AttrVectList(av, vids, dictLen, mode, 1)
			if !equalIDs(got, want) {
				t.Fatalf("mode %d disagrees: got %v, want %v", mode, got, want)
			}
		}
	}
}

func TestAttrVectParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	av := make([]uint32, 10000)
	for i := range av {
		av[i] = uint32(rng.Intn(100))
	}
	ranges := []search.VidRange{{Lo: 10, Hi: 20}, {Lo: 80, Hi: 99}}
	serial := baseline.AttrVectRanges(av, ranges, 1)
	for _, workers := range []int{0, 2, 3, 8, 64} {
		got := baseline.AttrVectRanges(av, ranges, workers)
		if !equalIDs(got, serial) {
			t.Fatalf("workers=%d: parallel scan disagrees with serial", workers)
		}
	}
}

func TestAttrVectEmptyInputs(t *testing.T) {
	if got := baseline.AttrVectRanges(nil, []search.VidRange{{Lo: 0, Hi: 1}}, 0); got != nil {
		t.Errorf("empty AV: got %v", got)
	}
	if got := baseline.AttrVectRanges([]uint32{1}, nil, 0); got != nil {
		t.Errorf("no ranges: got %v", got)
	}
	if got := baseline.AttrVectList(nil, []uint32{1}, 2, baseline.AVBitset, 0); got != nil {
		t.Errorf("empty AV list: got %v", got)
	}
	if got := baseline.AttrVectList([]uint32{1}, nil, 2, baseline.AVBitset, 0); got != nil {
		t.Errorf("no vids: got %v", got)
	}
}

func TestVidRangeCount(t *testing.T) {
	if got := (search.VidRange{Lo: 3, Hi: 7}).Count(); got != 5 {
		t.Errorf("Count = %d, want 5", got)
	}
	if got := (search.VidRange{Lo: 2, Hi: 2}).Count(); got != 1 {
		t.Errorf("Count = %d, want 1", got)
	}
}

func TestSortedDictProbeComplexity(t *testing.T) {
	// O(log |D|) loads for sorted search, O(|D|) for unsorted.
	rng := rand.New(rand.NewSource(18))
	col := randomColumn(rng, 1024, 600)
	fSorted := buildFixture(t, col, dict.ED1, false, rng)
	fUnsorted := buildFixture(t, col, dict.ED3, false, rng)

	cr := &countingRegion{Region: fSorted.split}
	if _, _, err := search.SortedDict(cr, fSorted.dec, search.Eq(col[0])); err != nil {
		t.Fatal(err)
	}
	// Two binary searches over |D| <= 1024 entries: <= 2*ceil(log2(1024))+2.
	if cr.loads > 2*11 {
		t.Errorf("sorted search probed %d entries for |D|=%d, want O(log)", cr.loads, fSorted.split.Len())
	}

	cu := &countingRegion{Region: fUnsorted.split}
	if _, err := search.UnsortedDict(cu, fUnsorted.dec, search.Eq(col[0])); err != nil {
		t.Fatal(err)
	}
	if cu.loads != fUnsorted.split.Len() {
		t.Errorf("unsorted search probed %d entries, want |D|=%d", cu.loads, fUnsorted.split.Len())
	}
}

type countingRegion struct {
	search.Region
	loads int
}

func (c *countingRegion) AppendEntry(dst []byte, i int) []byte {
	c.loads++
	return c.Region.AppendEntry(dst, i)
}

func (c *countingRegion) Len() int { return c.Region.Len() }

func benchColumn(n, u int) ([][]byte, *rand.Rand) {
	rng := rand.New(rand.NewSource(20))
	vocab := make([][]byte, u)
	for i := range vocab {
		vocab[i] = []byte(fmt.Sprintf("val%05d", i))
	}
	col := make([][]byte, n)
	for i := range col {
		col[i] = vocab[rng.Intn(u)]
	}
	return col, rng
}

func BenchmarkSortedDictSearch10k(b *testing.B) {
	col, rng := benchColumn(10000, 2000)
	f := buildFixture(b, col, dict.ED1, true, rng)
	q := search.Eq(col[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := search.SortedDict(f.split, f.dec, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRotatedDictSearch10k(b *testing.B) {
	col, rng := benchColumn(10000, 2000)
	f := buildFixture(b, col, dict.ED5, true, rng)
	q := search.Eq(col[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.RotatedDict(f.split, f.dec, f.enc, q, f.tailRun); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnsortedDictSearch10k(b *testing.B) {
	col, rng := benchColumn(10000, 2000)
	f := buildFixture(b, col, dict.ED3, true, rng)
	q := search.Eq(col[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.UnsortedDict(f.split, f.dec, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAttrVectList is the membership half of the compression sweep
// and ablation A1: a random ValueID list of ~10% of |D|, as an unsorted
// dictionary search emits, scanned single-threaded over 1M random codes by
// the engine's packed kernel and by internal/baseline's unpacked scans —
// the paper's literal nested loop, a sorted probe and a bitset. The range
// half is internal/av's BenchmarkPackedRangeScan at the same widths.
func BenchmarkAttrVectList(b *testing.B) {
	const rows = 1 << 20
	for _, dictLen := range []int{16, 256, 4096, 65536} {
		rng := rand.New(rand.NewSource(int64(dictLen)))
		codes := make([]uint32, rows)
		for i := range codes {
			codes[i] = uint32(rng.Intn(dictLen))
		}
		vec := av.Pack(codes, dictLen)
		vids := make([]uint32, dictLen/10+1)
		for i := range vids {
			vids[i] = uint32(rng.Intn(dictLen))
		}
		// The packed kernel ANDs into an accumulator; each pass refills
		// it first, as the unpacked scans start from a fresh set.
		acc, full := ridset.New(rows), ridset.Full(rows)
		modes := []struct {
			name string
			scan func()
		}{
			{"packed", func() {
				acc.UnionWith(full)
				search.AttrVectListPackedInto(vec, vids, acc, 1)
			}},
			{"sorted-probe", func() { baseline.AttrVectListSet(codes, vids, dictLen, baseline.AVSortedProbe, 1) }},
			{"nested-loop", func() { baseline.AttrVectListSet(codes, vids, dictLen, baseline.AVNestedLoop, 1) }},
			{"bitset", func() { baseline.AttrVectListSet(codes, vids, dictLen, baseline.AVBitset, 1) }},
		}
		for _, m := range modes {
			b.Run(fmt.Sprintf("dict=%d/mode=%s", dictLen, m.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m.scan()
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
			})
		}
	}
}
