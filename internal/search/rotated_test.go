package search_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/search"
)

// heavyColumn is a column in which one middle-of-the-order value ("m-heavy")
// occurs heavy times beside others distinct values occurring 1–3 times each:
// under ED5 and ED8 the heavy value spans hundreds to thousands of
// dictionary entries, so most rotation offsets split it across the array
// end.
func heavyColumn(rng *rand.Rand, heavy, others int) [][]byte {
	col := make([][]byte, 0, heavy+3*others)
	for i := 0; i < heavy; i++ {
		col = append(col, []byte("m-heavy"))
	}
	for i := 0; i < others; i++ {
		v := []byte(fmt.Sprintf("%c%05d", "az"[i%2], i))
		for k := 1 + rng.Intn(3); k > 0; k-- {
			col = append(col, v)
		}
	}
	rng.Shuffle(len(col), func(a, b int) { col[a], col[b] = col[b], col[a] })
	return col
}

// walkTailRun is how the rotated search found the wrapped run before the
// build sealed its length: load and decrypt entries from the array end
// backwards while they equal D[0]. Kept as the reference the sealed header
// must agree with.
func walkTailRun(t *testing.T, f *fixture) int {
	t.Helper()
	n := f.split.Len()
	first, err := f.dec.Decrypt(f.split.AppendEntry(nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	d0 := bytes.Clone(first)
	run := 0
	for i := n - 1; i >= 1; i-- {
		v, err := f.dec.Decrypt(f.split.AppendEntry(nil, i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(v, d0) {
			break
		}
		run++
	}
	return run
}

// heavyQueries are ranges around, inside and across the heavy value,
// including exclusive bounds on it and ranges spanning the whole domain.
func heavyQueries(rng *rand.Rand, col [][]byte) []search.Range {
	heavy := []byte("m-heavy")
	top := bytes.Repeat([]byte{0xFF}, testMaxLen)
	qs := []search.Range{
		search.Eq(heavy),
		search.Closed([]byte("a"), heavy),
		search.Closed(heavy, []byte("z")),
		{Start: heavy, End: top, EndIncl: true},
		{Start: []byte("a"), End: heavy, StartIncl: true},
		search.Closed([]byte("a"), top),
		search.Closed([]byte("a00010"), []byte("z00100")),
	}
	for i := 0; i < 4; i++ {
		qs = append(qs, randomRange(rng, col))
	}
	return qs
}

// TestRotatedWrappedRunMatchesOracleAndWalk is the property test of the
// sealed wrapped run: over 60 rotation draws each of ED5 and ED8, with one
// value spanning >= 1,000 entries, the header's tailRun equals what walking
// the run finds, and every query returns the plaintext oracle's rows.
func TestRotatedWrappedRunMatchesOracleAndWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	col := heavyColumn(rng, 2600, 300)
	wrapped := 0
	for seed := int64(0); seed < 60; seed++ {
		for _, k := range []dict.Kind{dict.ED5, dict.ED8} {
			f := buildFixture(t, col, k, seed%6 == 0, rand.New(rand.NewSource(seed)))
			if walk := walkTailRun(t, f); walk != f.tailRun {
				t.Fatalf("seed %d %v: sealed tailRun %d, walk finds %d", seed, k, f.tailRun, walk)
			}
			if f.tailRun >= 1000 {
				wrapped++
			}
			for _, q := range heavyQueries(rng, col) {
				got := searchRows(t, f, q)
				if want := oracleRows(col, q); !equalIDs(got, want) {
					t.Fatalf("seed %d %v tailRun %d q=[%q,%q] incl=%v,%v: %d rows, oracle %d",
						seed, k, f.tailRun, q.Start, q.End, q.StartIncl, q.EndIncl, len(got), len(want))
				}
			}
		}
	}
	if wrapped < 10 {
		t.Fatalf("only %d draws wrapped >= 1,000 entries; the test has too little signal", wrapped)
	}
}

// TestRotatedDictProbeComplexity: the rotated search costs O(log |D|) loads
// for every rotation draw — pivot, at most two run-boundary checks and two
// binary searches, <= 2*ceil(log2 |D|) + 6 — including ED5/ED8 draws that
// wrap a run of over a thousand equal entries, which the search used to
// walk entry by entry.
func TestRotatedDictProbeComplexity(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	check := func(f *fixture, q search.Range, label string) {
		t.Helper()
		cr := &countingRegion{Region: f.split}
		if _, err := search.RotatedDict(cr, f.dec, f.enc, q, f.tailRun); err != nil {
			t.Fatal(err)
		}
		n := f.split.Len()
		if limit := 2*bits.Len(uint(n-1)) + 6; cr.loads > limit {
			t.Fatalf("%s: rotated search probed %d entries for |D|=%d (tail run %d), want <= %d",
				label, cr.loads, n, f.tailRun, limit)
		}
	}
	col := randomColumn(rng, 1024, 600)
	f := buildFixture(t, col, dict.ED2, false, rng)
	check(f, search.Eq(col[0]), "ED2")

	heavy := heavyColumn(rng, 2600, 300)
	for seed := int64(0); seed < 50; seed++ {
		for _, k := range []dict.Kind{dict.ED5, dict.ED8} {
			f := buildFixture(t, heavy, k, false, rand.New(rand.NewSource(seed)))
			for _, q := range heavyQueries(rng, heavy) {
				check(f, q, fmt.Sprintf("seed %d %v", seed, k))
			}
		}
	}
}

// TestRotatedDictRejectsWrongTailRun: a tail run that contradicts the
// entries — another build's, zero on a dictionary that wraps, or >= |D| —
// fails with ErrTailRun instead of answering.
func TestRotatedDictRejectsWrongTailRun(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	col := heavyColumn(rng, 2600, 300)
	var f, other *fixture
	for seed := int64(0); f == nil || other == nil; seed++ {
		if seed == 1000 {
			t.Fatal("no two rotation draws with different wrapped runs")
		}
		g := buildFixture(t, col, dict.ED5, false, rand.New(rand.NewSource(seed)))
		switch {
		case g.tailRun > 0 && f == nil:
			f = g
		case f != nil && g.tailRun != f.tailRun:
			other = g
		}
	}
	q := search.Eq([]byte("m-heavy"))
	for _, tc := range []struct {
		name    string
		tailRun int
	}{
		{"another build", other.tailRun},
		{"zero on a wrapped dictionary", 0},
		{"one short", f.tailRun - 1},
		{"one long", f.tailRun + 1},
		{"|D|", f.split.Len()},
		{"negative", -1},
	} {
		if _, err := search.RotatedDict(f.split, f.dec, f.enc, q, tc.tailRun); !errors.Is(err, search.ErrTailRun) {
			t.Errorf("%s (tail run %d, sealed %d): err = %v, want ErrTailRun", tc.name, tc.tailRun, f.tailRun, err)
		}
	}
}
