package ridset_test

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/encdbdb/encdbdb/internal/ridset"
)

// Reference implementations: the sorted-slice merges the engine used before
// the bitmap representation. The property tests assert the bitmap ops agree
// with them on random inputs.

func refUnion(a, b []uint32) []uint32 {
	out := make([]uint32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func refIntersect(a, b []uint32) []uint32 {
	var out []uint32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// randomSorted draws a random ascending duplicate-free RecordID list over
// [0, n).
func randomSorted(rng *rand.Rand, n int, density float64) []uint32 {
	var out []uint32
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			out = append(out, uint32(i))
		}
	}
	return out
}

func TestBasicOps(t *testing.T) {
	s := ridset.New(130)
	if !s.Empty() || s.Len() != 0 || s.Universe() != 130 {
		t.Fatalf("fresh set: empty=%v len=%d n=%d", s.Empty(), s.Len(), s.Universe())
	}
	for _, r := range []uint32{0, 63, 64, 129} {
		s.Add(r)
		if !s.Contains(r) {
			t.Fatalf("Contains(%d) = false after Add", r)
		}
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	if got := s.Slice(); !reflect.DeepEqual(got, []uint32{0, 63, 64, 129}) {
		t.Fatalf("Slice = %v", got)
	}
	s.Remove(64)
	if s.Contains(64) || s.Len() != 3 {
		t.Fatalf("Remove(64) failed: len=%d", s.Len())
	}
	s.Remove(1000) // out of universe: no-op
	if s.Contains(200) {
		t.Fatal("Contains beyond universe must be false")
	}
}

func TestFullMasksTail(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 200} {
		f := ridset.Full(n)
		if f.Len() != n {
			t.Errorf("Full(%d).Len() = %d", n, f.Len())
		}
		if n > 0 && !f.Contains(uint32(n-1)) {
			t.Errorf("Full(%d) missing %d", n, n-1)
		}
		if f.Contains(uint32(n)) {
			t.Errorf("Full(%d) contains %d", n, n)
		}
	}
}

func TestGrowKeepsBits(t *testing.T) {
	s := ridset.New(10)
	s.Add(3)
	s.Grow(500)
	if s.Universe() != 500 || !s.Contains(3) || s.Len() != 1 {
		t.Fatalf("after grow: n=%d len=%d", s.Universe(), s.Len())
	}
	s.Grow(100) // shrink is a no-op
	if s.Universe() != 500 {
		t.Fatalf("shrink changed universe to %d", s.Universe())
	}
}

func TestSliceNilWhenEmpty(t *testing.T) {
	if got := ridset.New(100).Slice(); got != nil {
		t.Fatalf("empty Slice = %v, want nil", got)
	}
}

func TestIntersectUnionAndNotProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(400)
		a := randomSorted(rng, n, rng.Float64())
		b := randomSorted(rng, n, rng.Float64())

		sa, sb := ridset.FromSorted(a, n), ridset.FromSorted(b, n)

		got := sa.Clone()
		got.IntersectWith(sb)
		if want := refIntersect(a, b); !reflect.DeepEqual(got.Slice(), want) {
			t.Fatalf("trial %d: intersect = %v, want %v", trial, got.Slice(), want)
		}

		got = sa.Clone()
		got.UnionWith(sb)
		want := refUnion(a, b)
		if len(want) == 0 {
			want = nil
		}
		if !reflect.DeepEqual(got.Slice(), want) {
			t.Fatalf("trial %d: union = %v, want %v", trial, got.Slice(), want)
		}

		got = sa.Clone()
		got.AndNot(sb)
		var diff []uint32
		inter := refIntersect(a, b)
		k := 0
		for _, r := range a {
			for k < len(inter) && inter[k] < r {
				k++
			}
			if k >= len(inter) || inter[k] != r {
				diff = append(diff, r)
			}
		}
		if !reflect.DeepEqual(got.Slice(), diff) {
			t.Fatalf("trial %d: andnot = %v, want %v", trial, got.Slice(), diff)
		}
	}
}

func TestIntersectMismatchedUniverses(t *testing.T) {
	a := ridset.FromSorted([]uint32{1, 70, 200}, 300)
	b := ridset.FromSorted([]uint32{1, 70}, 80)
	a.IntersectWith(b)
	if got := a.Slice(); !reflect.DeepEqual(got, []uint32{1, 70}) {
		t.Fatalf("intersect over smaller universe = %v", got)
	}
	c := ridset.FromSorted([]uint32{5}, 10)
	d := ridset.FromSorted([]uint32{5, 500}, 600)
	c.UnionWith(d)
	if c.Universe() != 600 || !c.Contains(500) || c.Len() != 2 {
		t.Fatalf("union grew wrong: n=%d len=%d", c.Universe(), c.Len())
	}
}

func TestOrShiftedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		mainN := rng.Intn(300)
		deltaN := 1 + rng.Intn(150)
		off := mainN // the engine's use: delta rows sit behind main rows
		if trial%3 == 0 {
			off = rng.Intn(300) // arbitrary offsets must work too
		}
		a := randomSorted(rng, mainN, 0.3)
		b := randomSorted(rng, deltaN, 0.5)

		s := ridset.FromSorted(a, mainN)
		s.OrShifted(ridset.FromSorted(b, deltaN), off)

		shifted := make([]uint32, len(b))
		for i, r := range b {
			shifted[i] = r + uint32(off)
		}
		want := refUnion(a, shifted)
		if len(want) == 0 {
			want = nil
		}
		if !reflect.DeepEqual(s.Slice(), want) {
			t.Fatalf("trial %d (off=%d): orshifted = %v, want %v", trial, off, s.Slice(), want)
		}
		if s.Universe() < deltaN+off {
			t.Fatalf("trial %d: universe %d < %d", trial, s.Universe(), deltaN+off)
		}
	}
}

func TestForEachMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := ridset.FromSorted(randomSorted(rng, 500, 0.2), 500)
	var got []uint32
	s.ForEach(func(r uint32) { got = append(got, r) })
	if !reflect.DeepEqual(got, s.Slice()) {
		t.Fatalf("ForEach = %v, Slice = %v", got, s.Slice())
	}
}

// TestWordOps covers the word-level accessors the fused scan kernels build
// on: Word/Words read the bitmap, AndWord/AndNotWord combine match words in
// place, and both clearing ops preserve the tail invariant by construction.
func TestWordOps(t *testing.T) {
	s := ridset.New(130)
	if s.Words() != 3 {
		t.Fatalf("Words() = %d over 130 rows, want 3", s.Words())
	}
	for _, r := range []uint32{0, 1, 2, 3, 4, 5, 6, 7, 64 + 4, 64 + 5, 64 + 6, 64 + 7, 64 + 12, 64 + 13, 64 + 14, 64 + 15} {
		s.Add(r)
	}
	if s.Word(0) != 0xFF || s.Word(1) != 0xF0F0 || s.Word(2) != 0 {
		t.Fatalf("Word readback = %x/%x/%x", s.Word(0), s.Word(1), s.Word(2))
	}
	s.AndWord(0, 0x0F)
	if s.Word(0) != 0x0F {
		t.Fatalf("AndWord: word 0 = %x, want 0x0F", s.Word(0))
	}
	s.AndNotWord(1, 0xF000)
	if s.Word(1) != 0x00F0 {
		t.Fatalf("AndNotWord: word 1 = %x, want 0x00F0", s.Word(1))
	}
}

// TestAndShiftedProperty: s.AndShifted(o, off) keeps RecordID r iff o holds
// off+r — the read-side mirror of OrShifted, checked against a per-element
// reference over random offsets including non-64-aligned ones.
func TestAndShiftedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		on := 1 + rng.Intn(400)
		off := rng.Intn(200)
		s := ridset.FromSorted(randomSorted(rng, n, 0.5), n)
		o := ridset.FromSorted(randomSorted(rng, on, 0.5), on)
		want := make(map[uint32]bool)
		s.ForEach(func(r uint32) {
			if o.Contains(r + uint32(off)) {
				want[r] = true
			}
		})
		s.AndShifted(o, off)
		if s.Len() != len(want) {
			t.Fatalf("n=%d on=%d off=%d: %d rows, want %d", n, on, off, s.Len(), len(want))
		}
		s.ForEach(func(r uint32) {
			if !want[r] {
				t.Fatalf("n=%d on=%d off=%d: unexpected row %d", n, on, off, r)
			}
		})
	}
}

// TestClearFrom: every RecordID >= r is removed, [0, r) is untouched, and
// out-of-range cut points are no-ops.
func TestClearFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(300)
		s := ridset.FromSorted(randomSorted(rng, n, 0.5), n)
		before := s.Slice()
		cut := rng.Intn(n + 100)
		s.ClearFrom(cut)
		var want []uint32
		for _, r := range before {
			if int(r) < cut {
				want = append(want, r)
			}
		}
		if !reflect.DeepEqual(s.Slice(), want) {
			t.Fatalf("n=%d cut=%d: got %v, want %v", n, cut, s.Slice(), want)
		}
	}
	s := ridset.Full(100)
	s.ClearFrom(-5)
	if s.Len() != 0 {
		t.Error("negative cut did not clear everything")
	}
}
