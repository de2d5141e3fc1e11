package baseline

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/encdbdb/encdbdb/internal/pae"
	"github.com/encdbdb/encdbdb/internal/search"
)

func bcol(vals ...string) [][]byte {
	out := make([][]byte, len(vals))
	for i, v := range vals {
		out[i] = []byte(v)
	}
	return out
}

func TestMonetDBSimDeduplicatesSmallDictionaries(t *testing.T) {
	m := NewMonetDBSim(bcol("a", "b", "a", "c", "b", "a"))
	if m.DictLen() != 3 {
		t.Errorf("dict len = %d, want 3 (deduplicated)", m.DictLen())
	}
	if m.Rows() != 6 {
		t.Errorf("rows = %d, want 6", m.Rows())
	}
}

func TestMonetDBSimStopsDeduplicatingWhenLarge(t *testing.T) {
	// Push the dictionary past 64 kB with unique values, then re-insert a
	// known value: it must be stored again (duplicate).
	var col [][]byte
	for i := 0; i < 5000; i++ {
		col = append(col, []byte(fmt.Sprintf("value-%04d-padding-padding", i))) // 25 B each
	}
	col = append(col, col[0])
	m := NewMonetDBSim(col)
	if m.DictLen() != 5001 {
		t.Errorf("dict len = %d, want 5001 (duplicate stored after threshold)", m.DictLen())
	}
}

func TestMonetDBSimRangeSearch(t *testing.T) {
	m := NewMonetDBSim(bcol("Hans", "Jessica", "Archie", "Ella", "Jessica", "Jessica"))
	got := m.RangeSearch(search.Closed([]byte("Archie"), []byte("Hans")))
	want := []uint32{0, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("rids = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rids = %v, want %v", got, want)
		}
	}
}

func TestMonetDBSimGet(t *testing.T) {
	m := NewMonetDBSim(bcol("x", "y", "x"))
	if string(m.Get(2)) != "x" {
		t.Errorf("Get(2) = %q", m.Get(2))
	}
}

func TestMonetDBSimSizeMatchesPaperFormula(t *testing.T) {
	// Table 6 reproduction at small scale: dict bytes + 4 B per row.
	col := bcol("aaaa", "bbbb", "aaaa", "cccc")
	m := NewMonetDBSim(col)
	want := 3*4 + 4*4
	if m.SizeBytes() != want {
		t.Errorf("size = %d, want %d", m.SizeBytes(), want)
	}
}

func TestFileSizes(t *testing.T) {
	col := bcol("abc", "de", "")
	if got := PlaintextFileSize(col); got != 5 {
		t.Errorf("plaintext size = %d, want 5", got)
	}
	if got := EncryptedFileSize(col); got != 5+3*pae.Overhead {
		t.Errorf("encrypted size = %d, want %d", got, 5+3*pae.Overhead)
	}
}

func TestEqual(t *testing.T) {
	if !Equal(bcol("a", "b"), bcol("a", "b")) {
		t.Error("equal columns reported unequal")
	}
	if Equal(bcol("a"), bcol("a", "b")) {
		t.Error("different lengths reported equal")
	}
	if Equal(bcol("a"), bcol("b")) {
		t.Error("different values reported equal")
	}
}

func TestMonetDBSimEmptyColumn(t *testing.T) {
	m := NewMonetDBSim(nil)
	if m.Rows() != 0 || m.DictLen() != 0 || m.SizeBytes() != 0 {
		t.Errorf("empty column: rows=%d dict=%d size=%d", m.Rows(), m.DictLen(), m.SizeBytes())
	}
	if got := m.RangeSearch(search.Eq([]byte("x"))); got != nil {
		t.Errorf("search on empty = %v", got)
	}
}

func BenchmarkAttrVectRanges1M(b *testing.B) {
	av := make([]uint32, 1_000_000)
	rng := rand.New(rand.NewSource(21))
	for i := range av {
		av[i] = uint32(rng.Intn(10000))
	}
	ranges := []search.VidRange{{Lo: 100, Hi: 200}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AttrVectRanges(av, ranges, 0)
	}
}
