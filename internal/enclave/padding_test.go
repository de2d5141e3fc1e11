package enclave_test

import (
	"fmt"
	"sync"
	"testing"

	"github.com/encdbdb/encdbdb/internal/baseline"
	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/search"
)

// countingObserver tallies loads per query via explicit marks.
type countingObserver struct {
	mu    sync.Mutex
	count int
}

func (o *countingObserver) Access(table, column string, index int) {
	o.mu.Lock()
	o.count++
	o.mu.Unlock()
}

func (o *countingObserver) take() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	c := o.count
	o.count = 0
	return c
}

// variedColumn produces values at many distinct positions so different
// queries hit different binary search depths.
func variedColumn(n int) [][]byte {
	col := make([][]byte, n)
	for i := range col {
		col[i] = []byte(fmt.Sprintf("v%06d", i))
	}
	return col
}

func newPaddedEnv(t *testing.T, pad bool, obs enclave.AccessObserver) *env {
	t.Helper()
	return newEnv(t, enclave.Config{Identity: testIdentity, PadProbes: pad, Observer: obs})
}

// TestPadProbesFixesAccessCount: padded sorted and rotated searches make
// one access count whatever the query — including ED5/ED8 dictionaries
// whose heavy value wraps hundreds of entries around the array end, since
// the rotated search checks the sealed run boundary instead of walking it.
func TestPadProbesFixesAccessCount(t *testing.T) {
	obs := &countingObserver{}
	v := newPaddedEnv(t, true, obs)
	for _, kind := range []dict.Kind{dict.ED1, dict.ED2, dict.ED5, dict.ED8} {
		table := "pad_" + kind.String()
		meta := enclave.ColumnMeta{Table: table, Column: "c", Kind: kind, MaxLen: 8}
		col := variedColumn(777)
		var s *dict.Split
		if kind.Repetition() == dict.RepRevealing {
			s = v.buildColumn(t, kind, table, "c", col, 8, 0)
		} else {
			col = heavyColumn()
			s = v.buildWrapped(t, kind, table, "c", col, 200)
		}
		counts := make(map[int]bool)
		obs.take()
		for i := 0; i < 40; i++ {
			q := v.encRange(t, table, "c", search.Eq(col[(i*97)%len(col)]))
			if _, err := v.enclave.DictSearch(meta, s, s.EncRndOffset, q); err != nil {
				t.Fatal(err)
			}
			counts[obs.take()] = true
		}
		if len(counts) != 1 {
			t.Errorf("%v: padded searches produced %d distinct access counts %v, want 1",
				kind, len(counts), keys(counts))
		}
	}
}

func TestWithoutPaddingAccessCountVaries(t *testing.T) {
	obs := &countingObserver{}
	v := newPaddedEnv(t, false, obs)
	col := variedColumn(777)
	meta := enclave.ColumnMeta{Table: "np", Column: "c", Kind: dict.ED1, MaxLen: 8}
	s := v.buildColumn(t, dict.ED1, "np", "c", col, 8, 0)
	counts := make(map[int]bool)
	obs.take()
	for i := 0; i < 40; i++ {
		q := v.encRange(t, "np", "c", search.Eq(col[(i*97)%len(col)]))
		if _, err := v.enclave.DictSearch(meta, s, nil, q); err != nil {
			t.Fatal(err)
		}
		counts[obs.take()] = true
	}
	if len(counts) < 2 {
		t.Errorf("unpadded searches produced a single access count; padding test has no signal")
	}
}

func TestPadProbesPreservesResults(t *testing.T) {
	v := newPaddedEnv(t, true, nil)
	col := paperColumn()
	for _, kind := range []dict.Kind{dict.ED1, dict.ED2, dict.ED5, dict.ED8} {
		table := "padres_" + kind.String()
		meta := enclave.ColumnMeta{Table: table, Column: "c", Kind: kind, MaxLen: 16}
		s := v.buildColumn(t, kind, table, "c", col, 16, 3)
		q := v.encRange(t, table, "c", search.Closed([]byte("Archie"), []byte("Hans")))
		res, err := v.enclave.DictSearch(meta, s, s.EncRndOffset, q)
		if err != nil {
			t.Fatal(err)
		}
		rids := baseline.AttrVectRanges(s.AVCodes(), res.Ranges, 1)
		if len(rids) != 3 {
			t.Errorf("%v: padded search returned %v, want 3 rows", kind, rids)
		}
	}
}

func keys(m map[int]bool) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	return out
}
