package enclave_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/pae"
	"github.com/encdbdb/encdbdb/internal/search"
)

// heavyColumn has one value occurring 1,500 times among 500 distinct others,
// so ED5/ED8 store it in hundreds of entries.
func heavyColumn() [][]byte {
	col := make([][]byte, 0, 2000)
	for i := 0; i < 1500; i++ {
		col = append(col, []byte("m-heavy"))
	}
	for i := 0; i < 500; i++ {
		col = append(col, []byte(fmt.Sprintf("%c%05d", "az"[i%2], i)))
	}
	return col
}

// columnCipher is the column key SK_D the owner derives for (table, column).
func (v *env) columnCipher(t testing.TB, table, column string) *pae.Cipher {
	t.Helper()
	key, err := pae.Derive(v.master, table, column)
	if err != nil {
		t.Fatal(err)
	}
	c, err := pae.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// rotHeader decrypts a rotated split's sealed header.
func (v *env) rotHeader(t *testing.T, table, column string, s *dict.Split) (offset, tailRun uint32) {
	t.Helper()
	raw, err := v.columnCipher(t, table, column).Decrypt(s.EncRndOffset)
	if err != nil {
		t.Fatal(err)
	}
	offset, tailRun, err = dict.DecodeRotOffset(raw)
	if err != nil {
		t.Fatal(err)
	}
	return offset, tailRun
}

// buildSeeded builds col under kind for (table, column) with the layout
// draws seeded by seed.
func (v *env) buildSeeded(t *testing.T, kind dict.Kind, table, column string, col [][]byte, seed int64) *dict.Split {
	t.Helper()
	s, err := dict.Build(col, dict.Params{
		Kind: kind, MaxLen: 8, BSMax: 3, Cipher: v.columnCipher(t, table, column),
		Rand: rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// buildWrapped builds col under a rotated kind, redrawing the rotation until
// the run equal to D[0] wraps around the array end with more than minRun
// entries.
func (v *env) buildWrapped(t *testing.T, kind dict.Kind, table, column string, col [][]byte, minRun uint32) *dict.Split {
	t.Helper()
	for seed := int64(0); seed < 1000; seed++ {
		s := v.buildSeeded(t, kind, table, column, col, seed)
		if _, run := v.rotHeader(t, table, column, s); run > minRun {
			return s
		}
	}
	t.Fatalf("%v: no rotation draw wrapped a run of more than %d entries", kind, minRun)
	return nil
}

// TestDictSearchRejectsMismatchedRotHeader: a rotation header that does not
// describe the dictionary fails the search with ErrBadRotOffset instead of
// returning a result — the header of another build of the same column, a
// tailRun = 0 header on a dictionary whose run wraps (what a header written
// before tailRun existed decodes to), and tailRun >= |D|.
func TestDictSearchRejectsMismatchedRotHeader(t *testing.T) {
	v := newEnv(t, enclave.Config{})
	col := heavyColumn()
	meta := enclave.ColumnMeta{Table: "t1", Column: "c", Kind: dict.ED5, MaxLen: 8}
	s := v.buildWrapped(t, dict.ED5, "t1", "c", col, 50)
	offset, run := v.rotHeader(t, "t1", "c", s)
	var other *dict.Split
	for seed := int64(1000); other == nil; seed++ {
		if seed == 2000 {
			t.Fatal("every rotation draw sealed the same wrapped run")
		}
		o := v.buildSeeded(t, dict.ED5, "t1", "c", col, seed)
		if _, r := v.rotHeader(t, "t1", "c", o); r != run {
			other = o
		}
	}
	seal := func(raw []byte) []byte {
		ct, err := v.columnCipher(t, "t1", "c").Encrypt(raw)
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	header := func(tailRun uint32) []byte { // u32 tailRun ‖ u32 offset
		return seal(binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, tailRun), offset))
	}
	q := v.encRange(t, "t1", "c", search.Eq([]byte("m-heavy")))
	if _, err := v.enclave.DictSearch(meta, s, s.EncRndOffset, q); err != nil {
		t.Fatalf("own header: %v", err)
	}
	for _, tc := range []struct {
		name   string
		header []byte
	}{
		{"another build's header", other.EncRndOffset},
		{"tailRun = 0 on a wrapped dictionary", header(0)},
		{"u64 offset header from before tailRun", seal(binary.BigEndian.AppendUint64(nil, uint64(offset)))},
		{"tailRun = |D|", header(uint32(s.Len()))},
		{"tailRun > |D|", header(uint32(s.Len()) + 7)},
	} {
		res, err := v.enclave.DictSearch(meta, s, tc.header, q)
		if !errors.Is(err, enclave.ErrBadRotOffset) {
			t.Errorf("%s: got %v, %v; want ErrBadRotOffset", tc.name, res, err)
		}
	}
}

// TestDictSearchAllocsConstant pins the ECALL's allocations: an ED3
// dictionary search decrypts all |D| = 10k entries into one reused buffer,
// so its allocation count does not grow with |D|.
func TestDictSearchAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	v := newEnv(t, enclave.Config{})
	col := make([][]byte, 10_000)
	for i := range col {
		col[i] = []byte(fmt.Sprintf("v%06d", i))
	}
	meta := enclave.ColumnMeta{Table: "t1", Column: "c", Kind: dict.ED3, MaxLen: 8}
	s := v.buildColumn(t, dict.ED3, "t1", "c", col, 8, 0)
	q := v.encRange(t, "t1", "c", search.Eq(col[4321]))
	allocs := testing.AllocsPerRun(20, func() {
		res, err := v.enclave.DictSearch(meta, s, nil, q)
		if err != nil || len(res.IDs) != 1 {
			t.Fatalf("DictSearch = %v, %v; want one ValueID", res, err)
		}
	})
	if allocs > 8 {
		t.Errorf("ED3 DictSearch over |D| = %d: %.0f allocs per call, want <= 8", s.Len(), allocs)
	}
}
