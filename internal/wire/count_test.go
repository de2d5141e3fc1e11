package wire

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/engine"
)

// TestCountOnlyResponseIsTiny: the engine answers COUNT(*) with the match
// count and no RecordIDs, so the reply to a count-only query over 10k
// matching rows — the collected Result, and the one frame the server sends
// for it — encodes in under 32 bytes.
func TestCountOnlyResponseIsTiny(t *testing.T) {
	plat, err := enclave.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	encl, err := plat.Launch(enclave.Config{Identity: "count-test"})
	if err != nil {
		t.Fatal(err)
	}
	db := engine.New(encl)
	def := engine.ColumnDef{Name: "c", Kind: dict.ED1, MaxLen: 8, Plain: true}
	if err := db.CreateTable(engine.Schema{Table: "t", Columns: []engine.ColumnDef{def}}); err != nil {
		t.Fatal(err)
	}
	col := make([][]byte, 12_000)
	for i := range col {
		col[i] = []byte(fmt.Sprintf("v%05d", i))
	}
	s, err := dict.Build(col, dict.Params{Kind: def.Kind, MaxLen: def.MaxLen, Plain: true, Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ImportColumn("t", "c", s); err != nil {
		t.Fatal(err)
	}
	q := engine.Query{Table: "t", CountOnly: true, Filters: []engine.Filter{engine.SingleRange("c",
		enclave.EncRange{Start: []byte("v00000"), End: []byte("v09999"), StartIncl: true, EndIncl: true})}}
	ctx := context.Background()

	res, err := db.Select(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	st, err := db.SelectStream(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for name, resp := range map[string]*response{
		"select":     {Result: res},
		"stream end": {N: st.Count()},
	} {
		raw := binEncode(resp)
		if len(raw) >= 32 {
			t.Errorf("%s: count-only reply for 10k matches is %d bytes, want < 32", name, len(raw))
		}
	}
	if res.Count != 10_000 || st.Count() != 10_000 {
		t.Errorf("Count = %d (stream %d), want 10000", res.Count, st.Count())
	}
}
