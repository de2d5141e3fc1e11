package encdbdb_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"github.com/encdbdb/encdbdb/internal/av"
	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/pae"
	"github.com/encdbdb/encdbdb/internal/storage"
	"github.com/encdbdb/encdbdb/internal/wal"
	"github.com/encdbdb/encdbdb/internal/wire"
)

// carrierShapes generate column values whose attribute vectors lean to one
// block encoding each: codes spread over the dictionary (packed), narrow
// value bands per 1024-row block (frame of reference), and long runs of one
// value (run length).
var carrierShapes = []struct {
	name  string
	value func(rng *rand.Rand, row int) string
}{
	{"uniform", func(rng *rand.Rand, _ int) string { return fmt.Sprintf("u%04d", rng.Intn(2000)) }},
	{"for", func(rng *rand.Rand, row int) string {
		return fmt.Sprintf("f%04d", row/av.BlockRows*300+rng.Intn(40))
	}},
	{"rle", func(_ *rand.Rand, row int) string { return fmt.Sprintf("r%04d", row/200) }},
}

// TestSplitCarriersRoundTrip passes splits of every kind ED1-ED9, plain and
// encrypted, with uniform, FoR-heavy and RLE-heavy attribute vectors,
// through each carrier of dict's split layout: a remote ImportColumn, WAL
// replay after a reopen, and SaveTable then LoadTable. Each must come back
// exactly as built: the same vector words, blocks and runs, head, tail,
// rotation header and nonce salt, so every entry's self-contained form —
// an encrypted one's IV is derived from the salt and its index — is the
// one the build sealed. Every table's schema must come back deep-equal,
// with the same digest, from each carrier too: the remote Schema call, the
// replayed create record and the image header. One more table, without
// splits, holds a column of each kind, a plain one, a nonzero BSMax and a
// MaxLen of 2^16 and more.
func TestSplitCarriersRoundTrip(t *testing.T) {
	const rows = 3*av.BlockRows + 100
	plat, err := enclave.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	launch := func() *engine.DB {
		encl, err := plat.Launch(enclave.Config{Identity: "carriers"})
		if err != nil {
			t.Fatal(err)
		}
		return engine.New(encl)
	}
	master := pae.MustGen()
	rng := rand.New(rand.NewSource(51))

	type table struct {
		schema engine.Schema
		splits []*dict.Split
	}
	var tables []table
	encodings := map[av.Encoding]bool{}
	for k := dict.ED1; k <= dict.ED9; k++ {
		for _, plain := range []bool{true, false} {
			tb := table{schema: engine.Schema{Table: fmt.Sprintf("%v_plain_%v", k, plain)}}
			for _, shape := range carrierShapes {
				def := engine.ColumnDef{Name: shape.name, Kind: k, MaxLen: 8, Plain: plain}
				if k.Repetition() == dict.RepSmoothing {
					def.BSMax = 5
				}
				p := dict.Params{Kind: k, MaxLen: def.MaxLen, BSMax: def.BSMax, Plain: plain, Rand: rng}
				if !plain {
					key, err := pae.Derive(master, tb.schema.Table, def.Name)
					if err != nil {
						t.Fatal(err)
					}
					if p.Cipher, err = pae.NewCipher(key); err != nil {
						t.Fatal(err)
					}
				}
				col := make([][]byte, rows)
				for i := range col {
					col[i] = []byte(shape.value(rng, i))
				}
				s, err := dict.Build(col, p)
				if err != nil {
					t.Fatal(err)
				}
				if s.Packed().Blocks() == nil {
					encodings[av.EncPacked] = true
				}
				for _, b := range s.Packed().Blocks() {
					encodings[b.Enc] = true
				}
				tb.schema.Columns = append(tb.schema.Columns, def)
				tb.splits = append(tb.splits, s)
			}
			tables = append(tables, tb)
		}
	}
	for _, e := range []av.Encoding{av.EncPacked, av.EncFoR, av.EncRLE} {
		if !encodings[e] {
			t.Fatalf("no split holds a %v block", e)
		}
	}
	kinds := table{schema: engine.Schema{Table: "kinds"}}
	for k := dict.ED1; k <= dict.ED9; k++ {
		def := engine.ColumnDef{Name: fmt.Sprintf("c%v", k), Kind: k, MaxLen: 1<<16 + int(k), Plain: k == dict.ED3}
		if k.Repetition() == dict.RepSmoothing {
			def.BSMax = 300 + int(k)
		}
		kinds.schema.Columns = append(kinds.schema.Columns, def)
	}
	tables = append(tables, kinds)
	sameSchema := func(carrier string, got engine.Schema, err error, want engine.Schema) {
		t.Helper()
		switch {
		case err != nil:
			t.Errorf("%s: schema of %s: %v", carrier, want.Table, err)
		case !reflect.DeepEqual(got, want):
			t.Errorf("%s: schema of %s:\n got %+v\nwant %+v", carrier, want.Table, got, want)
		case got.Digest() != want.Digest():
			t.Errorf("%s: schema of %s: digest %x, want %x", carrier, want.Table, got.Digest(), want.Digest())
		}
	}
	check := func(carrier string, db *engine.DB) {
		t.Helper()
		for _, tb := range tables {
			sc, err := db.Schema(tb.schema.Table)
			sameSchema(carrier, sc, err, tb.schema)
			snap, err := db.Snapshot(tb.schema.Table)
			if err != nil {
				t.Fatalf("%s: %v", carrier, err)
			}
			for i, cs := range snap.Columns[:len(tb.splits)] {
				sameSplit(t, fmt.Sprintf("%s %s.%s", carrier, tb.schema.Table, cs.Name), cs.Main, tb.splits[i])
			}
		}
	}

	// The wire: opImportColumn from a client to a provider.
	remote := launch()
	srv := wire.NewServer(remote, t.Logf)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // ends with Close
	defer srv.Close()
	c, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, tb := range tables {
		if err := c.CreateTable(tb.schema); err != nil {
			t.Fatal(err)
		}
		for i, s := range tb.splits {
			if err := c.ImportColumn(tb.schema.Table, tb.schema.Columns[i].Name, s); err != nil {
				t.Fatalf("ImportColumn %s.%s: %v", tb.schema.Table, tb.schema.Columns[i].Name, err)
			}
		}
		sc, err := c.Schema(tb.schema.Table)
		sameSchema("wire client", sc, err, tb.schema)
	}
	check("wire", remote)

	// The WAL: import records replayed by a reopen.
	dir := t.TempDir()
	logged := launch()
	l, err := wal.Open(dir, logged, wal.WithSyncPolicy(wal.SyncNone))
	if err != nil {
		t.Fatal(err)
	}
	logged.SetCommitLog(l)
	for _, tb := range tables {
		if err := logged.CreateTable(tb.schema); err != nil {
			t.Fatal(err)
		}
		for i, s := range tb.splits {
			if err := logged.ImportColumn(tb.schema.Table, tb.schema.Columns[i].Name, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	replayed := launch()
	l2, err := wal.Open(dir, replayed, wal.WithSyncPolicy(wal.SyncNone))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if got, want := l2.Stats().ReplayedRecords, len(tables)+(len(tables)-1)*len(carrierShapes); got != want {
		t.Errorf("replayed %d records, want %d (a create per table and an import per split)", got, want)
	}
	check("wal", replayed)

	// Table images: SaveTable then LoadTable.
	loaded := launch()
	for _, tb := range tables {
		path := filepath.Join(t.TempDir(), tb.schema.Table+".encdb")
		if err := storage.SaveTable(remote, tb.schema.Table, path); err != nil {
			t.Fatal(err)
		}
		if err := storage.LoadTable(loaded, path); err != nil {
			t.Fatal(err)
		}
	}
	check("storage", loaded)
}

// sameSplit reports how got differs from want, if it does.
func sameSplit(t *testing.T, label string, got, want *dict.Split) {
	t.Helper()
	gv, wv := got.Packed(), want.Packed()
	switch {
	case got.Kind != want.Kind || got.Plain != want.Plain || got.MaxLen != want.MaxLen || got.BSMax != want.BSMax:
		t.Errorf("%s: split header differs", label)
	case gv.Len() != wv.Len() || gv.Bits() != wv.Bits() || !slices.Equal(gv.Words(), wv.Words()) ||
		!slices.Equal(gv.Blocks(), wv.Blocks()) || !slices.Equal(gv.Runs(), wv.Runs()):
		t.Errorf("%s: attribute vector differs", label)
	case !bytes.Equal(got.EncRndOffset, want.EncRndOffset):
		t.Errorf("%s: rotation header differs", label)
	case got.Len() != want.Len() || !bytes.Equal(got.Tail(), want.Tail()):
		t.Errorf("%s: dictionary differs", label)
	case !bytes.Equal(got.AppendBinary(nil), want.AppendBinary(nil)):
		t.Errorf("%s: head or salt differs", label)
	}
	for i := range got.Len() {
		if !bytes.Equal(got.AppendEntry(nil, i), want.AppendEntry(nil, i)) {
			t.Errorf("%s: entry %d differs", label, i)
			return
		}
	}
}
