package wire_test

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/pae"
	"github.com/encdbdb/encdbdb/internal/proxy"
	"github.com/encdbdb/encdbdb/internal/wire"
)

const serverIdentity = "wire-test-enclave"

// startServer launches a provider (enclave + engine + wire server) on a
// loopback port and returns its address plus the platform for attestation.
func startServer(t testing.TB) (addr string, plat *enclave.Platform) {
	t.Helper()
	plat, err := enclave.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	encl, err := plat.Launch(enclave.Config{Identity: serverIdentity})
	if err != nil {
		t.Fatal(err)
	}
	db := engine.New(encl)
	srv := wire.NewServer(db, t.Logf)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // ends with Close
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String(), plat
}

// provision runs the full remote attestation + key deployment over the wire.
func provision(t testing.TB, c *wire.Client, plat *enclave.Platform, master pae.Key) {
	t.Helper()
	nonce := []byte("remote-nonce")
	q, err := c.Quote(nonce)
	if err != nil {
		t.Fatalf("Quote: %v", err)
	}
	if err := plat.VerifyQuote(q, enclave.Measure(serverIdentity), nonce); err != nil {
		t.Fatalf("VerifyQuote: %v", err)
	}
	sealed, err := enclave.SealKey(q, master)
	if err != nil {
		t.Fatalf("SealKey: %v", err)
	}
	if err := c.Provision(sealed); err != nil {
		t.Fatalf("Provision: %v", err)
	}
}

func newRemoteProxy(t testing.TB) (*proxy.Proxy, *wire.Client) {
	t.Helper()
	addr, plat := startServer(t)
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	master := pae.MustGen()
	provision(t, c, plat, master)
	p, err := proxy.New(master, c)
	if err != nil {
		t.Fatal(err)
	}
	return p, c
}

func TestRemoteEndToEnd(t *testing.T) {
	p, c := newRemoteProxy(t)
	if _, err := p.Execute(context.Background(), "CREATE TABLE t1 (fname ED5(16) BSMAX 3, city ED1(16))"); err != nil {
		t.Fatalf("create: %v", err)
	}
	rows := [][2]string{{"Hans", "Berlin"}, {"Jessica", "Waterloo"}, {"Archie", "Karlsruhe"}}
	for _, r := range rows {
		if _, err := p.Execute(context.Background(), fmt.Sprintf("INSERT INTO t1 VALUES ('%s', '%s')", r[0], r[1])); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	res, err := p.Execute(context.Background(), "SELECT fname, city FROM t1 WHERE fname >= 'Archie' AND fname <= 'Hans'")
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v, want 2", res.Rows)
	}
	cnt, err := p.Execute(context.Background(), "SELECT COUNT(*) FROM t1")
	if err != nil || cnt.Count != 3 {
		t.Fatalf("count = %+v, %v", cnt, err)
	}
	tables, err := c.Tables()
	if err != nil || len(tables) != 1 || tables[0] != "t1" {
		t.Fatalf("tables = %v, %v", tables, err)
	}
	n, err := c.Rows("t1")
	if err != nil || n != 3 {
		t.Fatalf("rows = %d, %v", n, err)
	}
	if _, err := c.StorageBytes("t1"); err != nil {
		t.Fatalf("storage: %v", err)
	}
}

func TestRemoteBulkImport(t *testing.T) {
	// Reconstruct the data-owner bulk path: build the split locally under
	// the master key, then ship it over the wire.
	master := pae.MustGen()
	addr, plat := startServer(t)
	c2, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	provision(t, c2, plat, master)
	p2, err := proxy.New(master, c2)
	if err != nil {
		t.Fatal(err)
	}

	if err := c2.CreateTable(engine.Schema{Table: "bulk", Columns: []engine.ColumnDef{
		{Name: "c", Kind: dict.ED1, MaxLen: 8},
	}}); err != nil {
		t.Fatal(err)
	}
	key, _ := pae.Derive(master, "bulk", "c")
	cipher, _ := pae.NewCipher(key)
	split, err := dict.Build([][]byte{[]byte("x"), []byte("y"), []byte("x")}, dict.Params{
		Kind: dict.ED1, MaxLen: 8, Cipher: cipher, Rand: rand.New(rand.NewSource(9)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.ImportColumn("bulk", "c", split); err != nil {
		t.Fatalf("ImportColumn: %v", err)
	}
	res, err := p2.Execute(context.Background(), "SELECT c FROM bulk WHERE c = 'x'")
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("rows = %v, want 2", res.Rows)
	}
}

// TestRemoteCreateTableKeepsSchema creates tables one after another over
// one connection: each CREATE TABLE decodes into a pooled request an earlier
// one may have used, and must not rewrite the schemas the provider kept.
func TestRemoteCreateTableKeepsSchema(t *testing.T) {
	addr, _ := startServer(t)
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	schema := func(i int) engine.Schema {
		return engine.Schema{Table: fmt.Sprintf("t%d", i), Columns: []engine.ColumnDef{
			{Name: fmt.Sprintf("c%d", i), Kind: dict.Kind(1 + i%9), MaxLen: 8 + i, BSMax: 5, Plain: true},
		}}
	}
	for i := range 16 {
		if err := c.CreateTable(schema(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := range 16 {
		got, err := c.Schema(schema(i).Table)
		if err != nil {
			t.Fatal(err)
		}
		if want := schema(i); !reflect.DeepEqual(got, want) {
			t.Errorf("schema = %+v, want %+v", got, want)
		}
	}
}

func TestRemoteErrorsPropagate(t *testing.T) {
	p, c := newRemoteProxy(t)
	if _, err := p.Execute(context.Background(), "SELECT * FROM missing"); err == nil || !strings.Contains(err.Error(), "no such table") {
		t.Errorf("err = %v, want table error", err)
	}
	if err := c.DropTable("missing"); err == nil {
		t.Error("drop missing table succeeded")
	}
}

func TestRemoteQueryWithoutProvisionFails(t *testing.T) {
	addr, _ := startServer(t)
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable(engine.Schema{Table: "x", Columns: []engine.ColumnDef{
		{Name: "c", Kind: dict.ED1, MaxLen: 8},
	}}); err != nil {
		t.Fatal(err)
	}
	master := pae.MustGen()
	p, err := proxy.New(master, c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(context.Background(), "INSERT INTO x VALUES ('a')"); err == nil {
		t.Error("insert without provisioned enclave succeeded")
	}
}

func TestRemoteWriteOperations(t *testing.T) {
	p, _ := newRemoteProxy(t)
	if _, err := p.Execute(context.Background(), "CREATE TABLE w (c ED9(8))"); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"a", "b", "a"} {
		if _, err := p.Execute(context.Background(), fmt.Sprintf("INSERT INTO w VALUES ('%s')", v)); err != nil {
			t.Fatal(err)
		}
	}
	up, err := p.Execute(context.Background(), "UPDATE w SET c = 'z' WHERE c = 'b'")
	if err != nil || up.Affected != 1 {
		t.Fatalf("update = %+v, %v", up, err)
	}
	del, err := p.Execute(context.Background(), "DELETE FROM w WHERE c = 'a'")
	if err != nil || del.Affected != 2 {
		t.Fatalf("delete = %+v, %v", del, err)
	}
	if _, err := p.Execute(context.Background(), "MERGE TABLE w"); err != nil {
		t.Fatalf("merge: %v", err)
	}
	res, err := p.Execute(context.Background(), "SELECT c FROM w")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != "z" {
		t.Fatalf("rows = %+v, %v", res, err)
	}
}

func TestRemoteMergeAsyncAndStatus(t *testing.T) {
	p, c := newRemoteProxy(t)
	if _, err := p.Execute(context.Background(), "CREATE TABLE m (c ED1(8))"); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"a", "b", "c"} {
		if _, err := p.Execute(context.Background(), fmt.Sprintf("INSERT INTO m VALUES ('%s')", v)); err != nil {
			t.Fatal(err)
		}
	}
	info, err := c.MergeStatus(context.Background(), "m")
	if err != nil {
		t.Fatalf("MergeStatus: %v", err)
	}
	if info.DeltaRows != 3 || info.Generation != 0 {
		t.Errorf("pre-merge status = %+v, want 3 delta rows at generation 0", info)
	}
	started, err := c.MergeAsync(context.Background(), "m")
	if err != nil {
		t.Fatalf("MergeAsync: %v", err)
	}
	if !started {
		t.Error("MergeAsync reported an already-running merge on an idle table")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if info, err = c.MergeStatus(context.Background(), "m"); err != nil {
			t.Fatalf("MergeStatus: %v", err)
		}
		if !info.Merging && info.Merges > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("remote background merge never completed: %+v", info)
		}
		time.Sleep(time.Millisecond)
	}
	if info.MainRows != 3 || info.DeltaRows != 0 || info.Generation != 1 || info.LastError != "" {
		t.Errorf("post-merge status = %+v, want 3 main rows at generation 1", info)
	}
	// The SQL surface reaches the same ops.
	if _, err := p.Execute(context.Background(), "MERGE TABLE m ASYNC"); err != nil {
		t.Fatalf("MERGE TABLE ASYNC: %v", err)
	}
	if res, err := p.Execute(context.Background(), "MERGE STATUS m"); err != nil || len(res.Rows) != 1 {
		t.Fatalf("MERGE STATUS = %+v, %v", res, err)
	}
	if _, err := c.MergeStatus(context.Background(), "missing"); err == nil {
		t.Error("MergeStatus on missing table succeeded")
	}
}

func TestConcurrentClients(t *testing.T) {
	addr, plat := startServer(t)
	master := pae.MustGen()
	setup, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer setup.Close()
	provision(t, setup, plat, master)
	pSetup, err := proxy.New(master, setup)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pSetup.Execute(context.Background(), "CREATE TABLE cc (c ED1(8))"); err != nil {
		t.Fatal(err)
	}
	if _, err := pSetup.Execute(context.Background(), "INSERT INTO cc VALUES ('v')"); err != nil {
		t.Fatal(err)
	}

	const clients = 4
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func() {
			c, err := wire.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			p, err := proxy.New(master, c)
			if err != nil {
				errs <- err
				return
			}
			for j := 0; j < 10; j++ {
				res, err := p.Execute(context.Background(), "SELECT c FROM cc WHERE c = 'v'")
				if err != nil {
					errs <- err
					return
				}
				if len(res.Rows) != 1 {
					errs <- fmt.Errorf("rows = %v", res.Rows)
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestServerSurvivesGarbageConnection(t *testing.T) {
	addr, _ := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// A garbage frame must drop the connection but not the server.
	if _, err := conn.Write([]byte{0, 0, 0, 4, 'j', 'u', 'n', 'k'}); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	// The server must still accept proper clients.
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Tables(); err != nil {
		t.Fatalf("Tables after garbage: %v", err)
	}
}
