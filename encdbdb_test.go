package encdbdb_test

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"testing"

	"github.com/encdbdb/encdbdb"
)

// newStack opens and provisions an embedded deployment.
func newStack(t testing.TB) (*encdbdb.Database, *encdbdb.DataOwner, *encdbdb.Session) {
	t.Helper()
	db, err := encdbdb.Open()
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	owner, err := encdbdb.NewDataOwner()
	if err != nil {
		t.Fatalf("NewDataOwner: %v", err)
	}
	if err := owner.Provision(db); err != nil {
		t.Fatalf("Provision: %v", err)
	}
	sess, err := owner.Session(db)
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	return db, owner, sess
}

func TestPublicQuickstartFlow(t *testing.T) {
	_, _, sess := newStack(t)
	if _, err := sess.ExecContext(context.Background(), "CREATE TABLE t1 (fname ED5(30) BSMAX 10)"); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"Jessica", "Hans", "Archie"} {
		if _, err := sess.ExecContext(context.Background(), fmt.Sprintf("INSERT INTO t1 VALUES ('%s')", v)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sess.ExecContext(context.Background(), "SELECT fname FROM t1 WHERE fname >= 'A' AND fname < 'I'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != encdbdb.KindRows || len(res.Rows) != 2 {
		t.Fatalf("res = %+v, want 2 rows", res)
	}
}

func TestPublicBulkDeploy(t *testing.T) {
	db, owner, sess := newStack(t)
	schema := encdbdb.Schema{
		Table: "sales",
		Columns: []encdbdb.ColumnDef{
			{Name: "country", Kind: encdbdb.ED5, MaxLen: 20, BSMax: 5},
			{Name: "product", Kind: encdbdb.ED1, MaxLen: 20},
		},
	}
	rows := [][]string{
		{"Germany", "Widget"},
		{"Canada", "Gadget"},
		{"Germany", "Gadget"},
	}
	if err := owner.DeployTable(db, schema, rows); err != nil {
		t.Fatalf("DeployTable: %v", err)
	}
	res, err := sess.ExecContext(context.Background(), "SELECT product FROM sales WHERE country = 'Germany'")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range res.Rows {
		got = append(got, r[0])
	}
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint([]string{"Gadget", "Widget"}) {
		t.Errorf("rows = %v", got)
	}
	if n, _ := db.Rows("sales"); n != 3 {
		t.Errorf("rows = %d", n)
	}
	if sz, _ := db.StorageBytes("sales"); sz == 0 {
		t.Error("storage = 0")
	}
}

func TestPublicPersistence(t *testing.T) {
	db, owner, sess := newStack(t)
	if _, err := sess.ExecContext(context.Background(), "CREATE TABLE p (c ED1(8))"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ExecContext(context.Background(), "INSERT INTO p VALUES ('x')"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "p.encdb")
	if err := db.SaveTable("p", path); err != nil {
		t.Fatalf("SaveTable: %v", err)
	}

	db2, err := encdbdb.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.Provision(db2); err != nil {
		t.Fatal(err)
	}
	if err := db2.LoadTable(path); err != nil {
		t.Fatalf("LoadTable: %v", err)
	}
	sess2, err := owner.Session(db2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess2.ExecContext(context.Background(), "SELECT c FROM p")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != "x" {
		t.Fatalf("rows = %+v, %v", res, err)
	}
}

func TestPublicRemoteDeployment(t *testing.T) {
	// Provider side.
	db, err := encdbdb.Open()
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go db.Serve(ln, nil) //nolint:errcheck // shut down below
	defer db.Shutdown()

	// Owner side.
	owner, err := encdbdb.NewDataOwner()
	if err != nil {
		t.Fatal(err)
	}
	client, err := encdbdb.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := owner.ProvisionClient(client, encdbdb.Measurement(encdbdb.DefaultEnclaveIdentity)); err != nil {
		t.Fatalf("ProvisionClient: %v", err)
	}
	if err := owner.DeployTableClient(client, encdbdb.Schema{
		Table:   "r",
		Columns: []encdbdb.ColumnDef{{Name: "c", Kind: encdbdb.ED2, MaxLen: 8}},
	}, [][]string{{"a"}, {"b"}, {"c"}}); err != nil {
		t.Fatalf("DeployTableClient: %v", err)
	}
	sess, err := owner.RemoteSession(client)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.ExecContext(context.Background(), "SELECT c FROM r WHERE c >= 'b'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestPublicEnclaveStats(t *testing.T) {
	db, _, sess := newStack(t)
	if _, err := sess.ExecContext(context.Background(), "CREATE TABLE s (c ED1(8))"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ExecContext(context.Background(), "INSERT INTO s VALUES ('v')"); err != nil {
		t.Fatal(err)
	}
	db.ResetEnclaveStats()
	if _, err := sess.ExecContext(context.Background(), "SELECT c FROM s WHERE c = 'v'"); err != nil {
		t.Fatal(err)
	}
	if st := db.EnclaveStats(); st.ECalls == 0 {
		t.Error("no ECALLs counted for an encrypted query")
	}
}

func TestPublicKeyRoundTrip(t *testing.T) {
	owner, err := encdbdb.NewDataOwner()
	if err != nil {
		t.Fatal(err)
	}
	k := owner.MasterKey()
	owner2, err := encdbdb.NewDataOwnerWithKey(k)
	if err != nil {
		t.Fatal(err)
	}
	if string(owner2.MasterKey()) != string(k) {
		t.Error("key round trip failed")
	}
	if _, err := encdbdb.NewDataOwnerWithKey(encdbdb.Key("short")); err == nil {
		t.Error("short key accepted")
	}
}

func TestPublicTrustedSetupImport(t *testing.T) {
	// Paper §4.2's trusted-setup variant: plaintext goes to the provider,
	// which splits and encrypts inside the enclave.
	db, _, sess := newStack(t)
	schema := encdbdb.Schema{
		Table: "ts",
		Columns: []encdbdb.ColumnDef{
			{Name: "c", Kind: encdbdb.ED5, MaxLen: 8, BSMax: 3},
			{Name: "d", Kind: encdbdb.ED9, MaxLen: 8},
		},
	}
	rows := [][]string{{"b", "x"}, {"a", "y"}, {"c", "x"}}
	if err := db.ImportPlaintextTable(schema, rows); err != nil {
		t.Fatalf("ImportPlaintextTable: %v", err)
	}
	res, err := sess.ExecContext(context.Background(), "SELECT c FROM ts WHERE d = 'x' ORDER BY c")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0] != "b" || res.Rows[1][0] != "c" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestPublicTrustedSetupRequiresProvisionedEnclave(t *testing.T) {
	db, err := encdbdb.Open()
	if err != nil {
		t.Fatal(err)
	}
	schema := encdbdb.Schema{
		Table:   "ts2",
		Columns: []encdbdb.ColumnDef{{Name: "c", Kind: encdbdb.ED1, MaxLen: 8}},
	}
	if err := db.ImportPlaintextTable(schema, [][]string{{"v"}}); err == nil {
		t.Error("trusted setup succeeded without provisioning")
	}
}

func TestPublicPadProbesOption(t *testing.T) {
	db, err := encdbdb.Open(encdbdb.Options{PadProbes: true})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := encdbdb.NewDataOwner()
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.Provision(db); err != nil {
		t.Fatal(err)
	}
	sess, err := owner.Session(db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ExecContext(context.Background(), "CREATE TABLE pp (c ED1(8))"); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"a", "b", "c", "d"} {
		if _, err := sess.ExecContext(context.Background(), fmt.Sprintf("INSERT INTO pp VALUES ('%s')", v)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sess.ExecContext(context.Background(), "SELECT c FROM pp WHERE c >= 'b' AND c <= 'c'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestPublicQueryBeforeProvisionFails(t *testing.T) {
	db, err := encdbdb.Open()
	if err != nil {
		t.Fatal(err)
	}
	owner, err := encdbdb.NewDataOwner()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := owner.Session(db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ExecContext(context.Background(), "CREATE TABLE u (c ED1(8))"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ExecContext(context.Background(), "INSERT INTO u VALUES ('v')"); err == nil {
		t.Error("insert succeeded without provisioning the enclave")
	}
}
