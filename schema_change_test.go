package encdbdb_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"

	"github.com/encdbdb/encdbdb"
)

// schemaChangeSessions opens two sessions, a and b, on one provider:
// embedded, remote, and through two sessions' fleets over the same two
// shards.
var schemaChangeSessions = map[string]func(t *testing.T) (a, b *encdbdb.Session){
	"embedded": func(t *testing.T) (a, b *encdbdb.Session) {
		db, owner, a := newStack(t)
		b, err := owner.Session(db)
		if err != nil {
			t.Fatal(err)
		}
		return a, b
	},
	"remote": func(t *testing.T) (a, b *encdbdb.Session) {
		provider, err := encdbdb.Open()
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go provider.Serve(ln, nil) //nolint:errcheck // ends with Shutdown
		t.Cleanup(func() { provider.Shutdown() })
		owner, err := encdbdb.NewDataOwner()
		if err != nil {
			t.Fatal(err)
		}
		var ss [2]*encdbdb.Session
		for i := range ss {
			client, err := encdbdb.Dial(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { client.Close() })
			if i == 0 {
				if err := owner.ProvisionClient(client, encdbdb.Measurement(encdbdb.DefaultEnclaveIdentity)); err != nil {
					t.Fatal(err)
				}
			}
			if ss[i], err = owner.RemoteSession(client); err != nil {
				t.Fatal(err)
			}
		}
		return ss[0], ss[1]
	},
	"sharded": func(t *testing.T) (a, b *encdbdb.Session) {
		owner, err := encdbdb.NewDataOwner()
		if err != nil {
			t.Fatal(err)
		}
		backends := make([]encdbdb.Executor, 2)
		addrs := make([]string, len(backends))
		for i := range backends {
			db, err := encdbdb.Open()
			if err != nil {
				t.Fatal(err)
			}
			if err := owner.Provision(db); err != nil {
				t.Fatal(err)
			}
			backends[i], addrs[i] = db.Executor(), fmt.Sprintf("embedded-%d", i)
		}
		var ss [2]*encdbdb.Session
		for i := range ss {
			exec, err := encdbdb.NewShardedExecutor(encdbdb.NewShardMap(addrs...), backends)
			if err != nil {
				t.Fatal(err)
			}
			if ss[i], err = owner.RemoteSession(exec); err != nil {
				t.Fatal(err)
			}
		}
		return ss[0], ss[1]
	},
}

// TestSchemaChangeNeverAnswersStale: a session that planned against a
// table's schema must not answer from that plan once another session has
// dropped the table and re-created it with other columns. The ad-hoc form
// and the prepared form both see the new table, and so do prepared writes.
func TestSchemaChangeNeverAnswersStale(t *testing.T) {
	ctx := context.Background()
	for name, open := range schemaChangeSessions {
		for _, form := range []string{"prepared", "adhoc", "prepared_writes"} {
			t.Run(name+"/"+form, func(t *testing.T) {
				a, b := open(t)
				if form == "prepared_writes" {
					staleWrites(t, a, b)
					return
				}
				mustExec := func(s *encdbdb.Session, sql string) {
					t.Helper()
					if _, err := s.ExecContext(ctx, sql); err != nil {
						t.Fatalf("%s: %v", sql, err)
					}
				}
				mustExec(a, "CREATE TABLE t (c ED1(10))")
				mustExec(a, "INSERT INTO t VALUES ('y')")
				const count = "SELECT COUNT(*) FROM t WHERE c = ?"
				st, err := a.Prepare(ctx, count)
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				run := func() (*encdbdb.Result, error) {
					if form == "prepared" {
						return st.Exec(ctx, "x")
					}
					return a.ExecContext(ctx, count, "x")
				}
				// Session a has planned against the ED1(10) table.
				if res, err := run(); err != nil || res.Count != 0 {
					t.Fatalf("before the change: %+v, %v; want count 0", res, err)
				}
				mustExec(b, "DROP TABLE t")
				mustExec(b, "CREATE TABLE t (c PLAIN ED1(40))")
				// A stale plan encrypts 'x' under fresh IVs, and the plain
				// column compares the two ciphertexts as bytes: a random
				// range. With the other values spread over the byte range,
				// such a range holds exactly one value a few times in a
				// hundred, so three runs in a row answer 1 only by design.
				for _, v := range []string{"x", "0", "5", "A", "M", "Z", "a", "m", "~"} {
					mustExec(b, "INSERT INTO t VALUES ('"+v+"')")
				}
				for i := 0; i < 3; i++ {
					res, err := run()
					if err != nil {
						t.Fatal(err)
					}
					if res.Count != 1 {
						t.Fatalf("count = %d after the table was re-created, want 1", res.Count)
					}
				}
			})
		}
	}
}

// staleWrites prepares an INSERT, an UPDATE and a DELETE on session a's
// ED1(10) table, then has session b re-create the table as PLAIN ED1(80). A
// write planned against the old schema would store or match the PAE
// ciphertext of its value as the plain value: the INSERT would succeed and
// leave no row equal to 'x'. Each prepared write must instead act on the
// new table as its SQL says.
func staleWrites(t *testing.T, a, b *encdbdb.Session) {
	ctx := context.Background()
	mustExec := func(s *encdbdb.Session, sql string, args ...any) *encdbdb.Result {
		t.Helper()
		res, err := s.ExecContext(ctx, sql, args...)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	count := func(v string) int {
		t.Helper()
		return mustExec(b, "SELECT COUNT(*) FROM t WHERE c = ?", v).Count
	}
	mustExec(a, "CREATE TABLE t (c ED1(10))")
	mustExec(a, "INSERT INTO t VALUES ('y')")
	stmts := make(map[string]*encdbdb.Stmt)
	for name, sql := range map[string]string{
		"insert": "INSERT INTO t VALUES (?)",
		"update": "UPDATE t SET c = ? WHERE c = ?",
		"delete": "DELETE FROM t WHERE c = ?",
	} {
		st, err := a.Prepare(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		stmts[name] = st
	}
	mustExec(b, "DROP TABLE t")
	mustExec(b, "CREATE TABLE t (c PLAIN ED1(80))")

	if _, err := stmts["insert"].Exec(ctx, "x"); err != nil {
		t.Fatalf("prepared INSERT: %v", err)
	}
	if n := count("x"); n != 1 {
		t.Fatalf("after the prepared INSERT of 'x', COUNT(c = 'x') = %d, want 1", n)
	}
	if res, err := stmts["update"].Exec(ctx, "z", "x"); err != nil || res.Affected != 1 {
		t.Fatalf("prepared UPDATE: %+v, %v; want 1 row", res, err)
	}
	if nx, nz := count("x"), count("z"); nx != 0 || nz != 1 {
		t.Fatalf("after the prepared UPDATE, COUNT(c = 'x') = %d and COUNT(c = 'z') = %d, want 0 and 1", nx, nz)
	}
	if res, err := stmts["delete"].Exec(ctx, "z"); err != nil || res.Affected != 1 {
		t.Fatalf("prepared DELETE: %+v, %v; want 1 row", res, err)
	}
	if n := mustExec(b, "SELECT COUNT(*) FROM t WHERE c >= '0'").Count; n != 0 {
		t.Fatalf("after the prepared DELETE, the table holds %d rows, want 0", n)
	}
}

// TestSchemaChangeRevalidatesPlan: a session whose cached schema predates
// another session's DROP and CREATE plans against the new table, also where
// the old schema rejects the statement before anything is sent — a column
// it lacks, a literal longer than its MaxLen — ad hoc and through Query.
func TestSchemaChangeRevalidatesPlan(t *testing.T) {
	ctx := context.Background()
	for name, open := range schemaChangeSessions {
		t.Run(name, func(t *testing.T) {
			a, b := open(t)
			mustExec := func(s *encdbdb.Session, sql string) {
				t.Helper()
				if _, err := s.ExecContext(ctx, sql); err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
			}
			mustExec(a, "CREATE TABLE t (c ED1(10))")
			mustExec(a, "INSERT INTO t VALUES ('y')")
			// Session a caches the one-column table's schema.
			if res, err := a.ExecContext(ctx, "SELECT c FROM t WHERE c = 'y'"); err != nil || len(res.Rows) != 1 {
				t.Fatalf("before the change: %+v, %v; want 1 row", res, err)
			}
			mustExec(b, "DROP TABLE t")
			mustExec(b, "CREATE TABLE t (c ED1(40), d ED1(10))")
			mustExec(b, "INSERT INTO t VALUES ('a value wider than ten', 'z')")
			for _, sel := range []string{
				"SELECT d FROM t WHERE d = 'z'",
				"SELECT d FROM t WHERE c = 'a value wider than ten'",
			} {
				res, err := a.ExecContext(ctx, sel)
				if err != nil {
					t.Fatalf("ad hoc %s: %v", sel, err)
				}
				if len(res.Rows) != 1 || res.Rows[0][0] != "z" {
					t.Errorf("ad hoc %s = %v, want [[z]]", sel, res.Rows)
				}
			}
			mustExec(b, "DROP TABLE t")
			mustExec(b, "CREATE TABLE t (c ED1(10), d ED1(40))")
			mustExec(b, "INSERT INTO t VALUES ('y', 'another wide value')")
			rows, err := a.Query(ctx, "SELECT c FROM t WHERE d = ?", "another wide value")
			if err != nil {
				t.Fatalf("Query: %v", err)
			}
			all, err := rows.All()
			if err != nil {
				t.Fatal(err)
			}
			if len(all) != 1 || all[0][0] != "y" {
				t.Errorf("Query = %v, want [[y]]", all)
			}
		})
	}
}

// TestSchemaChangeOnOneShardStoresBatchOnce: on a fleet whose shards hold
// different schemas for a table — one shard's copy was dropped and
// re-created under other columns — a multi-row INSERT batch fails on that
// shard while the others store their share of it. The batch must not be
// sent again: each row the healthy shard holds, it holds once.
func TestSchemaChangeOnOneShardStoresBatchOnce(t *testing.T) {
	ctx := context.Background()
	owner, err := encdbdb.NewDataOwner()
	if err != nil {
		t.Fatal(err)
	}
	backends := make([]encdbdb.Executor, 2)
	addrs := make([]string, len(backends))
	direct := make([]*encdbdb.Session, len(backends))
	for i := range backends {
		db, err := encdbdb.Open()
		if err != nil {
			t.Fatal(err)
		}
		if err := owner.Provision(db); err != nil {
			t.Fatal(err)
		}
		if direct[i], err = owner.Session(db); err != nil {
			t.Fatal(err)
		}
		backends[i], addrs[i] = db.Executor(), fmt.Sprintf("embedded-%d", i)
	}
	exec, err := encdbdb.NewShardedExecutor(encdbdb.NewShardMap(addrs...), backends)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := owner.RemoteSession(exec)
	if err != nil {
		t.Fatal(err)
	}
	mustExec := func(s *encdbdb.Session, sql string) *encdbdb.Result {
		t.Helper()
		res, err := s.ExecContext(ctx, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	mustExec(fleet, "CREATE TABLE t (c ED1(10))")
	mustExec(direct[1], "DROP TABLE t")
	mustExec(direct[1], "CREATE TABLE t (c PLAIN ED1(80))")

	const rows = 16
	batch := make([]string, rows)
	for i := range batch {
		batch[i] = fmt.Sprintf("INSERT INTO t VALUES ('v%02d')", i)
	}
	if _, err := fleet.ExecBatch(ctx, batch); !errors.Is(err, encdbdb.ErrPartialWrite) {
		t.Fatalf("ExecBatch on a fleet whose shard 1 holds another schema: err = %v, want ErrPartialWrite", err)
	}
	stored := 0
	for i := 0; i < rows; i++ {
		n := mustExec(direct[0], fmt.Sprintf("SELECT COUNT(*) FROM t WHERE c = 'v%02d'", i)).Count
		if n > 1 {
			t.Errorf("shard 0 holds 'v%02d' %d times, want at most once", i, n)
		}
		stored += n
	}
	if stored == 0 {
		t.Fatal("shard 0 stored none of the batch; the test needs rows routed to it")
	}
	if n := mustExec(direct[1], "SELECT COUNT(*) FROM t WHERE c >= ''").Count; n != 0 {
		t.Errorf("shard 1 holds %d rows, want 0", n)
	}
}
