package encdbdb_test

import (
	"context"
	"net"
	"slices"
	"strings"
	"testing"

	"github.com/encdbdb/encdbdb"
)

// servedClient opens a provider, serves it on a loopback port, and returns a
// connection to it provisioned with owner's key.
func servedClient(t *testing.T, owner *encdbdb.DataOwner) (*encdbdb.Client, string) {
	t.Helper()
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
	client, err := encdbdb.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	if err := owner.ProvisionClient(client, encdbdb.Measurement(encdbdb.DefaultEnclaveIdentity)); err != nil {
		t.Fatal(err)
	}
	return client, ln.Addr().String()
}

// TestSelectAnswersAgree: every SELECT answer travels as a result stream,
// whatever the deployment, and plain SELECT, COUNT(*), LIMIT and an empty
// answer come out the same embedded, over the wire and on a two-shard fleet
// over the wire — through Exec and through the Query cursor. Embedded and
// remote agree row for row; the fleet's rows interleave by shard, so its
// plain answers compare as multisets and its LIMIT answer as the right
// number of rows out of the full answer.
func TestSelectAnswersAgree(t *testing.T) {
	owner, err := encdbdb.NewDataOwner()
	if err != nil {
		t.Fatal(err)
	}
	db, err := encdbdb.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.Provision(db); err != nil {
		t.Fatal(err)
	}
	embedded, err := owner.Session(db)
	if err != nil {
		t.Fatal(err)
	}
	client, _ := servedClient(t, owner)
	remote, err := owner.RemoteSession(client)
	if err != nil {
		t.Fatal(err)
	}
	shard0, addr0 := servedClient(t, owner)
	shard1, addr1 := servedClient(t, owner)
	exec, err := encdbdb.NewShardedExecutor(encdbdb.NewShardMap(addr0, addr1), []encdbdb.Executor{shard0, shard1})
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := owner.RemoteSession(exec)
	if err != nil {
		t.Fatal(err)
	}
	sessions := map[string]*encdbdb.Session{"embedded": embedded, "remote": remote, "fleet": fleet}
	for _, sess := range sessions {
		seedPeople(t, sess)
	}

	const full = "SELECT name, amount FROM people WHERE city >= 'a'"
	queries := []string{
		"SELECT name, amount FROM people WHERE city = 'bern'",
		"SELECT COUNT(*) FROM people WHERE amount >= '0010'",
		"SELECT COUNT(*) FROM people WHERE city = 'paris'",
		"SELECT name FROM people WHERE name = 'nobody'",
		full,
		full + " LIMIT 4",
		full + " LIMIT 0",
	}
	ctx := context.Background()
	for _, sql := range queries {
		t.Run(sql, func(t *testing.T) {
			want := mustExec(t, embedded, sql)
			wantRows, err := embedded.Query(ctx, sql)
			if err != nil {
				t.Fatal(err)
			}
			wantAll, err := wantRows.All()
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"remote", "fleet"} {
				sess := sessions[name]
				got := mustExec(t, sess, sql)
				rows, err := sess.Query(ctx, sql)
				if err != nil {
					t.Fatal(err)
				}
				gotAll, err := rows.All()
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case name == "remote" || strings.Contains(sql, "COUNT") || len(want.Rows) <= 1:
					if renderResult(got) != renderResult(want) || !slices.EqualFunc(gotAll, wantAll, slices.Equal) {
						t.Errorf("%s: Exec %s / Query %v, want %s / %v", name, renderResult(got), gotAll, renderResult(want), wantAll)
					}
				case strings.Contains(sql, "LIMIT"):
					every := mustExec(t, embedded, full)
					for _, r := range append(got.Rows, gotAll...) {
						if !slices.ContainsFunc(every.Rows, func(w []string) bool { return slices.Equal(w, r) }) {
							t.Errorf("%s: row %v is not in the full answer", name, r)
						}
					}
					if got.Count != want.Count || len(gotAll) != len(wantAll) {
						t.Errorf("%s: LIMIT answered %d rows (Query %d), want %d", name, got.Count, len(gotAll), want.Count)
					}
				default:
					if renderSorted(got) != renderSorted(want) {
						t.Errorf("%s: Exec %s, want %s", name, renderSorted(got), renderSorted(want))
					}
					if len(gotAll) != len(wantAll) {
						t.Errorf("%s: Query answered %d rows, want %d", name, len(gotAll), len(wantAll))
					}
				}
			}
		})
	}
}
