package encdbdb_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/encdbdb/encdbdb"
	"github.com/encdbdb/encdbdb/internal/engine"
)

// newShardedStack provisions n embedded databases under one owner and fronts
// them with a sharded executor — the in-process twin of
// `encdbdb-proxy -shards h1,h2,...`.
func newShardedStack(t testing.TB, owner *encdbdb.DataOwner, n int) (*encdbdb.Session, *encdbdb.ShardedExecutor) {
	t.Helper()
	backends := make([]encdbdb.Executor, n)
	addrs := make([]string, n)
	for i := range backends {
		db, err := encdbdb.Open()
		if err != nil {
			t.Fatalf("Open shard %d: %v", i, err)
		}
		if err := owner.Provision(db); err != nil {
			t.Fatalf("Provision shard %d: %v", i, err)
		}
		backends[i] = db.Executor()
		addrs[i] = fmt.Sprintf("embedded-%d", i)
	}
	exec, err := encdbdb.NewShardedExecutor(encdbdb.NewShardMap(addrs...), backends)
	if err != nil {
		t.Fatalf("NewShardedExecutor: %v", err)
	}
	sess, err := owner.RemoteSession(exec)
	if err != nil {
		t.Fatalf("RemoteSession: %v", err)
	}
	return sess, exec
}

// shardPeople is the seed dataset: unique names (deterministic total orders),
// duplicate cities (cross-shard ties), zero-padded numeric amounts (the
// engine's lexicographic order matches numeric order), and one all-zero
// amount to hit the aggregate parser's special case.
var shardPeople = [][3]string{
	{"alice", "bern", "0042"}, {"bob", "oslo", "0007"}, {"carol", "bern", "0013"},
	{"dave", "lima", "0100"}, {"erin", "oslo", "0008"}, {"frank", "bern", "0055"},
	{"grace", "lima", "0021"}, {"heidi", "rome", "0002"}, {"ivan", "rome", "0034"},
	{"judy", "bern", "0090"}, {"karl", "oslo", "0001"}, {"laura", "lima", "0077"},
	{"mallory", "rome", "0019"}, {"nina", "bern", "0064"}, {"oscar", "oslo", "0028"},
	{"peggy", "lima", "0003"}, {"quinn", "rome", "0000"},
}

func seedPeople(t testing.TB, sess *encdbdb.Session) {
	t.Helper()
	ctx := context.Background()
	if _, err := sess.ExecContext(ctx, "CREATE TABLE people (name ED5(30) BSMAX 10, city ED1(30), amount ED1(8))"); err != nil {
		t.Fatalf("CREATE TABLE: %v", err)
	}
	for _, p := range shardPeople {
		if _, err := sess.ExecContext(ctx, "INSERT INTO people VALUES (?, ?, ?)", p[0], p[1], p[2]); err != nil {
			t.Fatalf("INSERT %v: %v", p, err)
		}
	}
}

func mustExec(t testing.TB, sess *encdbdb.Session, sql string) *encdbdb.Result {
	t.Helper()
	res, err := sess.ExecContext(context.Background(), sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

// renderResult canonicalizes a result for exact comparison; fmt prints nil
// and empty slices identically, so representation noise cannot fail a test.
func renderResult(res *encdbdb.Result) string {
	return fmt.Sprintf("cols=%v count=%d affected=%d rows=%v", res.Columns, res.Count, res.Affected, res.Rows)
}

// renderSorted canonicalizes a result as a row multiset.
func renderSorted(res *encdbdb.Result) string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = strings.Join(r, "\x1f")
	}
	sort.Strings(rows)
	return fmt.Sprintf("cols=%v count=%d rows=%v", res.Columns, res.Count, rows)
}

// TestShardedMatchesSingleNode is the distributed-correctness property test:
// every query shape — scans, filters, ORDER BY (asc/desc, LIMIT), aggregates,
// COUNT — returns the same decrypted answer from a 1/2/4-shard fleet as from
// a single-node twin holding the same rows. The 1-shard configuration must be
// bit-identical to the direct path, row order included; multi-shard plain
// scans are compared as multisets because rows interleave by shard.
func TestShardedMatchesSingleNode(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			owner, err := encdbdb.NewDataOwner()
			if err != nil {
				t.Fatal(err)
			}
			// Single-node twin: the direct embedded path, no shard layer.
			db, err := encdbdb.Open()
			if err != nil {
				t.Fatal(err)
			}
			if err := owner.Provision(db); err != nil {
				t.Fatal(err)
			}
			single, err := owner.Session(db)
			if err != nil {
				t.Fatal(err)
			}
			sharded, _ := newShardedStack(t, owner, shards)
			seedPeople(t, single)
			seedPeople(t, sharded)

			// Deterministic answers: identical output regardless of shard
			// count. ORDER BY name is a total order (names are unique),
			// ORDER BY city projects only the key (its sorted multiset is
			// unique), and aggregates are scalars.
			exact := []string{
				"SELECT name, city, amount FROM people ORDER BY name",
				"SELECT name, amount FROM people ORDER BY name DESC",
				"SELECT name FROM people ORDER BY name LIMIT 4",
				"SELECT name FROM people ORDER BY name DESC LIMIT 4",
				"SELECT city FROM people ORDER BY city",
				"SELECT name FROM people WHERE city = 'bern' ORDER BY name",
				"SELECT MIN(amount), MAX(amount), SUM(amount), AVG(amount) FROM people",
				"SELECT SUM(amount), AVG(amount) FROM people WHERE city >= 'm'",
				"SELECT MIN(name), MAX(name) FROM people WHERE city = 'lima'",
				"SELECT SUM(amount) FROM people WHERE name = 'no-such-person'",
				"SELECT COUNT(*) FROM people",
				"SELECT COUNT(*) FROM people WHERE city = 'bern'",
				"SELECT COUNT(*) FROM people WHERE name >= 'f' AND name < 'q'",
			}
			for _, q := range exact {
				if got, want := renderResult(mustExec(t, sharded, q)), renderResult(mustExec(t, single, q)); got != want {
					t.Errorf("%s:\n sharded: %s\n single:  %s", q, got, want)
				}
			}

			// Order-free answers: plain scans deliver shard by shard, so the
			// guarantee is the row multiset, not the interleaving.
			multiset := []string{
				"SELECT * FROM people",
				"SELECT name FROM people WHERE city = 'bern'",
				"SELECT name, amount FROM people WHERE name >= 'c' AND name < 'q'",
				"SELECT amount FROM people WHERE amount >= '0020' AND amount <= '0080'",
			}
			for _, q := range multiset {
				gotRes, wantRes := mustExec(t, sharded, q), mustExec(t, single, q)
				if shards == 1 {
					// One shard must be bit-identical, row order included.
					if got, want := renderResult(gotRes), renderResult(wantRes); got != want {
						t.Errorf("%s (1 shard, exact):\n sharded: %s\n single:  %s", q, got, want)
					}
				} else if got, want := renderSorted(gotRes), renderSorted(wantRes); got != want {
					t.Errorf("%s:\n sharded: %s\n single:  %s", q, got, want)
				}
			}

			// LIMIT without ORDER BY picks implementation-defined rows; the
			// contract is the count and that every row exists in the table.
			limited := mustExec(t, sharded, "SELECT name FROM people LIMIT 3")
			if len(limited.Rows) != 3 || limited.Count != 3 {
				t.Errorf("LIMIT 3 returned %d rows (count %d)", len(limited.Rows), limited.Count)
			}
			names := make(map[string]bool, len(shardPeople))
			for _, p := range shardPeople {
				names[p[0]] = true
			}
			for _, r := range limited.Rows {
				if !names[r[0]] {
					t.Errorf("LIMIT 3 returned unknown row %q", r[0])
				}
			}

			// The streaming cursor drives the shard-chained stream path.
			rows, err := sharded.Query(context.Background(), "SELECT name FROM people WHERE city >= 'l'")
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := rows.All()
			if err != nil {
				t.Fatal(err)
			}
			wantStreamed := mustExec(t, single, "SELECT name FROM people WHERE city >= 'l'")
			if got, want := renderSorted(&encdbdb.Result{Rows: streamed}), renderSorted(&encdbdb.Result{Rows: wantStreamed.Rows}); got != want {
				t.Errorf("streamed scan:\n sharded: %s\n single:  %s", got, want)
			}

			// Mutations broadcast: affected counts and the surviving rows
			// must match the twin.
			for _, q := range []string{
				"UPDATE people SET city = 'zurich' WHERE name >= 'a' AND name <= 'f'",
				"DELETE FROM people WHERE city = 'oslo'",
			} {
				got, want := mustExec(t, sharded, q), mustExec(t, single, q)
				if got.Affected != want.Affected {
					t.Errorf("%s: affected %d, single-node %d", q, got.Affected, want.Affected)
				}
			}
			after := "SELECT name, city, amount FROM people ORDER BY name"
			if got, want := renderResult(mustExec(t, sharded, after)), renderResult(mustExec(t, single, after)); got != want {
				t.Errorf("post-mutation %s:\n sharded: %s\n single:  %s", after, got, want)
			}
		})
	}
}

// killableExecutor wraps a shard backend so a test can sever it mid-flight:
// once dead, reads and writes fail like a refused connection.
type killableExecutor struct {
	encdbdb.Executor
	dead atomic.Bool
}

func (k *killableExecutor) refuse() error {
	if k.dead.Load() {
		return errors.New("dial tcp: connection refused")
	}
	return nil
}

func (k *killableExecutor) Select(ctx context.Context, q engine.Query) (*engine.Result, error) {
	if err := k.refuse(); err != nil {
		return nil, err
	}
	return k.Executor.Select(ctx, q)
}

func (k *killableExecutor) InsertBatch(ctx context.Context, table string, rows []engine.Row) error {
	if err := k.refuse(); err != nil {
		return err
	}
	return k.Executor.InsertBatch(ctx, table, rows)
}

func (k *killableExecutor) Delete(ctx context.Context, table string, filters []engine.Filter) (int, error) {
	if err := k.refuse(); err != nil {
		return 0, err
	}
	return k.Executor.Delete(ctx, table, filters)
}

func (k *killableExecutor) Update(ctx context.Context, table string, filters []engine.Filter, set engine.Row) (int, error) {
	if err := k.refuse(); err != nil {
		return 0, err
	}
	return k.Executor.Update(ctx, table, filters, set)
}

// TestShardKillPartialFailure proves the fleet degrades the way
// docs/sharding.md promises: a dead shard turns scatter queries into typed
// *ShardError failures naming the shard — ErrShardDown once its health flips
// — while operations routed entirely to healthy shards keep succeeding, and
// the fleet heals when the shard returns; writes scattered to every shard
// report what the healthy shards changed.
func TestShardKillPartialFailure(t *testing.T) {
	ctx := context.Background()
	owner, err := encdbdb.NewDataOwner()
	if err != nil {
		t.Fatal(err)
	}
	var backends []encdbdb.Executor
	var kill *killableExecutor
	for i := 0; i < 2; i++ {
		db, err := encdbdb.Open()
		if err != nil {
			t.Fatal(err)
		}
		if err := owner.Provision(db); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			kill = &killableExecutor{Executor: db.Executor()}
			backends = append(backends, kill)
		} else {
			backends = append(backends, db.Executor())
		}
	}
	// A range map with a distant split point routes every insert in this test
	// to shard0, so writes are provably unaffected by shard1's death.
	m := encdbdb.NewRangeShardMap([]uint64{1 << 20}, "s0:0", "s1:0")
	exec, err := encdbdb.NewShardedExecutor(m, backends)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := owner.RemoteSession(exec)
	if err != nil {
		t.Fatal(err)
	}
	seedPeople(t, sess)

	kill.dead.Store(true)

	// Scatter queries fail typed: the error names the dead shard.
	_, err = sess.ExecContext(ctx, "SELECT name FROM people ORDER BY name")
	var se *encdbdb.ShardError
	if !errors.As(err, &se) {
		t.Fatalf("scatter with dead shard: err = %v, want *ShardError", err)
	}
	if se.Shard != "shard1" {
		t.Errorf("failing shard = %q, want shard1", se.Shard)
	}
	// The shard is now marked down; repeat failures say so explicitly.
	_, err = sess.ExecContext(ctx, "SELECT MIN(amount) FROM people")
	if !errors.Is(err, encdbdb.ErrShardDown) {
		t.Errorf("second scatter: err = %v, want ErrShardDown", err)
	}
	if !errors.As(err, &se) || se.Shard != "shard1" {
		t.Errorf("second scatter: err = %v, want *ShardError for shard1", err)
	}

	// The plain streaming scan delivers shard0's rows before surfacing
	// shard1's failure through the cursor, typed.
	rows, err := sess.Query(ctx, "SELECT name FROM people")
	if err != nil {
		t.Fatalf("Query with dead shard: %v", err)
	}
	delivered := 0
	for rows.Next() {
		delivered++
	}
	streamErr := rows.Err()
	rows.Close()
	if delivered != len(shardPeople) {
		t.Errorf("streamed %d rows from the healthy shard, want %d", delivered, len(shardPeople))
	}
	if !errors.As(streamErr, &se) || se.Shard != "shard1" {
		t.Errorf("stream error = %v, want *ShardError for shard1", streamErr)
	}

	// Writes routed to the healthy shard keep working.
	if _, err := sess.ExecContext(ctx, "INSERT INTO people VALUES (?, ?, ?)", "zoe", "bern", "0011"); err != nil {
		t.Errorf("insert to healthy shard: %v", err)
	}

	top := exec.Topology()
	if top[0].Name != "shard0" || !top[0].Healthy {
		t.Errorf("shard0 status = %+v, want healthy", top[0])
	}
	if top[1].Name != "shard1" || top[1].Healthy {
		t.Errorf("shard1 status = %+v, want down", top[1])
	}

	// A batched INSERT routed to the dead shard fails typed as well. A
	// split point at 0 sends every RecordID to shard1.
	toDead, err := encdbdb.NewShardedExecutor(encdbdb.NewRangeShardMap([]uint64{0}, "s0:0", "s1:0"), backends)
	if err != nil {
		t.Fatal(err)
	}
	deadSess, err := owner.RemoteSession(toDead)
	if err != nil {
		t.Fatal(err)
	}
	_, err = deadSess.ExecBatch(ctx, []string{
		"INSERT INTO people VALUES ('yan', 'oslo', '0012')",
		"INSERT INTO people VALUES ('zed', 'oslo', '0013')",
	})
	if !errors.As(err, &se) || se.Shard != "shard1" || se.Op != "insert_batch" {
		t.Errorf("batched insert to dead shard: err = %v, want *ShardError for shard1 insert_batch", err)
	}

	// Revive the shard: the next scatter succeeds and health recovers.
	kill.dead.Store(false)
	if _, err := sess.ExecContext(ctx, "SELECT name FROM people ORDER BY name"); err != nil {
		t.Errorf("scatter after revival: %v", err)
	}
	if top := exec.Topology(); !top[1].Healthy {
		t.Errorf("shard1 still down after revival: %+v", top[1])
	}

	// Writes scattered to every shard report partial success: the rows the
	// healthy shard changed come back beside the dead shard's typed error,
	// from the fleet executor and through the session alike. Every row lives
	// on shard0.
	kill.dead.Store(true)
	onShard0 := len(shardPeople) + 1 // the seeded people and zoe
	n, err := exec.Update(ctx, "people", nil, engine.Row{})
	if n != onShard0 || !errors.As(err, &se) || se.Shard != "shard1" || se.Op != "update" {
		t.Errorf("update with dead shard = %d, %v; want %d rows and *ShardError for shard1 update", n, err, onShard0)
	}
	res, err := sess.ExecContext(ctx, "UPDATE people SET city = ?", "kyiv")
	if res == nil || res.Affected != onShard0 || !errors.As(err, &se) || se.Shard != "shard1" || se.Op != "update" {
		t.Errorf("session UPDATE with dead shard = %+v, %v; want %d affected and *ShardError for shard1 update", res, err, onShard0)
	}
	res, err = sess.ExecContext(ctx, "DELETE FROM people WHERE name = ?", "zoe")
	if res == nil || res.Affected != 1 || !errors.As(err, &se) || se.Shard != "shard1" || se.Op != "delete" {
		t.Errorf("session DELETE with dead shard = %+v, %v; want 1 affected and *ShardError for shard1 delete", res, err)
	}
	n, err = exec.Delete(ctx, "people", nil)
	if n != onShard0-1 || !errors.As(err, &se) || se.Shard != "shard1" || se.Op != "delete" {
		t.Errorf("delete with dead shard = %d, %v; want %d rows and *ShardError for shard1 delete", n, err, onShard0-1)
	}
	// ExecBatch keeps a failed write's partial count as well: the failing
	// UPDATE's Result follows the results of the statements before it.
	// shard0 now holds only amy.
	results, err := sess.ExecBatch(ctx, []string{
		"INSERT INTO people VALUES ('amy', 'rome', '0014')",
		"UPDATE people SET city = 'oslo'",
	})
	if len(results) != 2 || results[0].Affected != 1 || results[1].Affected != 1 ||
		!errors.As(err, &se) || se.Shard != "shard1" || se.Op != "update" {
		t.Errorf("ExecBatch UPDATE with dead shard = %v results, %v; want the insert's and the update's 1 affected each and *ShardError for shard1 update", len(results), err)
	}
}
