package wal_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/wal"
)

// crashOp is one logical client operation: the unit of acknowledgment. An
// op that returns nil was acked — it must survive any later crash. An op
// that returns an error was not acked — recovery may keep or drop it, but
// never tear it.
type crashOp struct {
	name string
	run  func(db *engine.DB) error
}

// crashWorkload covers every record type and checkpoint path: creates,
// single-row inserts, a delete, an update, a merge (checkpoint + segment
// roll + prune), a drop, and post-checkpoint inserts.
func crashWorkload() []crashOp {
	ctx := context.Background()
	ins := func(table, k, v string) crashOp {
		return crashOp{fmt.Sprintf("insert %s %s=%s", table, k, v), func(db *engine.DB) error {
			return db.InsertBatch(ctx, table, []engine.Row{{"k": []byte(k), "v": []byte(v)}})
		}}
	}
	return []crashOp{
		{"create t", func(db *engine.DB) error { return db.CreateTable(testSchema("t")) }},
		{"create u", func(db *engine.DB) error { return db.CreateTable(testSchema("u")) }},
		ins("t", "k0", "v0"),
		ins("u", "a0", "b0"),
		ins("t", "k1", "v1"),
		ins("t", "k2", "v2"),
		{"delete t k1", func(db *engine.DB) error {
			_, err := db.Delete(ctx, "t", []engine.Filter{keyFilter("k1")})
			return err
		}},
		{"update t k2", func(db *engine.DB) error {
			_, err := db.Update(ctx, "t", []engine.Filter{keyFilter("k2")},
				engine.Row{"k": []byte("k2"), "v": []byte("patched")})
			return err
		}},
		{"merge t", func(db *engine.DB) error { return db.Merge(ctx, "t") }},
		ins("t", "k3", "v3"),
		{"drop u", func(db *engine.DB) error { return db.DropTable("u") }},
		ins("t", "k4", "v4"),
	}
}

// crashSealRows is the seal threshold of every database in the crash
// matrix: one row, so the workload's three inserts into t before its delete
// sit in three sealed runs, and every later insert seals one more.
const crashSealRows = 1

// twinStates runs the workload on a never-crashed in-memory twin and
// returns the database state after each prefix of ops: twin[K] is the
// state once the first K ops have been acked.
func twinStates(t *testing.T, ops []crashOp) []string {
	t.Helper()
	db := engine.New(nil, engine.WithSealThreshold(crashSealRows))
	states := make([]string, 0, len(ops)+1)
	states = append(states, stateString(db))
	for _, op := range ops {
		if err := op.run(db); err != nil {
			t.Fatalf("twin op %q: %v", op.name, err)
		}
		states = append(states, stateString(db))
	}
	return states
}

// runToCrash opens a WAL on fs and applies ops until one fails, returning
// how many were acked.
func runToCrash(dir string, fs wal.FS, ops []crashOp) (acked int) {
	db := engine.New(nil, engine.WithSealThreshold(crashSealRows))
	l, err := wal.Open(dir, db, wal.WithFS(fs))
	if err != nil {
		return 0
	}
	db.SetCommitLog(l)
	for _, op := range ops {
		if err := op.run(db); err != nil {
			return acked
		}
		acked++
	}
	return acked
}

// TestCrashMatrix is the acceptance gate: for a crash injected at every
// filesystem operation the workload performs — mid-append, mid-fsync,
// mid-checkpoint-image, mid-manifest-rename, mid-prune — with and without
// a torn partial writeback, reopening the directory must recover a state
// equal to the never-crashed twin after K acked ops for some K >= the
// number actually acked: every acknowledged write survives, every
// unacknowledged write is atomically present-or-absent, never torn. Replay
// seals the delta as the writes did: some recovered state holds t's three
// sealed runs.
func TestCrashMatrix(t *testing.T) {
	ops := crashWorkload()
	twins := twinStates(t, ops)

	// Dry run to size the matrix: every mutating fs op is a crash point.
	probe := wal.NewFaultFS(wal.OSFS{})
	if acked := runToCrash(t.TempDir(), probe, ops); acked != len(ops) {
		t.Fatalf("dry run acked %d/%d ops", acked, len(ops))
	}
	schedule := probe.Ops()
	total := len(schedule)
	if total < 30 {
		t.Fatalf("suspiciously small op schedule (%d): %v", total, schedule)
	}
	t.Logf("crash matrix: %d fs operations x 2 tear modes", total)
	maxRuns := 0

	for _, torn := range []bool{false, true} {
		for n := 1; n <= total; n++ {
			dir := t.TempDir()
			ffs := wal.NewFaultFS(wal.OSFS{})
			ffs.SetTorn(torn)
			ffs.CrashAt(n)
			acked := runToCrash(dir, ffs, ops)
			if !ffs.Crashed() {
				t.Fatalf("crash point %d never reached (schedule drifted?)", n)
			}

			db := engine.New(nil, engine.WithSealThreshold(crashSealRows))
			l, err := wal.Open(dir, db)
			if err != nil {
				t.Fatalf("torn=%v crash at op %d (%s): recovery failed: %v\nschedule: %s",
					torn, n, schedule[n-1], err, strings.Join(schedule, ", "))
			}
			if info, err := db.MergeStatus(context.Background(), "t"); err == nil {
				maxRuns = max(maxRuns, info.SealedRuns)
			}
			got := stateString(db)
			matched := -1
			for k := acked; k <= len(ops); k++ {
				if got == twins[k] {
					matched = k
					break
				}
			}
			if matched < 0 {
				t.Fatalf("torn=%v crash at op %d (%s), %d acked: recovered state matches no twin >= acked:\n%s\ntwin[%d]:\n%s",
					torn, n, schedule[n-1], acked, got, acked, twins[acked])
			}

			// The recovered store must keep working: it survived once, it
			// must be able to survive again.
			if matched < len(ops) {
				db.SetCommitLog(l)
				if err := ops[matched].run(db); err != nil {
					t.Fatalf("torn=%v crash at op %d: recovered store rejected op %q: %v",
						torn, n, ops[matched].name, err)
				}
			}
			l.Close()
		}
	}
	if maxRuns < 3 {
		t.Errorf("no recovered state held more than %d sealed runs of t, want 3", maxRuns)
	}
}
