package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/wire"
)

// The kill -9 test needs a real server process — in-process fault injection
// cannot model a dead page cache or a half-written socket. Rather than
// building the binary inside the test, the test binary re-execs itself:
// with ENCDBDB_CRASH_HELPER set, TestMain runs the server's main() and the
// command-line arguments are ordinary server flags.
func TestMain(m *testing.M) {
	if os.Getenv("ENCDBDB_CRASH_HELPER") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

var listenRE = regexp.MustCompile(`listening on ([0-9.]+:[0-9]+)`)

// startServer spawns a helper-process server on an OS-assigned port with dir
// as its durability directory, and returns once the listen address has been
// scraped from the server's log output.
func startServer(t *testing.T, dir string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-data-dir", dir)
	cmd.Env = append(os.Environ(), "ENCDBDB_CRASH_HELPER=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		// Keep draining after the address line so the pipe never fills, and
		// echo everything into the test log — a race-detector report from the
		// helper process is invisible otherwise.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			t.Logf("server: %s", line)
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return cmd, addr
	case <-time.After(30 * time.Second):
		cmd.Process.Kill() //nolint:errcheck // best-effort reap before failing
		cmd.Wait()         //nolint:errcheck
		t.Fatal("server never reported a listen address")
		return nil, ""
	}
}

func crashSchema() engine.Schema {
	return engine.Schema{Table: "t", Columns: []engine.ColumnDef{
		{Name: "k", Kind: dict.ED9, MaxLen: 16, Plain: true},
		{Name: "v", Kind: dict.ED9, MaxLen: 16, Plain: true},
	}}
}

func rowKV(i int) (string, string) {
	return fmt.Sprintf("k%04d", i), fmt.Sprintf("v%04d", i)
}

// selectAll returns table t's rows as sorted "k=v" strings via x's Select.
func selectAll(t *testing.T, x interface {
	Select(context.Context, engine.Query) (*engine.Result, error)
}) []string {
	t.Helper()
	res, err := x.Select(context.Background(), engine.Query{Table: "t", Project: []string{"k", "v"}})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	rows := make([]string, len(res.RecordIDs))
	for i := range res.RecordIDs {
		rows[i] = fmt.Sprintf("%s=%s", res.Columns[0].Cells[i], res.Columns[1].Cells[i])
	}
	sort.Strings(rows)
	return rows
}

// batchOf returns the rows [lo, lo+n) of the insert sequence.
func batchOf(lo, n int) []engine.Row {
	rows := make([]engine.Row, n)
	for i := range rows {
		k, v := rowKV(lo + i)
		rows[i] = engine.Row{"k": []byte(k), "v": []byte(v)}
	}
	return rows
}

// TestKillNineRecovery is the crash scenario end to end: load a real server
// process over TCP, SIGKILL it mid-insert-stream, restart it on the same
// data directory, and require that every acknowledged write survived, that
// the store matches a never-crashed in-process twin fed the same prefix, and
// that the recovered server keeps accepting writes. The server seals its
// tail at the default 4,096 rows, and more than three times that many rows
// are acknowledged before the kill, so the recovered store must hold at
// least three sealed runs: replay seals as the writes did.
func TestKillNineRecovery(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("requires SIGKILL")
	}
	dir := t.TempDir()
	cmd, addr := startServer(t, dir)
	reaped := false
	defer func() {
		if !reaped {
			cmd.Process.Kill() //nolint:errcheck // already dead in the happy path
			cmd.Wait()         //nolint:errcheck
		}
	}()

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable(crashSchema()); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}

	// Stream insert batches; fire SIGKILL after a prefix has been
	// acknowledged so later batches race the process death in flight. Acked
	// counts only rows whose response arrived — exactly the writes recovery
	// owes us.
	ctx := context.Background()
	const batch, killAfter, limit = 128, 100 * 128, 400 * 128
	acked, sent := 0, 0
	for lo := 0; lo < limit; lo += batch {
		if lo == killAfter {
			if err := cmd.Process.Kill(); err != nil {
				t.Fatalf("kill -9: %v", err)
			}
		}
		sent = lo + batch
		if err := c.InsertBatch(ctx, "t", batchOf(lo, batch)); err != nil {
			break
		}
		acked = lo + batch
	}
	cmd.Wait() //nolint:errcheck // killed; exit status is expected to be non-zero
	reaped = true
	if sent == limit && acked == sent {
		t.Fatal("server survived kill -9; test drove no crash")
	}
	if acked < killAfter {
		t.Fatalf("only %d rows acked before the kill took effect, want >= %d", acked, killAfter)
	}
	t.Logf("killed after %d acked / %d sent rows", acked, sent)

	// Restart on the same directory: recovery must yield exactly a prefix of
	// the insert sequence, at least as long as the acked prefix (an in-flight
	// unacked insert may legitimately be present or absent — atomically).
	cmd2, addr2 := startServer(t, dir)
	interrupted := false
	defer func() {
		if !interrupted {
			cmd2.Process.Kill() //nolint:errcheck // cleanup of a failed run
			cmd2.Wait()         //nolint:errcheck
		}
	}()
	c2, err := wire.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	got := selectAll(t, c2)
	recovered := len(got)
	if info, err := c2.MergeStatus(ctx, "t"); err != nil || info.SealedRuns < 3 {
		t.Fatalf("recovered merge status = %+v, %v; want at least 3 sealed runs", info, err)
	}
	if recovered < acked {
		t.Fatalf("recovered %d rows, lost acknowledged writes (acked %d)", recovered, acked)
	}
	if recovered > sent {
		t.Fatalf("recovered %d rows but only %d were ever sent", recovered, sent)
	}

	// Never-crashed twin: an in-process engine fed the same recovered prefix
	// must answer scans and range probes identically.
	twin := engine.New(nil, engine.WithSealThreshold(1000))
	if err := twin.CreateTable(crashSchema()); err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < recovered; lo += batch {
		if err := twin.InsertBatch(ctx, "t", batchOf(lo, batch)); err != nil {
			t.Fatal(err)
		}
	}
	want := selectAll(t, twin)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered state diverged from never-crashed twin:\n got %v\nwant %v", got, want)
	}
	probe := engine.Query{Table: "t", Project: []string{"v"}, Filters: []engine.Filter{
		engine.SingleRange("k", enclave.EncRange{
			Start: []byte("k0010"), End: []byte("k0020"), StartIncl: true, EndIncl: false,
		}),
	}}
	gotProbe, err := c2.Select(ctx, probe)
	if err != nil {
		t.Fatalf("probe on recovered server: %v", err)
	}
	wantProbe, err := twin.Select(ctx, probe)
	if err != nil {
		t.Fatalf("probe on twin: %v", err)
	}
	if len(gotProbe.RecordIDs) != len(wantProbe.RecordIDs) || len(gotProbe.RecordIDs) != 10 {
		t.Fatalf("range probe: recovered %d rows, twin %d, want 10",
			len(gotProbe.RecordIDs), len(wantProbe.RecordIDs))
	}

	// The recovered server must remain a working store, not a read-only relic.
	if err := c2.InsertBatch(ctx, "t", []engine.Row{{"k": []byte("post"), "v": []byte("crash")}}); err != nil {
		t.Fatalf("insert after recovery: %v", err)
	}
	if n, err := c2.Rows("t"); err != nil || n != recovered+1 {
		t.Fatalf("Rows after post-recovery insert = %d, %v; want %d", n, err, recovered+1)
	}

	// Graceful shutdown (SIGINT) must drain and exit cleanly — the flushed
	// tail means a third start would need no replay.
	if err := cmd2.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	interrupted = true
	if err := cmd2.Wait(); err != nil {
		t.Fatalf("graceful shutdown exit: %v", err)
	}
}
