package encdbdb_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/encdbdb/encdbdb"
)

// TestPublicQueryPrepareRows drives the v2 query surface end-to-end on an
// embedded deployment: placeholders, prepared statements, and the streaming
// Rows cursor (Next/Scan and the iterator adapter).
func TestPublicQueryPrepareRows(t *testing.T) {
	ctx := context.Background()
	_, _, sess := newStack(t)
	if _, err := sess.ExecContext(ctx, "CREATE TABLE people (fname ED5(30) BSMAX 10, city ED1(30))"); err != nil {
		t.Fatal(err)
	}
	ins, err := sess.Prepare(ctx, "INSERT INTO people VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	defer ins.Close()
	for _, r := range [][2]string{
		{"Jessica", "Waterloo"}, {"Hans", "Karlsruhe"}, {"Archie", "Berlin"}, {"Ella", "Berlin"},
	} {
		if _, err := ins.Exec(ctx, r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}

	rows, err := sess.Query(ctx, "SELECT fname, city FROM people WHERE fname >= ? AND fname < ?", "A", "I")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for rows.Next() {
		var fname, city string
		if err := rows.Scan(&fname, &city); err != nil {
			t.Fatal(err)
		}
		got[fname] = city
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	if len(got) != 3 || got["Archie"] != "Berlin" || got["Ella"] != "Berlin" || got["Hans"] != "Karlsruhe" {
		t.Fatalf("rows = %v", got)
	}

	sel, err := sess.Prepare(ctx, "SELECT COUNT(*) FROM people WHERE city = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer sel.Close()
	for city, want := range map[string]int{"Berlin": 2, "Waterloo": 1, "Nowhere": 0} {
		res, err := sel.Exec(ctx, city)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != want {
			t.Fatalf("count(%s) = %d, want %d", city, res.Count, want)
		}
	}

	// Iterator adapter.
	rows, err = sess.Query(ctx, "SELECT fname FROM people WHERE city = ?", "Berlin")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for row := range rows.Iter() {
		if len(row) != 1 {
			t.Fatalf("row = %v", row)
		}
		n++
	}
	if err := rows.Err(); err != nil || n != 2 {
		t.Fatalf("iterated %d rows, err %v", n, err)
	}
}

// TestPublicCancelLocal: a cancelled context surfaces context.Canceled from
// the embedded engine.
func TestPublicCancelLocal(t *testing.T) {
	_, _, sess := newStack(t)
	if _, err := sess.ExecContext(context.Background(), "CREATE TABLE t (c ED1(8))"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.ExecContext(ctx, "SELECT c FROM t"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestPublicRemoteQueryV2 runs the full v2 surface against a remote provider
// over TCP: streamed Query, prepared statements, and context cancellation
// over the wire — and the connection keeps serving afterwards.
func TestPublicRemoteQueryV2(t *testing.T) {
	provider, err := encdbdb.Open()
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go provider.Serve(ln, nil) //nolint:errcheck
	defer provider.Shutdown()

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
		t.Fatal(err)
	}
	sess, err := owner.RemoteSession(client)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	if _, err := sess.ExecContext(ctx, "CREATE TABLE ev (day ED1(10), kind ED5(12) BSMAX 5)"); err != nil {
		t.Fatal(err)
	}
	ins, err := sess.Prepare(ctx, "INSERT INTO ev VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := ins.Exec(ctx, fmt.Sprintf("2026-06-%02d", i%28+1), fmt.Sprintf("k%02d", i%7)); err != nil {
			t.Fatal(err)
		}
	}

	// Streamed query over the wire.
	rows, err := sess.Query(ctx, "SELECT day, kind FROM ev WHERE day >= ?", "2026-06-15")
	if err != nil {
		t.Fatal(err)
	}
	streamed := 0
	for rows.Next() {
		streamed++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	res, err := sess.ExecContext(ctx, "SELECT COUNT(*) FROM ev WHERE day >= ?", "2026-06-15")
	if err != nil {
		t.Fatal(err)
	}
	if streamed != res.Count || streamed == 0 {
		t.Fatalf("streamed %d rows, count says %d", streamed, res.Count)
	}

	// Cancellation over the wire: the call returns context.Canceled and the
	// connection keeps working.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := sess.ExecContext(cctx, "SELECT day FROM ev"); !errors.Is(err, context.Canceled) {
		t.Fatalf("remote cancel err = %v, want context.Canceled", err)
	}
	// Cancel mid-stream too.
	cctx2, cancel2 := context.WithCancel(ctx)
	rows, err = sess.Query(cctx2, "SELECT day FROM ev")
	if err != nil {
		t.Fatal(err)
	}
	cancel2()
	for rows.Next() {
	}
	rows.Close()
	if err := rows.Err(); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-stream cancel err = %v", err)
	}

	// The connection is not wedged.
	done := make(chan error, 1)
	go func() {
		res, err := sess.ExecContext(ctx, "SELECT COUNT(*) FROM ev")
		if err == nil && res.Count != 50 {
			err = fmt.Errorf("count = %d, want 50", res.Count)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("connection wedged after cancellations")
	}
}

// TestPublicExecScriptOffsets pins the batch diagnostics through the public
// API.
func TestPublicExecScriptOffsets(t *testing.T) {
	_, _, sess := newStack(t)
	_, err := sess.ExecScript(context.Background(), "CREATE TABLE t (c ED1(4)); SELECT c FRO t")
	if err == nil {
		t.Fatal("expected error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "statement 1") || !strings.Contains(msg, "offset") {
		t.Fatalf("err = %q, want statement index and offset", msg)
	}
}
