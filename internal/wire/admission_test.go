package wire

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/metrics"
)

// startAdmissionServer builds a plaintext provider whose dispatchHook is
// installed before Serve starts, so the hook write happens-before any
// worker reads it.
func startAdmissionServer(t *testing.T, hook func(req *request), opts ...ServerOption) (*Server, string) {
	t.Helper()
	srv := NewServer(engine.New(nil), t.Logf, opts...)
	srv.dispatchHook = hook
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // ends with Close
	return srv, ln.Addr().String()
}

// TestSaturationReturnsBusy pins the admission-control contract: once the
// dispatch queue is full, further requests are shed immediately with the
// typed ErrServerBusy sentinel — the client does not queue behind the
// saturated workers — and parked in-flight requests still complete once
// the saturation clears.
func TestSaturationReturnsBusy(t *testing.T) {
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	srv, addr := startAdmissionServer(t, func(req *request) {
		if req.Op == opRows {
			entered <- struct{}{}
			<-release
		}
	}, WithConnWorkers(1), WithQueueDepth(1), WithDrainTimeout(time.Second))
	var once sync.Once
	unpark := func() { once.Do(func() { close(release) }) }
	t.Cleanup(func() {
		unpark()
		srv.Close()
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable(plainSchema("adm")); err != nil {
		t.Fatal(err)
	}
	// First request takes the only queue slot and parks inside the hook.
	parked := make(chan error, 1)
	go func() {
		_, err := c.Rows("adm")
		parked <- err
	}()
	// The client has read CreateTable's reply, so that request holds no
	// queue slot any more and this one must be admitted, not shed.
	select {
	case <-entered:
	case err := <-parked:
		t.Fatalf("first request did not park in the hook: returned %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for the first request to reach the dispatch hook")
	}
	// The queue is now provably full: the next request must be shed, fast
	// and typed, while the first request is still running.
	start := time.Now()
	if _, err := c.Rows("adm"); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("saturated request: err = %v, want ErrServerBusy", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("busy rejection took %v, want immediate", d)
	}
	// Shedding must not have wedged the admitted request.
	unpark()
	if err := <-parked; err != nil {
		t.Fatalf("parked request after release: %v", err)
	}
	// And with the queue drained, new requests are admitted again.
	if n, err := c.Rows("adm"); err != nil || n != 0 {
		t.Fatalf("post-saturation request = %d, %v; want 0, nil", n, err)
	}
}

// TestRequestDeadlineAcrossWire checks WithRequestTimeout: a request whose
// execution starts after its budget is spent fails with
// context.DeadlineExceeded, and the sentinel survives the wire so clients
// can errors.Is on it.
func TestRequestDeadlineAcrossWire(t *testing.T) {
	srv, addr := startAdmissionServer(t, func(req *request) {
		if req.Op == opSelect {
			time.Sleep(120 * time.Millisecond)
		}
	}, WithRequestTimeout(20*time.Millisecond), WithDrainTimeout(time.Second))
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable(plainSchema("dl")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Select(context.Background(), engine.Query{Table: "dl"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired request: err = %v, want context.DeadlineExceeded", err)
	}
	// Requests that fit their budget are unaffected.
	if n, err := c.Rows("dl"); err != nil || n != 0 {
		t.Fatalf("in-budget request = %d, %v; want 0, nil", n, err)
	}
}

// TestCloseDrainAnswersAccepted pins the graceful-drain contract: requests
// admitted before Close keep executing and their responses are delivered,
// so a client whose request was accepted gets an answer, not a reset.
func TestCloseDrainAnswersAccepted(t *testing.T) {
	const parked = 3
	entered := make(chan struct{}, parked)
	release := make(chan struct{})
	srv, addr := startAdmissionServer(t, func(req *request) {
		if req.Op == opInsert {
			entered <- struct{}{}
			<-release
		}
	}, WithDrainTimeout(5*time.Second))
	var once sync.Once
	unpark := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unpark)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable(plainSchema("drain2")); err != nil {
		t.Fatal(err)
	}
	results := make(chan error, parked)
	for i := 0; i < parked; i++ {
		go func() {
			results <- c.InsertBatch(context.Background(), "drain2", []engine.Row{{"c": []byte("v")}})
		}()
	}
	for i := 0; i < parked; i++ {
		<-entered
	}
	// Close with all three admitted and parked. It must block on the drain,
	// then deliver all three responses.
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	time.Sleep(50 * time.Millisecond) // let Close interrupt the read loops
	unpark()
	for i := 0; i < parked; i++ {
		if err := <-results; err != nil {
			t.Errorf("drained request %d: %v", i, err)
		}
	}
	if err := <-closed; err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestServerMetricsScrape end-to-ends WithMetrics: after real traffic the
// registry's exposition must carry the wire families with plausible values.
func TestServerMetricsScrape(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, addr := startAdmissionServer(t, nil, WithMetrics(reg), WithDrainTimeout(time.Second))
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable(plainSchema("m")); err != nil {
		t.Fatal(err)
	}
	if err := c.InsertBatch(context.Background(), "m", []engine.Row{{"c": []byte("v")}}); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Rows("m"); err != nil || n != 1 {
		t.Fatalf("rows = %d, %v", n, err)
	}
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for _, want := range []string{
		"encdbdb_wire_connections_total 1",
		"encdbdb_wire_connections_active 1",
		`encdbdb_wire_requests_total{op="create_table"} 1`,
		`encdbdb_wire_requests_total{op="insert"} 1`,
		`encdbdb_wire_requests_total{op="rows"} 1`,
		`encdbdb_wire_request_seconds_count{op="rows"} 1`,
		"encdbdb_wire_rejected_total 0",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q; got:\n%s", want, got)
		}
	}
	// Byte counters must have seen the traffic.
	if strings.Contains(got, "encdbdb_wire_read_bytes_total 0\n") {
		t.Error("read byte counter stayed zero")
	}
	if strings.Contains(got, "encdbdb_wire_written_bytes_total 0\n") {
		t.Error("written byte counter stayed zero")
	}
}
