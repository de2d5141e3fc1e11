package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/metrics"
)

// serve starts srv on a loopback port and closes it when the test ends.
func serve(t *testing.T, srv *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // ends with Close
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// countWorkers installs a workerHook on srv, which must not serve yet, and
// returns the count of worker starts it keeps.
func countWorkers(srv *Server) *atomic.Int64 {
	var n atomic.Int64
	srv.workerHook = func() { n.Add(1) }
	return &n
}

// TestSequentialRequestsOneWorker: a closed-loop client — each request sent
// only after the previous reply arrived — runs on one worker for the whole
// connection, because a worker counts itself idle before it writes a reply.
func TestSequentialRequestsOneWorker(t *testing.T) {
	srv := NewServer(engine.New(nil), t.Logf)
	started := countWorkers(srv)
	addr := serve(t, srv)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable(plainSchema("seq")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 999; i++ {
		if _, err := c.Rows("seq"); err != nil {
			t.Fatal(err)
		}
	}
	if n := started.Load(); n != 1 {
		t.Errorf("1,000 sequential requests started %d workers, want 1", n)
	}
}

// TestWorkersRunParkedRequestsAtOnce: connWorkers requests that park all
// execute at once, each on its own worker; one more admitted request waits
// in the work queue for the first worker to come free instead of starting a
// worker beyond the bound.
func TestWorkersRunParkedRequestsAtOnce(t *testing.T) {
	const workers = 3
	entered := make(chan struct{}, workers+1)
	release := make(chan struct{})
	srv := NewServer(engine.New(nil), t.Logf, WithConnWorkers(workers), WithMetrics(metrics.NewRegistry()))
	srv.dispatchHook = func(req *request) {
		if req.Op == opRows {
			entered <- struct{}{}
			<-release
		}
	}
	started := countWorkers(srv)
	addr := serve(t, srv)
	var once sync.Once
	unpark := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unpark)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable(plainSchema("park")); err != nil {
		t.Fatal(err)
	}
	results := make(chan error, workers+1)
	call := func() {
		_, err := c.Rows("park")
		results <- err
	}
	for i := 0; i < workers; i++ {
		go call()
	}
	for i := 0; i < workers; i++ {
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d parked requests are executing", i, workers)
		}
	}
	go call()
	// Wait until the read loop has admitted the extra request.
	for deadline := time.Now().Add(10 * time.Second); srv.metrics.inflight.Value() < workers+1; {
		if time.Now().After(deadline) {
			t.Fatal("the extra request was never admitted")
		}
		runtime.Gosched()
	}
	select {
	case <-entered:
		t.Fatal("a request beyond connWorkers executed while every worker was parked")
	default:
	}
	unpark()
	for i := 0; i < workers+1; i++ {
		if err := <-results; err != nil {
			t.Errorf("request %d: %v", i, err)
		}
	}
	if n := started.Load(); n != workers {
		t.Errorf("started %d workers, want %d", n, workers)
	}
}

// gatedConn is a server-side connection whose writes wait for gate while
// blocked is set, announcing each such wait on parked.
type gatedConn struct {
	net.Conn
	blocked *atomic.Bool
	parked  chan<- struct{}
	gate    <-chan struct{}
}

func (c gatedConn) Write(p []byte) (int, error) {
	if c.blocked.Load() {
		select {
		case c.parked <- struct{}{}:
		default:
		}
		<-c.gate
	}
	return c.Conn.Write(p)
}

// gatedListener hands the server gatedConns.
type gatedListener struct {
	net.Listener
	wrap func(net.Conn) net.Conn
}

func (l gatedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.wrap(c), nil
}

// TestParkedReplyWriteKeepsReading: while a worker's reply write is stuck
// (the peer reads nothing), the read loop keeps reading and placing
// requests. The request that claims the writing worker waits for it in the
// work queue; the next one starts a second worker and executes.
func TestParkedReplyWriteKeepsReading(t *testing.T) {
	entered := make(chan struct{}, 4)
	srv := NewServer(engine.New(nil), t.Logf, WithConnWorkers(4))
	srv.dispatchHook = func(req *request) {
		if req.Op == opRows {
			entered <- struct{}{}
		}
	}
	started := countWorkers(srv)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var blocked atomic.Bool
	parked := make(chan struct{}, 1)
	gate := make(chan struct{})
	go srv.Serve(gatedListener{ln, func(c net.Conn) net.Conn { //nolint:errcheck // ends with Close
		return gatedConn{Conn: c, blocked: &blocked, parked: parked, gate: gate}
	}})
	// Cleanups run last-in first-out: the gate opens before Close drains.
	t.Cleanup(func() { srv.Close() })
	var once sync.Once
	open := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(open)
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable(plainSchema("gate")); err != nil {
		t.Fatal(err)
	}
	blocked.Store(true)
	results := make(chan error, 3)
	call := func() {
		_, err := c.Rows("gate")
		results <- err
	}
	wait := func(what string, ch <-chan struct{}) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatal(what)
		}
	}
	go call()
	wait("the first request never executed", entered)
	wait("the first reply write never started", parked)
	go call()
	go call()
	wait("no further request executed while a reply write was parked", entered)
	if n := started.Load(); n != 2 {
		t.Errorf("started %d workers, want 2", n)
	}
	open()
	for i := 0; i < 3; i++ {
		if err := <-results; err != nil {
			t.Errorf("request %d: %v", i, err)
		}
	}
}

// TestCloseStopsWorkers: once Close returns, none of the server's worker
// goroutines is left, idle or busy.
func TestCloseStopsWorkers(t *testing.T) {
	srv := NewServer(engine.New(nil), t.Logf, WithDrainTimeout(5*time.Second))
	started := countWorkers(srv)
	addr := serve(t, srv)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.CreateTable(plainSchema(fmt.Sprintf("stop%d", i))); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 8; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := c.Rows(fmt.Sprintf("stop%d", i)); err != nil {
					t.Error(err)
				}
			}()
		}
	}
	wg.Wait()
	if started.Load() < 2 {
		t.Fatalf("started %d workers, want at least one per connection", started.Load())
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Close has waited for every worker's Done; a worker still listed is
	// at most returning from its deferred call, and gone a moment later.
	frame := fmt.Sprintf("(*Server).worker(%p", srv)
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; {
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, frame) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("a worker survived Close:\n%s", stacks)
		}
		runtime.Gosched()
	}
}

// TestServerDropsStalledFrame: a peer that sends a frame's header and part
// of its payload, then stalls, is dropped once the frame deadline passes,
// and other clients are still answered. A client idle between frames for
// longer than that deadline is not dropped.
func TestServerDropsStalledFrame(t *testing.T) {
	// Cleanups run last-in first-out: this one after the server's Close,
	// which waits for every connection that read the variable.
	saved := serverFrameTimeout
	t.Cleanup(func() { serverFrameTimeout = saved })
	serverFrameTimeout = 100 * time.Millisecond
	_, addr := startPlainServer(t)

	idle, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if _, err := idle.Tables(); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeHello(conn); err != nil {
		t.Fatal(err)
	}
	if err := readHello(conn); err != nil {
		t.Fatal(err)
	}
	var hdr [headerLen]byte
	binary.BigEndian.PutUint32(hdr[:4], 1024)
	binary.BigEndian.PutUint64(hdr[4:], 1)
	if _, err := conn.Write(append(hdr[:], make([]byte, 10)...)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	start := time.Now()
	if n, err := conn.Read(make([]byte, 8)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read %d bytes, err %v after %v; want the server to drop the connection", n, err, time.Since(start))
	}

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Tables(); err != nil {
		t.Fatal(err)
	}
	// The idle client has waited between frames far past the deadline.
	time.Sleep(3 * serverFrameTimeout)
	if _, err := idle.Tables(); err != nil {
		t.Fatalf("idle client dropped: %v", err)
	}
}
