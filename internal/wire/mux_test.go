package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"github.com/encdbdb/encdbdb/internal/codec"
	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/engine"
)

// startPlainServer hosts a plaintext-only engine (no enclave needed) behind
// a real wire server on a loopback port.
func startPlainServer(t testing.TB, opts ...ServerOption) (*Server, string) {
	t.Helper()
	srv := NewServer(engine.New(nil), t.Logf, opts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // ends with Close
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

func plainSchema(table string) engine.Schema {
	return engine.Schema{Table: table, Columns: []engine.ColumnDef{
		{Name: "c", Kind: dict.ED1, MaxLen: 8, Plain: true},
	}}
}

// fakePeer is the provider half of one connection, driven by hand: tests
// use it to answer a real Client with frames no real Server would send.
type fakePeer struct {
	conn net.Conn
	fr   frameReader
	mw   *muxWriter
	in   codec.Intern
}

// next reads one request frame and returns its ID.
func (p *fakePeer) next() (uint64, error) {
	id, buf, err := p.fr.readPooled()
	if err != nil {
		return 0, err
	}
	req, err := decodeRequest(buf.B, &p.in)
	if err != nil {
		return 0, err
	}
	releaseRequest(req, buf)
	return id, nil
}

// fakeMuxServer accepts one connection, completes the hello exchange, and
// hands the connection to serve. It returns the listener address.
func fakeMuxServer(t *testing.T, serve func(p *fakePeer)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if readHello(conn) != nil || writeHello(conn) != nil {
			return
		}
		serve(&fakePeer{conn: conn, fr: frameReader{r: conn}, mw: newMuxWriter(conn)})
	}()
	return ln.Addr().String()
}

// TestHelloRefusesOtherVersions pins the version check on both sides: a peer
// that proposes any version but this build's, or does not open with the
// magic, is refused with the typed ErrUnsupportedVersion and a closed
// connection, and nothing it sent after its hello is parsed.
func TestHelloRefusesOtherVersions(t *testing.T) {
	hello := func(ver byte) []byte { return append(helloMagic[:], ver) }
	cases := map[string][]byte{
		"v1":       hello(1),
		"v2":       hello(2),
		"v3":       hello(3),
		"v4":       hello(4),
		"v5":       hello(5),
		"v6":       hello(6),
		"v7":       hello(7),
		"no_magic": {0, 0, 0, 9, 'l', 'o', 'c', 'k', 's', 't', 'e', 'p', '!'}, // a lock-step era first frame
	}
	// What a refused peer pipelines behind its hello: a valid CREATE TABLE.
	create := frameOf(t, 1, &request{Op: opCreateTable, Schema: plainSchema("sneaked")})

	for name, first := range cases {
		t.Run("server/"+name, func(t *testing.T) {
			refused := make(chan error, 1)
			srv := NewServer(engine.New(nil), func(_ string, args ...any) {
				for _, a := range args {
					if err, ok := a.(error); ok {
						refused <- err
					}
				}
			})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(ln) //nolint:errcheck // ends with Close
			defer srv.Close()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(append(bytes.Clone(first), create...)); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
			// The server says which version it speaks and closes (a reset,
			// when the pipelined bytes were still unread, may cut even that
			// short): no response frame to the pipelined request follows.
			got, _ := io.ReadAll(conn)
			if want := hello(protoVersion); !bytes.HasPrefix(want, got) {
				t.Errorf("server answered %q, want at most its hello %q", got, want)
			}
			if err := <-refused; !errors.Is(err, ErrUnsupportedVersion) {
				t.Errorf("server logged %v, want ErrUnsupportedVersion", err)
			}
			c, err := Dial(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if tables, err := c.Tables(); err != nil || len(tables) != 0 {
				t.Errorf("tables = %v, %v; the refused peer's request must not have run", tables, err)
			}
		})
		t.Run("client/"+name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				conn.Write(first)         //nolint:errcheck
				io.Copy(io.Discard, conn) //nolint:errcheck // until the client hangs up
			}()
			c, err := Dial(ln.Addr().String())
			if !errors.Is(err, ErrUnsupportedVersion) {
				if c != nil {
					c.Close()
				}
				t.Fatalf("Dial err = %v, want ErrUnsupportedVersion", err)
			}
		})
	}
}

// TestServerDropsSilentHello: a peer that sends part of its hello and goes
// silent is dropped once the hello deadline passes, and the server keeps
// serving others.
func TestServerDropsSilentHello(t *testing.T) {
	// Cleanups run last-in first-out: this one after the server's Close,
	// which waits for every connection that read the variable.
	saved := serverHelloTimeout
	t.Cleanup(func() { serverHelloTimeout = saved })
	serverHelloTimeout = 100 * time.Millisecond
	_, addr := startPlainServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(helloMagic[:3]); err != nil {
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
}

func TestMultiplexedConcurrentCalls(t *testing.T) {
	_, addr := startPlainServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable(plainSchema("mux")); err != nil {
		t.Fatal(err)
	}
	const callers = 32
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if i%2 == 0 {
					if err := c.InsertBatch(context.Background(), "mux", []engine.Row{{"c": []byte("v")}}); err != nil {
						errs <- err
						return
					}
				} else if _, err := c.Rows("mux"); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	n, err := c.Rows("mux")
	if err != nil || n != (callers/2)*20 {
		t.Fatalf("rows = %d, %v, want %d", n, err, (callers/2)*20)
	}
}

// TestMidStreamDropFailsAllPending verifies that a connection dying with
// many calls in flight completes every pending caller with an error — none
// hang, none panic.
func TestMidStreamDropFailsAllPending(t *testing.T) {
	received := make(chan struct{}, 64)
	addr := fakeMuxServer(t, func(p *fakePeer) {
		// Swallow requests without answering, then drop the connection
		// mid-stream once several calls are pending.
		for i := 0; i < 4; i++ {
			if _, err := p.next(); err != nil {
				break
			}
			received <- struct{}{}
		}
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Tables()
		}(i)
	}
	wg.Wait() // the test would time out if any caller hung
	for i, err := range errs {
		if err == nil {
			t.Errorf("caller %d returned nil error on a dead connection", i)
		}
	}
	// Calls after the failure must fail fast, not hang.
	if _, err := c.Rows("x"); err == nil {
		t.Error("call on poisoned client succeeded")
	}
}

// TestOversizedFrameClientSide: a server announcing an oversized frame must
// poison the client with ErrFrameTooLarge instead of allocating 1 GiB.
func TestOversizedFrameClientSide(t *testing.T) {
	addr := fakeMuxServer(t, func(p *fakePeer) {
		var hdr [12]byte
		hdr[0] = 0xFF // ~4 GiB announced
		hdr[1] = 0xFF
		hdr[2] = 0xFF
		hdr[3] = 0xFF
		if _, err := p.next(); err != nil {
			return
		}
		p.conn.Write(hdr[:]) //nolint:errcheck
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Tables(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// TestOversizedFrameServerSide: an oversized frame drops its connection but
// not the server.
func TestOversizedFrameServerSide(t *testing.T) {
	_, addr := startPlainServer(t)
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
	var hdr [12]byte
	hdr[0] = 0xFF
	hdr[1] = 0xFF
	hdr[2] = 0xFF
	hdr[3] = 0xFF
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	// The server must drop this connection...
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server kept the connection after an oversized frame")
	}
	// ...while still serving fresh clients.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Tables(); err != nil {
		t.Fatalf("Tables after oversized frame: %v", err)
	}
}

// TestUnknownResponseID: a response whose ID matches no in-flight request is
// discarded and the connection stays usable — that is exactly the shape a
// late answer to a context-cancelled (abandoned) call has, so it must not
// poison the stream.
func TestUnknownResponseID(t *testing.T) {
	addr := fakeMuxServer(t, func(p *fakePeer) {
		id, err := p.next()
		if err != nil {
			return
		}
		// A stray ID the client never issued, then the real answer.
		p.mw.send(999_999, &response{N: 7})             //nolint:errcheck
		p.mw.send(id, &response{Tables: []string{"t"}}) //nolint:errcheck
		io.Copy(io.Discard, p.conn)                     //nolint:errcheck // until the client hangs up
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tables, err := c.Tables()
	if err != nil || len(tables) != 1 {
		t.Fatalf("Tables = %v, %v; want [t], nil (stray response must be discarded)", tables, err)
	}
}

// TestDuplicateResponseID: the first response wins; the duplicate is
// indistinguishable from an abandoned call's late answer and is discarded
// without disturbing later calls.
func TestDuplicateResponseID(t *testing.T) {
	addr := fakeMuxServer(t, func(p *fakePeer) {
		id, err := p.next()
		if err != nil {
			return
		}
		p.mw.send(id, &response{N: 1}) //nolint:errcheck
		p.mw.send(id, &response{N: 2}) //nolint:errcheck
		// Serve the follow-up call normally.
		id2, err := p.next()
		if err != nil {
			return
		}
		p.mw.send(id2, &response{N: 3}) //nolint:errcheck
		io.Copy(io.Discard, p.conn)     //nolint:errcheck // until the client hangs up
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n, err := c.Rows("t")
	if err != nil || n != 1 {
		t.Fatalf("first call = %d, %v; want 1, nil", n, err)
	}
	if n, err := c.Rows("t"); err != nil || n != 3 {
		t.Fatalf("call after duplicate response id = %d, %v; want 3, nil", n, err)
	}
}

// TestServerCloseDrainsInFlight closes the server while requests are
// dispatched; worker goroutines must drain cleanly and late
// responses on the closed connection must not panic (regression test, run
// under -race in CI).
func TestServerCloseDrainsInFlight(t *testing.T) {
	srv, addr := startPlainServer(t, WithConnWorkers(8))
	setup, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer setup.Close()
	if err := setup.CreateTable(plainSchema("drain")); err != nil {
		t.Fatal(err)
	}
	const clients = 3
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if err := c.InsertBatch(context.Background(), "drain", []engine.Row{{"c": []byte("v")}}); err != nil {
					return // server went away: expected
				}
				if _, err := c.Rows("drain"); err != nil {
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond) // let requests pile in flight
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait() // all clients observed the shutdown; nothing hung or panicked
}

func TestClientCloseFailsPending(t *testing.T) {
	addr := fakeMuxServer(t, func(p *fakePeer) {
		// Never answer; just hold the connection open.
		io.Copy(io.Discard, p.conn) //nolint:errcheck
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Tables()
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrClientClosed) {
		t.Fatalf("pending call err = %v, want ErrClientClosed", err)
	}
}

func TestBatchInsert(t *testing.T) {
	_, addr := startPlainServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable(plainSchema("b")); err != nil {
		t.Fatal(err)
	}
	rows := make([]engine.Row, 100)
	for i := range rows {
		rows[i] = engine.Row{"c": []byte(fmt.Sprintf("r%03d", i))}
	}
	if err := c.InsertBatch(context.Background(), "b", rows); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Rows("b"); err != nil || n != 100 {
		t.Fatalf("rows = %d, %v", n, err)
	}
	if err := c.InsertBatch(context.Background(), "b", nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestInsertBatchAllOrNothing pins the insert's atomicity: a batch holding
// one bad row — a column the table lacks — leaves the table as it was,
// wherever that row sits in the batch, embedded and over the wire alike.
func TestInsertBatchAllOrNothing(t *testing.T) {
	_, addr := startPlainServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	type provider interface {
		CreateTable(engine.Schema) error
		InsertBatch(ctx context.Context, table string, rows []engine.Row) error
		Rows(table string) (int, error)
	}
	for name, p := range map[string]provider{"embedded": engine.New(nil), "wire": c} {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			if err := p.CreateTable(plainSchema("aon")); err != nil {
				t.Fatal(err)
			}
			good := func(v string) engine.Row { return engine.Row{"c": []byte(v)} }
			if err := p.InsertBatch(ctx, "aon", []engine.Row{good("a"), good("b")}); err != nil {
				t.Fatal(err)
			}
			bad := engine.Row{"x": []byte("v")}
			for _, rows := range [][]engine.Row{
				{bad, good("c")},
				{good("c"), bad, good("d")},
				{good("c"), good("d"), bad},
			} {
				if err := p.InsertBatch(ctx, "aon", rows); err == nil {
					t.Fatalf("batch with a bad row succeeded")
				}
				if n, err := p.Rows("aon"); err != nil || n != 2 {
					t.Fatalf("rows after failed batch = %d, %v; want 2 (nothing applied)", n, err)
				}
			}
		})
	}
}

func TestPoolConcurrent(t *testing.T) {
	_, addr := startPlainServer(t)
	p, err := DialPool(addr, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Size() != 3 {
		t.Fatalf("size = %d", p.Size())
	}
	if err := p.CreateTable(plainSchema("pool")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if err := p.InsertBatch(context.Background(), "pool", []engine.Row{{"c": []byte("v")}}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n, err := p.Rows("pool"); err != nil || n != 160 {
		t.Fatalf("rows = %d, %v", n, err)
	}
}

// TestPoolRedialsBrokenConnection: a poisoned pooled connection must not
// keep degrading its rotation slot — the pool redials it in place.
func TestPoolRedialsBrokenConnection(t *testing.T) {
	_, addr := startPlainServer(t)
	p, err := DialPool(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.clients[0].fail(errors.New("simulated mid-stream drop"))
	p.clients[1].fail(errors.New("simulated mid-stream drop"))
	for i := 0; i < 6; i++ {
		if _, err := p.Tables(); err != nil {
			t.Fatalf("call %d after poisoning: %v", i, err)
		}
	}
	// After Close no redialing happens and calls fail.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Tables(); err == nil {
		t.Fatal("call on closed pool succeeded")
	}
}

func TestDialPoolRejectsBadSize(t *testing.T) {
	if _, err := DialPool("127.0.0.1:1", 0); err == nil {
		t.Fatal("pool of size 0 accepted")
	}
}

// TestRequestErrorsCrossTheWire: the engine's request errors stay
// matchable with errors.Is on the client, with the provider's text intact.
func TestRequestErrorsCrossTheWire(t *testing.T) {
	_, addr := startPlainServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Schema("missing")
	if !errors.Is(err, engine.ErrNoSuchTable) || err.Error() != `engine: no such table: "missing"` {
		t.Errorf("Schema of a missing table: %v, want ErrNoSuchTable with its text", err)
	}
	if err := c.CreateTable(plainSchema("dup")); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable(plainSchema("dup")); !errors.Is(err, engine.ErrTableExists) {
		t.Errorf("second CreateTable: %v, want ErrTableExists", err)
	}
}
