package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/encdbdb/encdbdb/internal/bufpool"
	"github.com/encdbdb/encdbdb/internal/codec"
	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/metrics"
)

// defaultConnWorkers is the default per-connection dispatch concurrency.
const defaultConnWorkers = 16

// queuedPerWorker scales the default per-connection bound on decoded-but-
// not-yet-finished requests: connWorkers*queuedPerWorker outstanding
// requests are admitted before further requests are shed with
// ErrServerBusy. Large enough to absorb bursts, small enough to bound the
// memory a peer that never reads responses can pin; WithQueueDepth
// overrides it.
const queuedPerWorker = 64

// serverHelloTimeout bounds how long an accepted connection may take to
// send its hello; it is the client's helloTimeout, a variable so tests can
// shorten it.
var serverHelloTimeout = helloTimeout

// serverFrameTimeout bounds each wait for more bytes of a frame whose first
// byte has arrived: a peer that stops sending mid-frame is dropped instead of
// holding a reader and a frame buffer forever. A variable so tests can
// shorten it. Waiting for a frame's first byte has no deadline.
var serverFrameTimeout = 30 * time.Second

// defaultDrainTimeout bounds Close's graceful drain: in-flight requests get
// this long to finish and write their responses before connections are
// force-closed.
const defaultDrainTimeout = 10 * time.Second

// ErrServerBusy is the admission-control rejection: the connection's
// dispatch queue is full (every WithConnWorkers worker is executing and
// WithQueueDepth requests are already waiting), so the server sheds the
// request immediately instead of queueing it unboundedly. It crosses the
// wire as a typed sentinel — clients get errors.Is(err, ErrServerBusy) ==
// true and should back off and retry; no server-side work was started.
var ErrServerBusy = errors.New("wire: server busy")

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithConnWorkers bounds how many requests of one connection may execute
// concurrently (default 16): the connection starts up to n worker goroutines
// on demand, and they live as long as it does. Values below 1 mean
// sequential dispatch.
func WithConnWorkers(n int) ServerOption {
	return func(s *Server) {
		if n < 1 {
			n = 1
		}
		s.connWorkers = n
	}
}

// WithQueueDepth bounds how many admitted requests may be outstanding
// (queued + executing) per connection before new requests are shed with
// ErrServerBusy (default connWorkers x 64). The bound is what
// turns saturation into fast, typed rejections instead of unbounded
// queueing: clients see ErrServerBusy in microseconds rather than timing
// out behind a queue that can only grow.
func WithQueueDepth(n int) ServerOption {
	return func(s *Server) {
		if n < 1 {
			n = 1
		}
		s.queueDepth = n
	}
}

// WithRequestTimeout attaches a deadline to every dispatched request,
// measured from the moment the request is decoded — queue wait counts, so a
// request stuck behind a saturated worker pool fails fast once its budget
// is spent. Exceeding the deadline surfaces as context.DeadlineExceeded at
// the client (the sentinel is rehydrated across the wire). Zero (the
// default) means no deadline.
func WithRequestTimeout(d time.Duration) ServerOption {
	return func(s *Server) {
		s.reqTimeout = d
	}
}

// WithDrainTimeout bounds how long Close waits for in-flight requests to
// finish before force-closing connections (default 10s).
func WithDrainTimeout(d time.Duration) ServerOption {
	return func(s *Server) {
		if d > 0 {
			s.drainTimeout = d
		}
	}
}

// WithMetrics registers the wire server's metric families (request counts,
// per-op latency histograms, admission-control outcomes, connection and
// byte totals — see docs/metrics.md) on reg and records into them. Without
// it the server runs with zero instrumentation overhead.
func WithMetrics(reg *metrics.Registry) ServerOption {
	return func(s *Server) {
		s.metrics = newServerMetrics(reg)
	}
}

// Server hosts an engine.DB behind the wire protocol — the untrusted DBaaS
// provider process of paper Fig. 2, including the enclave ECALL endpoints
// (quote, provision) the data owner needs for setup.
//
// Each accepted connection must open with the protocol hello (see
// helloMagic); after it every decoded request is handed to one of the
// connection's worker goroutines (at most WithConnWorkers, started on
// demand) and responses are written under a per-connection write lock, out
// of order.
//
// The server applies admission control per connection: at most
// WithQueueDepth requests may be outstanding (shed beyond that with
// ErrServerBusy), and WithRequestTimeout attaches a deadline to each
// dispatched request. Close drains gracefully — accepted requests finish
// and their responses are delivered before connections close.
type Server struct {
	db           *engine.DB
	logf         func(format string, args ...any)
	connWorkers  int
	queueDepth   int
	reqTimeout   time.Duration
	drainTimeout time.Duration
	connRate     float64 // requests/second per connection (0 = unlimited)
	metrics      *serverMetrics

	// dispatchHook, when non-nil, runs at the start of every request's
	// execution (after admission, before dispatch). Tests use it to park
	// workers and saturate the dispatch queue deterministically.
	dispatchHook func(req *request)
	// workerHook, when non-nil, runs each time a connection starts a
	// worker. Tests count worker starts with it.
	workerHook func()

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer wraps a database. logf receives connection-level diagnostics;
// nil discards them.
func NewServer(db *engine.DB, logf func(format string, args ...any), opts ...ServerOption) *Server {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Server{
		db:           db,
		logf:         logf,
		connWorkers:  defaultConnWorkers,
		drainTimeout: defaultDrainTimeout,
		conns:        make(map[net.Conn]struct{}),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.queueDepth == 0 {
		s.queueDepth = s.connWorkers * queuedPerWorker
	}
	return s
}

// Serve accepts connections on ln until Close. It blocks.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("wire: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting and drains gracefully: every connection's read loop
// is interrupted (so no further requests are admitted), but requests
// already accepted keep executing and their responses are written before
// the connections close — a client whose request was admitted gets its
// answer, not a reset. Requests still running after WithDrainTimeout are
// abandoned by force-closing their connections.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		// A read deadline in the past unblocks the connection's read loop
		// without disturbing response writes in flight.
		c.SetReadDeadline(time.Now()) //nolint:errcheck // best-effort wakeup; drain timeout backstops
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(s.drainTimeout):
		// Drain overran its budget (a wedged scan, a peer not reading its
		// responses): force-close so the stuck writers fail fast.
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	return err
}

// serveConn checks the peer's hello, which must arrive within
// serverHelloTimeout, and runs the connection's read loop: decode frames on
// this goroutine and hand each request to a worker (see muxConn). Responses
// go out under the connection write lock in completion order. Before
// returning — peer drop or server Close — it waits until the workers have
// run every admitted request and exited. With metrics enabled the
// connection is wrapped so reads and writes feed the byte counters.
//
// Every dispatched request runs under its own context, registered in the
// connection's inflight set: an opCancel frame cancels the named request's
// context mid-scan, and tearing the connection down cancels them all.
func (s *Server) serveConn(raw net.Conn) {
	defer raw.Close()
	s.metrics.connOpened()
	defer s.metrics.connClosed()
	conn := s.metrics.wrap(raw)
	fd := &frameDeadline{s: s, raw: raw, r: conn}
	br := bufio.NewReader(fd)
	// A peer that connects and stays silent would otherwise hold this
	// goroutine and its reader forever.
	if !s.setReadDeadline(raw, time.Now().Add(serverHelloTimeout)) {
		return
	}
	if err := readHello(br); err != nil {
		if errors.Is(err, ErrUnsupportedVersion) {
			// Answer with this build's hello so a peer able to read it
			// reports the mismatch too; nothing it sent after its own hello
			// is parsed.
			writeHello(conn) //nolint:errcheck // closing the connection anyway
			s.logf("wire: refused %s: %v", conn.RemoteAddr(), err)
		}
		return
	}
	if err := writeHello(conn); err != nil || !s.setReadDeadline(raw, time.Time{}) {
		return
	}
	connCtx, connCancel := context.WithCancel(context.Background())
	defer connCancel()
	mc := &muxConn{
		conn:     conn,
		mw:       newMuxWriter(conn),
		ctx:      connCtx,
		queueSem: make(chan struct{}, s.queueDepth),
		bucket:   s.bucket(),
		work:     make(chan task, s.queueDepth),
	}
	defer func() {
		close(mc.work)
		mc.wg.Wait()
	}()
	// Each frame lands in its own pooled buffer; the request decodes out of
	// the request pool and aliases that buffer, so both recycle together
	// when the request completes. The intern cache keeps the connection's
	// recurring identifiers (table and column names) from allocating a
	// string per frame.
	var in codec.Intern
	fr := frameReader{r: br}
	for {
		id, buf, err := fd.readFrame(br, &fr)
		var req *request
		if err == nil {
			if req, err = decodeRequest(buf.B, &in); err != nil {
				bufpool.Put(buf)
			}
		}
		if err != nil {
			// EOF, broken connection, oversized or corrupt frame: nothing
			// after it can be trusted, so drop the connection.
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("wire: bad request stream from %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		if !s.handleMux(mc, id, req, buf) {
			return
		}
	}
}

// setReadDeadline sets conn's read deadline unless Close has begun, in which
// case it leaves the wake-up deadline Close set and reports false: the
// connection is to be dropped, and a later deadline would keep it waiting.
func (s *Server) setReadDeadline(conn net.Conn, t time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed && conn.SetReadDeadline(t) == nil
}

// frameBuffered reports whether br already holds a whole frame: its header
// and the payload length the header names.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < headerLen {
		return false
	}
	hdr, _ := br.Peek(headerLen) // buffered, so Peek cannot block or fail
	return br.Buffered()-headerLen >= int(binary.BigEndian.Uint32(hdr))
}

// frameDeadline is the reader under a connection's bufio.Reader. While armed
// — a frame has begun but is not yet wholly read — every read first moves
// the read deadline serverFrameTimeout ahead, so a frame that keeps arriving
// is never cut off, while a peer that stalls mid-frame is. Deadlines go
// through Server.setReadDeadline, so Close's wake-up deadline is never
// undone.
type frameDeadline struct {
	s     *Server
	raw   net.Conn // deadlines are set on the raw connection
	r     io.Reader
	armed bool
	set   bool // a deadline is in force and must be cleared at disarm
}

func (fd *frameDeadline) Read(p []byte) (int, error) {
	if fd.armed {
		if !fd.s.setReadDeadline(fd.raw, time.Now().Add(serverFrameTimeout)) {
			return 0, net.ErrClosed
		}
		fd.set = true
	}
	return fd.r.Read(p)
}

// readFrame reads the next frame from br, which reads from fd. An idle
// connection waits for a frame's first byte with no deadline; a frame not
// yet wholly buffered then arms fd until it is read, and a frame already in
// the buffer costs no deadline call. Once Close has begun, clearing the
// deadline is refused, and the next read fails on the deadline Close set.
func (fd *frameDeadline) readFrame(br *bufio.Reader, fr *frameReader) (uint64, *bufpool.Buf, error) {
	if _, err := br.Peek(1); err != nil {
		return 0, nil, err
	}
	fd.armed = !frameBuffered(br)
	id, buf, err := fr.readPooled()
	fd.armed = false
	if fd.set {
		fd.set = false
		fd.s.setReadDeadline(fd.raw, time.Time{})
	}
	return id, buf, err
}

// requestContext derives one dispatched request's context: the per-request
// deadline (WithRequestTimeout) starts counting when the request is
// decoded, so time spent waiting for a free worker is charged against it.
func (s *Server) requestContext(parent context.Context) (context.Context, context.CancelFunc) {
	if s.reqTimeout > 0 {
		return context.WithTimeout(parent, s.reqTimeout)
	}
	return context.WithCancel(parent)
}

// recordResponse feeds one finished request into the metric families,
// counting deadline expiries separately so operators can tell shed load
// (busy) from slow load (timeouts).
func (s *Server) recordResponse(o op, arrived time.Time, resp *response) {
	if s.metrics == nil {
		return
	}
	if resp.Err == context.DeadlineExceeded.Error() {
		s.metrics.timeoutInc()
	}
	s.metrics.request(o, arrived, resp.Err != "")
}

// inflightSet tracks the cancel functions of a connection's dispatched
// requests so an opCancel frame can reach into a running scan.
type inflightSet struct {
	mu sync.Mutex
	m  map[uint64]context.CancelFunc
}

// add registers a request's cancel function under its ID.
func (in *inflightSet) add(id uint64, cancel context.CancelFunc) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.m == nil {
		in.m = make(map[uint64]context.CancelFunc)
	}
	in.m[id] = cancel
}

// remove drops a finished request.
func (in *inflightSet) remove(id uint64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.m, id)
}

// cancel fires the cancel function registered under id, if any. Cancellation
// is advisory, so an unknown ID (already finished, never dispatched) is fine.
func (in *inflightSet) cancel(id uint64) {
	in.mu.Lock()
	fn := in.m[id]
	in.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// reqPool and respPool recycle request/response envelopes on the hot
// dispatch paths. Invariant: every pooled object is reset (resetRequest /
// resetResponse) before Put, so Get hands out zeroed envelopes that still
// carry the slice and map capacity of earlier traffic.
var (
	reqPool  = sync.Pool{New: func() any { return new(request) }}
	respPool = sync.Pool{New: func() any { return new(response) }}
)

// releaseRequest recycles one completed request: the envelope goes back to
// reqPool and the frame buffer it aliased to the frame pool. Callers must
// not touch req or buf afterwards.
func releaseRequest(req *request, buf *bufpool.Buf) {
	resetRequest(req)
	reqPool.Put(req)
	bufpool.Put(buf)
}

// muxConn bundles the shared state of one connection: the write half, the
// cancellation registry, the admission bound and the workers.
//
// queueSem caps how many decoded requests are queued or executing and is
// left when execution ends, before the reply is written — so a client that
// has read reply N is never shed because of request N. Admission never
// waits: the read loop keeps draining frames while all workers are busy,
// which is what lets an opCancel frame reach a saturated connection instead
// of queuing behind the requests it is trying to interrupt.
//
// Workers execute the admitted requests; the number of workers is the
// execution bound (WithConnWorkers). They start on demand, take requests
// from the work channel, and exit once the read loop has ended and the
// channel is drained. Every request in the channel holds a queueSem slot,
// so sending on a channel of the queue depth never waits. A worker counts
// itself idle when a request's execution is over, before it writes the
// reply, and the read loop claims an idle worker for each request it
// queues; with none idle it starts a new worker while fewer than
// connWorkers run. A closed-loop client's next request then finds the
// worker idle, and the connection runs on one warm goroutine.
type muxConn struct {
	conn     net.Conn
	mw       *muxWriter
	ctx      context.Context
	inflight inflightSet
	queueSem chan struct{}
	bucket   *tokenBucket // nil without WithConnRate

	work chan task // admitted requests; closed when the read loop ends
	// idle counts workers that will next receive from work and have not
	// been claimed for a queued request. Workers only add to it and the
	// read loop only takes from it. Requests queued with every worker
	// running claim none, so idle over-counts after that — harmless, as no
	// further worker can start.
	idle    atomic.Int64
	workers int // read loop only
	wg      sync.WaitGroup
}

// task is one admitted request on its way to a worker. req aliases buf;
// ctx is the request's context, cancelled by cancel once it is answered.
type task struct {
	id      uint64
	req     *request
	buf     *bufpool.Buf
	ctx     context.Context
	cancel  context.CancelFunc
	arrived time.Time
}

// place hands an admitted request to a worker: a new one if none is idle
// and fewer than connWorkers run, else through the work channel — to an
// idle worker if one is, else to the first worker to finish.
func (s *Server) place(mc *muxConn, t task) {
	if mc.idle.Load() == 0 && mc.workers < s.connWorkers {
		mc.workers++
		if s.workerHook != nil {
			s.workerHook()
		}
		mc.wg.Add(1)
		go s.worker(mc, t)
		return
	}
	if mc.idle.Load() > 0 {
		mc.idle.Add(-1)
	}
	mc.work <- t
}

// worker runs requests of one connection, starting with t, until the read
// loop has ended and the work channel is drained.
func (s *Server) worker(mc *muxConn, t task) {
	defer mc.wg.Done()
	s.run(mc, t)
	for t := range mc.work {
		s.run(mc, t)
	}
}

// run executes one request and writes its response.
func (s *Server) run(mc *muxConn, t task) {
	defer func() {
		mc.inflight.remove(t.id)
		t.cancel()
		s.metrics.inflightAdd(-1)
		// The response (and any stream chunks) went out inside
		// serveRequest, so nothing references the request or its frame
		// buffer anymore.
		releaseRequest(t.req, t.buf)
	}()
	if s.dispatchHook != nil {
		s.dispatchHook(t.req)
	}
	if err := s.serveRequest(mc, t); err != nil {
		// Whether the connection died or the response stream broke
		// (encode failure, oversized response), no further response can
		// be delivered on it. Close so the peer's read loop fails its
		// pending calls instead of hanging on a half-dead connection that
		// still reads fine.
		s.logf("wire: send response: %v", err)
		mc.conn.Close()
	}
}

// sendPooledResponse sends a short administrative response (cancel ack,
// busy rejection) from the response pool.
func sendPooledResponse(mw *muxWriter, id uint64, errText string) error {
	resp := respPool.Get().(*response)
	resp.Err = errText
	err := mw.send(id, resp)
	resetResponse(resp)
	respPool.Put(resp)
	return err
}

// handleMux runs one decoded request through cancellation, admission, and
// placement with a worker. buf is the pooled frame buffer req aliases; both are
// released when the request completes. A false return means no further
// response can be delivered on this connection and the read loop must
// exit.
func (s *Server) handleMux(mc *muxConn, id uint64, req *request, buf *bufpool.Buf) bool {
	if req.Op == opCancel {
		// Handled inline, before any queue admission: cancellation must
		// not queue behind the very requests it is trying to interrupt,
		// and must work even when the queue is full.
		mc.inflight.cancel(req.Cancel)
		releaseRequest(req, buf)
		if err := sendPooledResponse(mc.mw, id, ""); err != nil {
			s.logf("wire: send response: %v", err)
			mc.conn.Close()
			return false
		}
		return true
	}
	// Rate limiting runs before queue admission: an over-budget connection
	// is told to slow down even while the queue still has room, and like the
	// busy shed the rejection costs one frame decode and one response frame.
	if mc.bucket != nil && !mc.bucket.allow(time.Now()) {
		s.metrics.rateLimitedInc()
		releaseRequest(req, buf)
		if err := sendPooledResponse(mc.mw, id, ErrRateLimited.Error()); err != nil {
			s.logf("wire: send response: %v", err)
			mc.conn.Close()
			return false
		}
		return true
	}
	arrived := s.metrics.now()
	// Admission: a full queue sheds the request immediately with a typed
	// busy error rather than blocking the read loop. Rejection happens
	// before any context or inflight registration, so a shed request
	// costs one frame decode and one response frame — nothing else.
	select {
	case mc.queueSem <- struct{}{}:
	default:
		s.metrics.rejectedInc()
		releaseRequest(req, buf)
		if err := sendPooledResponse(mc.mw, id, ErrServerBusy.Error()); err != nil {
			s.logf("wire: send response: %v", err)
			mc.conn.Close()
			return false
		}
		return true
	}
	// Register the request's context before handing it to a worker, so
	// an opCancel that races ahead of the worker's execution still
	// cancels it (the engine surfaces context.Canceled when the worker
	// eventually runs it).
	ctx, cancel := s.requestContext(mc.ctx)
	mc.inflight.add(id, cancel)
	s.metrics.inflightAdd(1)
	s.place(mc, task{id: id, req: req, buf: buf, ctx: ctx, cancel: cancel, arrived: arrived})
	return true
}

// serveRequest executes one request, records it against the metric
// families, and writes its response(s): a single frame for ordinary ops; for
// opSelect the answer's chunk frames (response.More marks all but the last),
// or one frame with Err set when the query failed — including its context
// being cancelled by opCancel. Only send failures are returned; query
// failures travel to the peer.
//
// The request leaves the admission count (mc.queueSem) here, when its
// execution is over and before its final frame is written: the peer may
// send its next request the instant it reads that frame, and must find
// neither a slot this request still holds nor a busy worker. So the worker
// counts itself idle (mc.idle) before that frame goes out too.
func (s *Server) serveRequest(mc *muxConn, t task) error {
	resp := respPool.Get().(*response)
	defer func() {
		resetResponse(resp)
		respPool.Put(resp)
	}()
	var sendErr error
	if t.req.Op == opSelect {
		sendErr = s.streamChunks(t.ctx, mc.mw, t.id, t.req, resp)
	} else {
		s.dispatch(t.ctx, t.req, resp)
	}
	<-mc.queueSem
	mc.idle.Add(1)
	if sendErr != nil {
		return sendErr
	}
	s.recordResponse(t.req.Op, t.arrived, resp)
	return mc.mw.send(t.id, resp)
}

// streamChunks sends the chunk frames of one select, reusing resp for every
// frame (each send copies it onto the wire before the next chunk overwrites
// it), and leaves the final frame in resp for serveRequest to send: the
// chunk whose rows bring the sent count to the stream's Count (an empty
// answer's one chunk has none), or a frame without a chunk when the stream
// has none (a count-only answer) or fails. The final frame carries the total
// in N with More unset, so no terminator follows. The final chunk outlives
// the stream's Close, as an engine cursor's do: closing one only drops
// references. Like dispatch, it converts a panic in the engine's lazy render
// path into an error frame instead of taking down the provider.
func (s *Server) streamChunks(ctx context.Context, mw *muxWriter, id uint64, req *request, resp *response) (sendErr error) {
	defer func() {
		if r := recover(); r != nil {
			s.logf("wire: panic handling op %d: %v", req.Op, r)
			resetResponse(resp)
			resp.Err = fmt.Sprintf("wire: internal error handling op %d", req.Op)
			sendErr = nil
		}
	}()
	st, err := s.db.SelectStream(ctx, req.Query)
	if err != nil {
		resp.Err = err.Error()
		return nil
	}
	defer st.Close()
	for sent := 0; ; {
		chunk, err := st.Next()
		if err != nil {
			resetResponse(resp)
			if resp.N = st.Count(); err != io.EOF {
				resp.Err = err.Error()
			}
			return nil
		}
		sent += chunk.Count
		resp.Result, resp.N = chunk, st.Count()
		if sent >= st.Count() {
			return nil
		}
		resp.More = true
		if err := mw.send(id, resp); err != nil {
			return err
		}
		resp.Result, resp.More = nil, false
	}
}

// dispatch executes one request against the database, filling the caller's
// (reset) response envelope. Panics in handlers are converted to error
// responses so one bad request cannot take down the provider.
func (s *Server) dispatch(ctx context.Context, req *request, resp *response) {
	defer func() {
		if r := recover(); r != nil {
			s.logf("wire: panic handling op %d: %v", req.Op, r)
			resetResponse(resp)
			resp.Err = fmt.Sprintf("wire: internal error handling op %d", req.Op)
		}
	}()
	fail := func(err error) {
		resp.Err = err.Error()
	}
	switch req.Op {
	case opQuote:
		encl := s.db.Enclave()
		if encl == nil {
			fail(errors.New("wire: provider has no enclave"))
			return
		}
		resp.Quote = encl.Quote(req.Nonce)
	case opProvision:
		if err := s.db.Provision(req.Sealed); err != nil {
			fail(err)
		}
	case opSchema:
		sc, err := s.db.Schema(req.Table)
		if err != nil {
			fail(err)
			return
		}
		resp.Schema = sc
	case opCreateTable:
		if err := s.db.CreateTable(req.Schema); err != nil {
			fail(err)
		}
	case opDropTable:
		if err := s.db.DropTable(req.Table); err != nil {
			fail(err)
		}
	case opInsert:
		if err := s.db.InsertBatch(writeCtx(ctx, req), req.Table, req.Rows); err != nil {
			fail(err)
		}
	case opDelete:
		n, err := s.db.Delete(writeCtx(ctx, req), req.Table, req.Filters)
		if err != nil {
			fail(err)
			return
		}
		resp.N = n
	case opUpdate:
		n, err := s.db.Update(writeCtx(ctx, req), req.Table, req.Filters, req.Set)
		if err != nil {
			fail(err)
			return
		}
		resp.N = n
	case opMerge:
		if err := s.db.Merge(ctx, req.Table); err != nil {
			fail(err)
		}
	case opMergeAsync:
		started, err := s.db.MergeAsync(ctx, req.Table)
		if err != nil {
			fail(err)
			return
		}
		if started {
			resp.N = 1
		}
	case opMergeStatus:
		info, err := s.db.MergeStatus(ctx, req.Table)
		if err != nil {
			fail(err)
			return
		}
		resp.Merge = info
	case opImportColumn:
		split, err := dict.DecodeSplit(req.Split)
		if err != nil {
			fail(err)
			return
		}
		if split.Rows() > importRowsPerByte*len(req.Split) {
			fail(fmt.Errorf("wire: import claims %d rows in %d bytes", split.Rows(), len(req.Split)))
			return
		}
		if err := s.db.ImportColumn(req.Table, req.Column, split); err != nil {
			fail(err)
		}
	case opTables:
		resp.Tables = s.db.Tables()
	case opRows:
		n, err := s.db.Rows(req.Table)
		if err != nil {
			fail(err)
			return
		}
		resp.N = n
	case opStorageBytes:
		n, err := s.db.StorageBytes(req.Table)
		if err != nil {
			fail(err)
			return
		}
		resp.N = n
	default:
		fail(fmt.Errorf("wire: unknown op %d", req.Op))
	}
}

// ListenAndServe is a convenience wrapper binding addr and serving until
// Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// writeCtx attaches a write request's schema digest to ctx, for the engine
// to check.
func writeCtx(ctx context.Context, req *request) context.Context {
	if req.Digest == 0 {
		return ctx
	}
	return engine.WithSchemaDigest(ctx, req.Digest)
}
