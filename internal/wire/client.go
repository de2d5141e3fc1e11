package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/encdbdb/encdbdb/internal/bufpool"
	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/engine"
)

// ErrClientClosed is returned by calls on (and pending during) Close.
var ErrClientClosed = errors.New("wire: client closed")

// helloTimeout bounds the hello exchange against unresponsive peers.
const helloTimeout = 5 * time.Second

// streamBuffer is how many result chunks a select may buffer client-side
// before the connection's demux loop blocks — the flow-control window
// between a fast server and a slow row consumer.
const streamBuffer = 32

// streamCalls recycles the delivery state of selects: the streamBuffer-slot
// channel is most of a point lookup's client-side bytes. A call returns to
// the pool only once its final frame was received: the read loop
// unregistered it before delivering that frame, so nothing sends on its
// channel again, and the channel is empty.
var streamCalls = sync.Pool{New: func() any { return make(chan callResult, streamBuffer) }}

// Client is the trusted side's connection to a remote EncDBDB provider. It
// implements proxy.Executor, so a proxy.Proxy can drive a remote database
// exactly like an embedded one, plus the attestation and bulk-load
// operations the data owner needs during setup.
//
// A Client is safe for concurrent use, and concurrent calls stay in flight
// simultaneously: each request carries a connection-unique ID, a single
// reader goroutine demuxes the out-of-order responses, and writes are
// coalesced.
//
// Data-plane calls take a context. A cancelled context sends an advisory
// opCancel for the in-flight request — the server stops its scan between
// chunks and frees the worker — and the call returns ctx.Err() immediately
// without wedging the connection (the late response is discarded when it
// arrives).
type Client struct {
	conn net.Conn

	// pending maps in-flight request IDs to the channels their callers
	// receive frames on (one slot for a simple call, streamBuffer for a
	// select); a request stays registered until its final frame (More
	// unset or Err set). failure is sticky and poisons all future calls;
	// failed is closed on the first failure so streaming consumers blocked
	// outside the pending protocol wake up.
	w       *muxWriter
	nextID  atomic.Uint64
	pmu     sync.Mutex
	pending map[uint64]chan callResult
	failure error
	failed  chan struct{}

	// Busy-retry policy (see WithBusyRetry): up to busyRetries extra
	// attempts after an ErrServerBusy, with exponential backoff starting at
	// busyBase. Zero retries (the default) surfaces ErrServerBusy directly.
	busyRetries int
	busyBase    time.Duration
}

// ClientOption configures Dial and DialPool.
type ClientOption func(*Client)

// defaultBusyBase is the first backoff step when WithBusyRetry is given a
// non-positive base.
const defaultBusyBase = 5 * time.Millisecond

// WithBusyRetry makes the client absorb transient admission-control
// rejections: a call that fails with ErrServerBusy is retried up to n more
// times, sleeping base, 2*base, 4*base, ... between attempts (honoring the
// call's context while sleeping). Retrying is safe for every operation,
// including inserts: the server sheds load at admission, before the request
// executes, so a busy rejection means nothing happened. base <= 0 uses a
// 5ms default.
func WithBusyRetry(n int, base time.Duration) ClientOption {
	return func(c *Client) {
		if n < 0 {
			n = 0
		}
		if base <= 0 {
			base = defaultBusyBase
		}
		c.busyRetries = n
		c.busyBase = base
	}
}

// busyBackoff returns the sleep before retry attempt (1-based), capping the
// exponent so absurd retry counts cannot overflow the duration.
func (c *Client) busyBackoff(attempt int) time.Duration {
	shift := attempt - 1
	if shift > 16 {
		shift = 16
	}
	return c.busyBase << shift
}

// sleepCtx waits d or until ctx is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

type callResult struct {
	resp *response
	// buf is the pooled frame buffer resp's byte fields alias (nil when
	// resp aliases nothing). Ownership travels with the result:
	// whoever consumes resp decides when the buffer returns to the pool.
	buf *bufpool.Buf
	err error
}

// Dial connects to a provider at addr and performs the hello exchange. A
// peer that does not answer with the protocol magic and this build's
// version fails the dial with ErrUnsupportedVersion.
func Dial(addr string, opts ...ClientOption) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	c := &Client{
		conn:    conn,
		w:       newMuxWriter(conn),
		pending: make(map[uint64]chan callResult),
		failed:  make(chan struct{}),
	}
	for _, o := range opts {
		o(c)
	}
	if err := c.hello(); err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: hello with %s: %w", addr, err)
	}
	go c.readLoop()
	return c, nil
}

// hello sends this build's hello and checks the server's answer.
func (c *Client) hello() error {
	if err := c.conn.SetDeadline(time.Now().Add(helloTimeout)); err != nil {
		return err
	}
	if err := writeHello(c.conn); err != nil {
		return err
	}
	if err := readHello(c.conn); err != nil {
		return err
	}
	return c.conn.SetDeadline(time.Time{})
}

// healthy reports whether the connection is still usable; failure is
// sticky.
func (c *Client) healthy() bool {
	return c.failErr() == nil
}

// Close terminates the connection. Pending calls complete with
// ErrClientClosed; none hang.
func (c *Client) Close() error {
	c.fail(ErrClientClosed)
	return nil
}

// fail poisons the client: the first failure sticks, the connection closes,
// and every pending caller is completed with err. Deliveries never block:
// simple calls have a one-slot buffer that is theirs alone, and streaming
// consumers that cannot take another message are woken through the failed
// channel instead.
func (c *Client) fail(err error) {
	c.pmu.Lock()
	first := c.failure == nil
	if first {
		c.failure = err
	}
	pending := c.pending
	c.pending = make(map[uint64]chan callResult)
	c.pmu.Unlock()
	c.conn.Close()
	if first {
		close(c.failed)
	}
	for _, pc := range pending {
		select {
		case pc <- callResult{err: err}:
		default:
		}
	}
}

// failErr returns the sticky failure ("" pre-failure returns nil).
func (c *Client) failErr() error {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return c.failure
}

// readLoop demuxes responses to their in-flight callers — the only reader
// of the connection. Streaming requests stay registered until their final
// frame (More unset or Err set) arrives. Each frame arrives in its own
// pooled buffer, and a response with byte fields aliases it, so the buffer
// travels with the response instead of being reused in place.
func (c *Client) readLoop() {
	fr := frameReader{r: bufio.NewReader(c.conn)}
	for {
		id, buf, err := fr.readPooled()
		if err != nil {
			c.fail(fmt.Errorf("wire: receive: %w", err))
			return
		}
		resp, aliases, err := decodeResponse(buf.B)
		if err != nil {
			bufpool.Put(buf)
			c.fail(fmt.Errorf("wire: receive: %w", err))
			return
		}
		if !aliases {
			// Nothing in resp points into the frame; recycle it right away.
			bufpool.Put(buf)
			buf = nil
		}
		c.deliver(id, resp, buf)
	}
}

// deliver routes one response to its in-flight caller, passing along the
// pooled buffer it aliases (nil when none). Responses for unregistered IDs
// are normal for calls abandoned by context cancellation — the late answer
// is simply discarded. (Duplicate or never-issued IDs are indistinguishable
// from that here; a corrupt stream still surfaces as decode errors.)
func (c *Client) deliver(id uint64, resp *response, buf *bufpool.Buf) {
	c.pmu.Lock()
	pc, ok := c.pending[id]
	if ok && (!resp.More || resp.Err != "") {
		delete(c.pending, id)
	}
	c.pmu.Unlock()
	if !ok {
		bufpool.Put(buf)
		return
	}
	// A slow streaming consumer exerts backpressure on the whole
	// connection; its channel's buffer bounds how far the server can run
	// ahead. Abandoned streams drain themselves or wake up through the
	// failed channel if the connection dies.
	select {
	case pc <- callResult{resp: resp, buf: buf}:
	case <-c.failed:
		bufpool.Put(buf)
	}
}

// register allocates a request ID and delivery state; a stream's comes
// from streamCalls.
func (c *Client) register(stream bool) (uint64, chan callResult, error) {
	id := c.nextID.Add(1)
	var pc chan callResult
	if stream {
		pc = streamCalls.Get().(chan callResult)
	} else {
		pc = make(chan callResult, 1)
	}
	c.pmu.Lock()
	if err := c.failure; err != nil {
		c.pmu.Unlock()
		if stream {
			streamCalls.Put(pc)
		}
		return 0, nil, err
	}
	c.pending[id] = pc
	c.pmu.Unlock()
	return id, pc, nil
}

// sendCancel fires an advisory opCancel for an in-flight request. It runs as
// its own round trip whose outcome is irrelevant: the server stops the
// target's work if it is still running.
func (c *Client) sendCancel(id uint64) {
	go func() {
		_, _ = c.call(context.Background(), &request{Op: opCancel, Cancel: id})
	}()
}

// retryBusy runs attempt, absorbing ErrServerBusy rejections per the
// WithBusyRetry policy. A busy rejection arrives as a request's first frame,
// before any work or any chunk, so retrying never re-reads partial results.
func retryBusy[T any](c *Client, ctx context.Context, attempt func() (T, error)) (T, error) {
	v, err := attempt()
	for n := 1; n <= c.busyRetries && errors.Is(err, ErrServerBusy); n++ {
		if werr := sleepCtx(ctx, c.busyBackoff(n)); werr != nil {
			var zero T
			return zero, werr
		}
		v, err = attempt()
	}
	return v, err
}

// call performs one request/response round trip, absorbing ErrServerBusy
// rejections per the WithBusyRetry policy.
func (c *Client) call(ctx context.Context, req *request) (*response, error) {
	return retryBusy(c, ctx, func() (*response, error) {
		_, _, res, err := c.start(ctx, req, false)
		return res.resp, err
	})
}

// start sends one request and waits for its first response frame; any
// number may run concurrently. The frame's pooled buffer travels with the
// result: a simple call's result keeps aliasing it and leaves it to the
// garbage collector, a stream recycles it. An error frame is returned as
// its error. A cancelled context abandons the request and returns ctx.Err().
func (c *Client) start(ctx context.Context, req *request, stream bool) (uint64, chan callResult, callResult, error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, callResult{}, err
	}
	id, pc, err := c.register(stream)
	if err != nil {
		return 0, nil, callResult{}, err
	}
	if err := c.w.send(id, req); err != nil {
		// A partial frame corrupts the stream for everyone; poison the
		// connection. fail delivers to pc unless the reader already did.
		c.fail(fmt.Errorf("wire: send: %w", err))
	}
	select {
	case res := <-pc:
		if res.err != nil {
			return 0, nil, callResult{}, res.err
		}
		if res.resp.Err != "" {
			if stream {
				streamCalls.Put(pc)
			}
			bufpool.Put(res.buf)
			return 0, nil, callResult{}, wireError(res.resp.Err)
		}
		return id, pc, res, nil
	case <-ctx.Done():
		c.abandon(id, pc)
		return 0, nil, callResult{}, ctx.Err()
	}
}

// wireError rehydrates provider-side error text, restoring the context
// sentinel errors, the load-shedding sentinels and engine.RequestErrors so
// errors.Is(err, context.Canceled), errors.Is(err, ErrServerBusy),
// errors.Is(err, ErrRateLimited) and errors.Is(err, engine.ErrSchemaChanged)
// work across the wire.
func wireError(msg string) error {
	for _, sentinel := range engine.RequestErrors {
		if rest, ok := strings.CutPrefix(msg, sentinel.Error()); ok {
			return fmt.Errorf("%w%s", sentinel, rest)
		}
	}
	switch msg {
	case context.Canceled.Error():
		return context.Canceled
	case context.DeadlineExceeded.Error():
		return context.DeadlineExceeded
	case ErrServerBusy.Error():
		return ErrServerBusy
	case ErrRateLimited.Error():
		return ErrRateLimited
	}
	return errors.New(msg)
}

// Quote requests a remote attestation quote bound to nonce (setup step 2).
func (c *Client) Quote(nonce []byte) (enclave.Quote, error) {
	resp, err := c.call(context.Background(), &request{Op: opQuote, Nonce: nonce})
	if err != nil {
		return enclave.Quote{}, err
	}
	return resp.Quote, nil
}

// Provision ships the sealed master key to the provider's enclave.
func (c *Client) Provision(sk enclave.SealedKey) error {
	_, err := c.call(context.Background(), &request{Op: opProvision, Sealed: sk})
	return err
}

// ImportColumn bulk-loads a pre-built column split (setup step 4).
func (c *Client) ImportColumn(table, column string, s *dict.Split) error {
	_, err := c.call(context.Background(), &request{Op: opImportColumn, Table: table, Column: column, Split: s.AppendBinary(nil)})
	return err
}

// Schema fetches a table schema.
func (c *Client) Schema(table string) (engine.Schema, error) {
	resp, err := c.call(context.Background(), &request{Op: opSchema, Table: table})
	if err != nil {
		return engine.Schema{}, err
	}
	return resp.Schema, nil
}

// CreateTable registers a schema at the provider.
func (c *Client) CreateTable(s engine.Schema) error {
	_, err := c.call(context.Background(), &request{Op: opCreateTable, Schema: s})
	return err
}

// DropTable removes a table at the provider.
func (c *Client) DropTable(name string) error {
	_, err := c.call(context.Background(), &request{Op: opDropTable, Table: name})
	return err
}

// Select evaluates an encrypted query remotely and collects the streamed
// answer into one Result (engine.Collect). Cancelling ctx abandons the call
// (and advises the server to stop the scan) without disturbing other traffic
// on the connection.
func (c *Client) Select(ctx context.Context, q engine.Query) (*engine.Result, error) {
	return engine.Collect(0, func() (engine.ResultStream, error) { return c.SelectStream(ctx, q) })
}

// SelectStream evaluates an encrypted query remotely and streams the result
// in chunks as the provider renders them, so the first rows arrive before
// the last are rendered and the full result never materializes on either
// side. An answer of one chunk is one frame. The returned stream must be
// closed.
func (c *Client) SelectStream(ctx context.Context, q engine.Query) (engine.ResultStream, error) {
	return retryBusy(c, ctx, func() (engine.ResultStream, error) {
		id, pc, first, err := c.start(ctx, &request{Op: opSelect, Query: q}, true)
		if err != nil {
			return nil, err
		}
		s := &clientStream{c: c, ctx: ctx, id: id, pc: pc, head: first.resp, buf: first.buf, total: first.resp.N}
		if !first.resp.More {
			streamCalls.Put(pc)
			s.pc = nil
		}
		return s, nil
	})
}

// abandon gives up on an in-flight request: it sends an advisory opCancel,
// unregisters the request and discards the frames that already arrived
// (returning their buffers to the pool); the demux loop drops the rest.
func (c *Client) abandon(id uint64, pc chan callResult) {
	c.sendCancel(id)
	c.pmu.Lock()
	delete(c.pending, id)
	c.pmu.Unlock()
	for {
		select {
		case res := <-pc:
			bufpool.Put(res.buf)
		default:
			return
		}
	}
}

// clientStream is the client half of a streamed select: chunks arrive on the
// pending channel as the demux loop delivers them; the final frame (More
// unset) carries the last chunk's rows, if any, and ends the stream.
//
// Chunk buffers recycle: each chunk's rows alias a pooled frame buffer,
// which goes back to the pool when the consumer asks for the next chunk (or
// closes the stream). A chunk returned by Next is therefore valid only
// until the next Next or Close call — exactly the contract
// engine.ResultStream documents, and how proxy.Rows consumes it.
type clientStream struct {
	c   *Client
	ctx context.Context
	id  uint64
	pc  chan callResult // nil once the final frame has arrived

	head  *response    // first frame, held back by SelectStream
	buf   *bufpool.Buf // frame buffer backing the chunk last handed out
	total int
	err   error // sticky; io.EOF once the stream is over
}

// Next returns the next chunk, or io.EOF after the final frame's rows.
func (s *clientStream) Next() (*engine.Result, error) {
	for s.err == nil {
		resp := s.head
		s.head = nil
		if resp == nil {
			// The consumer is done with the previous chunk; its frame buffer
			// can carry the next one.
			s.putBuf()
			if s.pc == nil {
				s.err = io.EOF
				break
			}
			select {
			case res := <-s.pc:
				if res.err != nil {
					return nil, s.finish(res.err)
				}
				resp = res.resp
				s.buf = res.buf
			case <-s.c.failed:
				return nil, s.finish(s.c.failErr())
			case <-s.ctx.Done():
				s.c.abandon(s.id, s.pc)
				return nil, s.finish(s.ctx.Err())
			}
			if !resp.More || resp.Err != "" {
				streamCalls.Put(s.pc)
				s.pc = nil
			}
		}
		if resp.Err != "" {
			return nil, s.finish(wireError(resp.Err))
		}
		s.total = resp.N
		if resp.Result != nil {
			return resp.Result, nil
		}
		// A frame without a chunk is a count-only answer's only frame; the
		// loop ends the stream.
	}
	return nil, s.err
}

// putBuf returns the current chunk's frame buffer to the pool.
func (s *clientStream) putBuf() {
	bufpool.Put(s.buf)
	s.buf = nil
}

// finish records a terminal error and releases the current chunk buffer.
func (s *clientStream) finish(err error) error {
	s.err = err
	s.putBuf()
	return err
}

// Count returns the total match count, known from the first frame onward.
func (s *clientStream) Count() int { return s.total }

// Close ends the stream. Once the final frame has arrived it only releases
// the last chunk's buffer; an unfinished stream is cancelled server-side and
// abandoned, so the connection stays usable for other calls.
func (s *clientStream) Close() error {
	s.head = nil
	if s.err == nil {
		if s.pc != nil {
			s.c.abandon(s.id, s.pc)
		}
		s.err = io.EOF
	}
	s.putBuf()
	return nil
}

// InsertBatch appends rows to table in one round trip: one opInsert
// carrying every row. The provider applies the batch all or nothing — a
// bad row leaves the table as it was.
func (c *Client) InsertBatch(ctx context.Context, table string, rows []engine.Row) error {
	_, err := c.call(ctx, &request{Op: opInsert, Table: table, Rows: rows, Digest: engine.SchemaDigest(ctx)})
	return err
}

// Delete invalidates matching rows.
func (c *Client) Delete(ctx context.Context, table string, filters []engine.Filter) (int, error) {
	resp, err := c.call(ctx, &request{Op: opDelete, Table: table, Filters: filters, Digest: engine.SchemaDigest(ctx)})
	if err != nil {
		return 0, err
	}
	return resp.N, nil
}

// Update rewrites matching rows.
func (c *Client) Update(ctx context.Context, table string, filters []engine.Filter, set engine.Row) (int, error) {
	resp, err := c.call(ctx, &request{Op: opUpdate, Table: table, Filters: filters, Set: set, Digest: engine.SchemaDigest(ctx)})
	if err != nil {
		return 0, err
	}
	return resp.N, nil
}

// Merge folds the delta store remotely, waiting for the merge to apply.
// The provider-side rebuild runs off-lock, so concurrent calls on this and
// other connections keep being served while the merge is in flight.
func (c *Client) Merge(ctx context.Context, table string) error {
	_, err := c.call(ctx, &request{Op: opMerge, Table: table})
	return err
}

// MergeAsync starts a background merge at the provider and returns as soon
// as it is admitted. started is false when a merge was already in flight.
func (c *Client) MergeAsync(ctx context.Context, table string) (started bool, err error) {
	resp, err := c.call(ctx, &request{Op: opMergeAsync, Table: table})
	if err != nil {
		return false, err
	}
	return resp.N == 1, nil
}

// MergeStatus reports the remote table's delta/merge lifecycle state —
// how clients observe a background merge they triggered.
func (c *Client) MergeStatus(ctx context.Context, table string) (engine.MergeInfo, error) {
	resp, err := c.call(ctx, &request{Op: opMergeStatus, Table: table})
	if err != nil {
		return engine.MergeInfo{}, err
	}
	return resp.Merge, nil
}

// Tables lists remote tables.
func (c *Client) Tables() ([]string, error) {
	resp, err := c.call(context.Background(), &request{Op: opTables})
	if err != nil {
		return nil, err
	}
	return resp.Tables, nil
}

// Rows returns a remote table's total row count.
func (c *Client) Rows(table string) (int, error) {
	resp, err := c.call(context.Background(), &request{Op: opRows, Table: table})
	if err != nil {
		return 0, err
	}
	return resp.N, nil
}

// StorageBytes returns a remote table's storage footprint.
func (c *Client) StorageBytes(table string) (int, error) {
	resp, err := c.call(context.Background(), &request{Op: opStorageBytes, Table: table})
	if err != nil {
		return 0, err
	}
	return resp.N, nil
}
