package wire

import (
	"net"
	"time"

	"github.com/encdbdb/encdbdb/internal/bufpool"
	"github.com/encdbdb/encdbdb/internal/metrics"
)

// metricName returns the stable label value identifying an op in the wire
// metric families. Unknown ops (a newer peer, a corrupted frame) collapse
// into one label so a hostile client cannot grow label cardinality.
func (o op) metricName() string {
	switch o {
	case opQuote:
		return "quote"
	case opProvision:
		return "provision"
	case opSchema:
		return "schema"
	case opCreateTable:
		return "create_table"
	case opDropTable:
		return "drop_table"
	case opSelect:
		return "select"
	case opInsert:
		return "insert"
	case opDelete:
		return "delete"
	case opUpdate:
		return "update"
	case opMerge:
		return "merge"
	case opImportColumn:
		return "import_column"
	case opTables:
		return "tables"
	case opRows:
		return "rows"
	case opStorageBytes:
		return "storage_bytes"
	case opMergeAsync:
		return "merge_async"
	case opMergeStatus:
		return "merge_status"
	case opCancel:
		return "cancel"
	}
	return "unknown"
}

// serverMetrics is the wire server's instrumentation: request/error counts
// and latency per op, admission-control outcomes, connection and byte
// totals. All per-op children are resolved once at construction, so the
// request path pays only atomic adds. A nil *serverMetrics is valid and
// makes every method a no-op — servers without WithMetrics skip even the
// time.Now calls.
type serverMetrics struct {
	connsTotal  *metrics.Counter
	connsActive *metrics.Gauge
	inflight    *metrics.Gauge
	rejected    *metrics.Counter
	rateLimited *metrics.Counter
	timeouts    *metrics.Counter
	bytesIn     *metrics.Counter
	bytesOut    *metrics.Counter

	// indexed by op (0 = unknown/out of range)
	reqByOp [opCancel + 2]*metrics.Counter
	errByOp [opCancel + 2]*metrics.Counter
	latByOp [opCancel + 2]*metrics.Histogram
}

// newServerMetrics registers the wire families on reg.
func newServerMetrics(reg *metrics.Registry) *serverMetrics {
	m := &serverMetrics{
		connsTotal:  reg.NewCounter("encdbdb_wire_connections_total", "Connections accepted since start."),
		connsActive: reg.NewGauge("encdbdb_wire_connections_active", "Currently open connections."),
		inflight:    reg.NewGauge("encdbdb_wire_inflight_requests", "Admitted requests not yet answered (queued + executing)."),
		rejected:    reg.NewCounter("encdbdb_wire_rejected_total", "Requests shed with ErrServerBusy because the dispatch queue was full."),
		rateLimited: reg.NewCounter("encdbdb_wire_rate_limited_total", "Requests shed with ErrRateLimited because the connection exceeded its request budget."),
		timeouts:    reg.NewCounter("encdbdb_wire_request_timeouts_total", "Requests that exceeded the per-request deadline."),
		bytesIn:     reg.NewCounter("encdbdb_wire_read_bytes_total", "Bytes read from client connections."),
		bytesOut:    reg.NewCounter("encdbdb_wire_written_bytes_total", "Bytes written to client connections."),
	}
	reqs := reg.NewCounterVec("encdbdb_wire_requests_total", "Requests served, by op (excludes shed requests).", "op")
	errs := reg.NewCounterVec("encdbdb_wire_request_errors_total", "Requests answered with an error, by op.", "op")
	lat := reg.NewHistogramVec("encdbdb_wire_request_seconds", "Request latency from decode to response, by op.", metrics.DefBuckets, "op")
	for o := op(0); o <= opCancel+1; o++ {
		name := o.metricName()
		m.reqByOp[m.idx(o)] = reqs.With(name)
		m.errByOp[m.idx(o)] = errs.With(name)
		m.latByOp[m.idx(o)] = lat.With(name)
	}
	registerBufpoolMetrics(reg)
	return m
}

// registerBufpoolMetrics exposes the process-wide frame-buffer pool's health
// on reg, sampled at scrape time. A drifting gets/puts gap means buffers are
// being retained (by design for simple-call results, a leak otherwise); a
// high miss rate means the working set outruns the per-class free lists.
func registerBufpoolMetrics(reg *metrics.Registry) {
	p := bufpool.Default
	reg.NewCounterFunc("encdbdb_wire_bufpool_gets_total",
		"Frame buffers checked out of the wire buffer pool.",
		func() uint64 { return p.Stats().Gets })
	reg.NewCounterFunc("encdbdb_wire_bufpool_puts_total",
		"Frame buffers returned to the wire buffer pool.",
		func() uint64 { return p.Stats().Puts })
	reg.NewCounterFunc("encdbdb_wire_bufpool_misses_total",
		"Pool checkouts that had to allocate (empty free list or oversized request).",
		func() uint64 { return p.Stats().Misses })
	reg.NewGaugeFunc("encdbdb_wire_bufpool_retained_bytes",
		"Total capacity currently parked on the pool's free lists.",
		func() float64 { return float64(p.Stats().RetainedBytes) })
}

// idx maps an op to its resolved-metric slot; anything out of range shares
// the "unknown" slot (opCancel+1 maps there too, giving the loop above a
// natural endpoint).
func (m *serverMetrics) idx(o op) int {
	if o >= 1 && o <= opCancel {
		return int(o)
	}
	return 0
}

// request records one served request: count, error count, and latency since
// arrived.
func (m *serverMetrics) request(o op, arrived time.Time, errored bool) {
	if m == nil {
		return
	}
	i := m.idx(o)
	m.reqByOp[i].Inc()
	if errored {
		m.errByOp[i].Inc()
	}
	m.latByOp[i].Observe(time.Since(arrived).Seconds())
}

// now returns the arrival timestamp for latency measurement, skipping the
// clock read entirely when metrics are off.
func (m *serverMetrics) now() time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}

func (m *serverMetrics) connOpened() {
	if m == nil {
		return
	}
	m.connsTotal.Inc()
	m.connsActive.Inc()
}

func (m *serverMetrics) connClosed() {
	if m == nil {
		return
	}
	m.connsActive.Dec()
}

func (m *serverMetrics) rejectedInc() {
	if m == nil {
		return
	}
	m.rejected.Inc()
}

func (m *serverMetrics) rateLimitedInc() {
	if m == nil {
		return
	}
	m.rateLimited.Inc()
}

func (m *serverMetrics) timeoutInc() {
	if m == nil {
		return
	}
	m.timeouts.Inc()
}

func (m *serverMetrics) inflightAdd(d int64) {
	if m == nil {
		return
	}
	m.inflight.Add(d)
}

// wrap instruments a connection with the byte counters; with metrics off it
// returns conn unchanged.
func (m *serverMetrics) wrap(conn net.Conn) net.Conn {
	if m == nil {
		return conn
	}
	return &countingConn{Conn: conn, in: m.bytesIn, out: m.bytesOut}
}

// countingConn counts the bytes crossing a connection. Deadline and Close
// calls pass through to the embedded net.Conn, so the server's drain logic
// works identically on wrapped connections.
type countingConn struct {
	net.Conn
	in, out *metrics.Counter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.in.Add(uint64(n))
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.out.Add(uint64(n))
	}
	return n, err
}
