package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/engine"
)

// Every message travels in one hand-rolled binary codec: no reflection, no
// type descriptors, and on decode no copies — byte fields alias the frame
// payload. A frame payload opens with a codec tag byte, which has exactly
// one valid value (codecBin); a frame carrying any other tag is corrupt.
//
// Binary primitives: unsigned varints for all integers and lengths,
// single bytes for tags and bools, length-prefixed bytes with a +1 nil
// bias (0 encodes a nil slice, n+1 a slice of n bytes), and
// length-prefixed UTF-8 for strings. Envelope fields that are zero are
// omitted behind a presence bitmask (a uvarint; a set bit this build does
// not know makes the frame corrupt).
//
// The same encoding functions run twice per message — once against a
// counting sink to learn the frame length, once against the connection's
// buffered writer — so the frame header never needs a scratch buffer copy
// and the two passes cannot disagree without being detected (the writer
// checks the byte count it produced against the announced length).

// codecBin is the codec tag, the first payload byte of every frame.
const codecBin = 0x01

// Request presence bits. The control-op payloads sit above the data-plane
// bits, so a data-plane frame's mask still fits one byte.
const (
	reqHasQuery = 1 << iota
	reqHasRows
	reqHasFilters
	reqHasSet
	reqHasSchema
	reqHasNonce
	reqHasSealed
	reqHasSplit
	reqKnownBits = 1<<iota - 1
)

// Response presence bits.
const (
	respHasErr = 1 << iota
	respHasSchema
	respHasResult
	respHasTables
	respHasMerge
	respMore
	respHasQuote
	respKnownBits = 1<<iota - 1
)

// binSink is the write half of the binary codec. The encode functions are
// written once against this interface and run against both implementations:
// binCounter sizes a message, binWriter emits it.
type binSink interface {
	byte(b byte)
	uvarint(v uint64)
	bytes(b []byte)
	str(s string)
}

// binCounter sizes a message without writing anything.
type binCounter struct {
	n int
}

func (c *binCounter) reset()    { c.n = 0 }
func (c *binCounter) byte(byte) { c.n++ }
func (c *binCounter) uvarint(v uint64) {
	c.n++
	for v >= 0x80 {
		c.n++
		v >>= 7
	}
}
func (c *binCounter) bytes(b []byte) {
	if b == nil {
		c.n++
		return
	}
	c.uvarint(uint64(len(b)) + 1)
	c.n += len(b)
}
func (c *binCounter) str(s string) {
	c.uvarint(uint64(len(s)))
	c.n += len(s)
}

// binWriter emits a message into a bufio.Writer, counting what it writes.
// Write errors are sticky and surface once at the end via err().
type binWriter struct {
	bw      *bufio.Writer
	n       int
	failed  error
	scratch [binary.MaxVarintLen64]byte
}

func (w *binWriter) reset(bw *bufio.Writer) {
	w.bw = bw
	w.n = 0
	w.failed = nil
}

func (w *binWriter) err() error { return w.failed }

func (w *binWriter) byte(b byte) {
	if w.failed != nil {
		return
	}
	if err := w.bw.WriteByte(b); err != nil {
		w.failed = err
		return
	}
	w.n++
}

func (w *binWriter) uvarint(v uint64) {
	if w.failed != nil {
		return
	}
	n := binary.PutUvarint(w.scratch[:], v)
	m, err := w.bw.Write(w.scratch[:n])
	w.n += m
	if err != nil {
		w.failed = err
	}
}

func (w *binWriter) bytes(b []byte) {
	if b == nil {
		w.byte(0)
		return
	}
	w.uvarint(uint64(len(b)) + 1)
	if w.failed != nil {
		return
	}
	m, err := w.bw.Write(b)
	w.n += m
	if err != nil {
		w.failed = err
	}
}

func (w *binWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	if w.failed != nil {
		return
	}
	m, err := w.bw.WriteString(s)
	w.n += m
	if err != nil {
		w.failed = err
	}
}

// boolByte encodes a bool as one byte.
func boolByte(s binSink, v bool) {
	if v {
		s.byte(1)
	} else {
		s.byte(0)
	}
}

// --- encoding ---

func (req *request) encode(s binSink) {
	s.byte(byte(req.Op))
	s.str(req.Table)
	s.str(req.Column)
	s.uvarint(req.Cancel)
	var flags uint64
	if req.Query.Table != "" || len(req.Query.Filters) > 0 || len(req.Query.Project) > 0 ||
		req.Query.CountOnly || req.Query.Limit != 0 {
		flags |= reqHasQuery
	}
	if len(req.Rows) > 0 {
		flags |= reqHasRows
	}
	if len(req.Filters) > 0 {
		flags |= reqHasFilters
	}
	if len(req.Set) > 0 {
		flags |= reqHasSet
	}
	if req.Schema.Table != "" || len(req.Schema.Columns) > 0 {
		flags |= reqHasSchema
	}
	if req.Nonce != nil {
		flags |= reqHasNonce
	}
	if req.Sealed.OwnerPublicKey != nil || req.Sealed.Ciphertext != nil {
		flags |= reqHasSealed
	}
	if req.Split != nil {
		flags |= reqHasSplit
	}
	s.uvarint(flags)
	if flags&reqHasQuery != 0 {
		encQuery(s, &req.Query)
	}
	if flags&reqHasRows != 0 {
		s.uvarint(uint64(len(req.Rows)))
		for _, row := range req.Rows {
			encRow(s, row)
		}
	}
	if flags&reqHasFilters != 0 {
		encFilters(s, req.Filters)
	}
	if flags&reqHasSet != 0 {
		encRow(s, req.Set)
	}
	if flags&reqHasSchema != 0 {
		encSchema(s, &req.Schema)
	}
	if flags&reqHasNonce != 0 {
		s.bytes(req.Nonce)
	}
	if flags&reqHasSealed != 0 {
		s.bytes(req.Sealed.OwnerPublicKey)
		s.bytes(req.Sealed.Ciphertext)
	}
	if flags&reqHasSplit != 0 {
		s.bytes(req.Split)
	}
}

func encQuery(s binSink, q *engine.Query) {
	s.str(q.Table)
	encFilters(s, q.Filters)
	s.uvarint(uint64(len(q.Project)))
	for _, p := range q.Project {
		s.str(p)
	}
	boolByte(s, q.CountOnly)
	s.uvarint(uint64(q.Limit))
}

func encFilters(s binSink, fs []engine.Filter) {
	s.uvarint(uint64(len(fs)))
	for i := range fs {
		s.str(fs[i].Column)
		s.uvarint(uint64(len(fs[i].Ranges)))
		for j := range fs[i].Ranges {
			r := &fs[i].Ranges[j]
			s.bytes(r.Start)
			s.bytes(r.End)
			var incl byte
			if r.StartIncl {
				incl |= 1
			}
			if r.EndIncl {
				incl |= 2
			}
			s.byte(incl)
		}
	}
}

func encRow(s binSink, row engine.Row) {
	s.uvarint(uint64(len(row)))
	for name, val := range row {
		s.str(name)
		s.bytes(val)
	}
}

func encSchema(s binSink, sc *engine.Schema) {
	s.str(sc.Table)
	s.uvarint(uint64(len(sc.Columns)))
	for i := range sc.Columns {
		c := &sc.Columns[i]
		s.str(c.Name)
		s.uvarint(uint64(c.Kind))
		s.uvarint(uint64(c.MaxLen))
		s.uvarint(uint64(c.BSMax))
		boolByte(s, c.Plain)
	}
}

func (resp *response) encode(s binSink) {
	var flags uint64
	if resp.Err != "" {
		flags |= respHasErr
	}
	if resp.Schema.Table != "" || len(resp.Schema.Columns) > 0 {
		flags |= respHasSchema
	}
	if resp.Result != nil {
		flags |= respHasResult
	}
	if len(resp.Tables) > 0 {
		flags |= respHasTables
	}
	if resp.Merge != (engine.MergeInfo{}) {
		flags |= respHasMerge
	}
	if resp.More {
		flags |= respMore
	}
	if q := &resp.Quote; q.Measurement != (enclave.Measurement{}) || q.PublicKey != nil || q.Nonce != nil || q.MAC != nil {
		flags |= respHasQuote
	}
	s.uvarint(flags)
	s.uvarint(uint64(resp.N))
	if flags&respHasErr != 0 {
		s.str(resp.Err)
	}
	if flags&respHasSchema != 0 {
		encSchema(s, &resp.Schema)
	}
	if flags&respHasResult != 0 {
		encResult(s, resp.Result)
	}
	if flags&respHasTables != 0 {
		s.uvarint(uint64(len(resp.Tables)))
		for _, t := range resp.Tables {
			s.str(t)
		}
	}
	if flags&respHasMerge != 0 {
		encMerge(s, &resp.Merge)
	}
	if flags&respHasQuote != 0 {
		for _, b := range resp.Quote.Measurement {
			s.byte(b)
		}
		s.bytes(resp.Quote.PublicKey)
		s.bytes(resp.Quote.Nonce)
		s.bytes(resp.Quote.MAC)
	}
}

func encResult(s binSink, res *engine.Result) {
	s.uvarint(uint64(res.Count))
	s.uvarint(uint64(len(res.RecordIDs)))
	for _, rid := range res.RecordIDs {
		s.uvarint(uint64(rid))
	}
	s.uvarint(uint64(len(res.Columns)))
	for i := range res.Columns {
		c := &res.Columns[i]
		s.str(c.Table)
		s.str(c.Column)
		s.uvarint(uint64(len(c.Cells)))
		for _, cell := range c.Cells {
			s.bytes(cell)
		}
	}
}

func encMerge(s binSink, m *engine.MergeInfo) {
	s.uvarint(m.Generation)
	boolByte(s, m.Merging)
	s.uvarint(uint64(m.MainRows))
	s.uvarint(uint64(m.DeltaRows))
	s.uvarint(uint64(m.DeltaBytes))
	s.uvarint(uint64(m.SealedRuns))
	s.uvarint(m.Merges)
	s.str(m.LastError)
}

// --- decoding ---

// errCorruptFrame reports a frame body that does not parse — truncated,
// trailing garbage, an unknown presence bit, or lengths pointing past the
// end.
var errCorruptFrame = errors.New("wire: corrupt binary frame")

// binReader decodes the binary codec from one frame payload. Errors are
// sticky: after the first malformed read every accessor returns zero values
// and err() reports the failure, so decode functions need no per-field
// checks. Bytes fields alias the payload — see the ownership rules in
// docs/wire-protocol.md.
type binReader struct {
	buf    []byte
	pos    int
	failed error
}

func (d *binReader) reset(buf []byte) {
	d.buf = buf
	d.pos = 0
	d.failed = nil
}

func (d *binReader) fail() {
	if d.failed == nil {
		d.failed = errCorruptFrame
	}
}

// err reports the first decode failure, including trailing bytes after a
// complete message (frame and message boundaries must coincide).
func (d *binReader) err() error {
	if d.failed == nil && d.pos != len(d.buf) {
		return errCorruptFrame
	}
	return d.failed
}

func (d *binReader) byte() byte {
	if d.failed != nil || d.pos >= len(d.buf) {
		d.fail()
		return 0
	}
	b := d.buf[d.pos]
	d.pos++
	return b
}

func (d *binReader) uvarint() uint64 {
	if d.failed != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.pos += n
	return v
}

// length reads a count that the remaining payload must be able to satisfy
// at at least one byte per element — the bound that keeps a hostile length
// prefix from driving a huge allocation.
func (d *binReader) length() int {
	v := d.uvarint()
	if d.failed != nil || v > uint64(len(d.buf)-d.pos) {
		d.fail()
		return 0
	}
	return int(v)
}

// bytes returns the next length-prefixed byte field, aliasing the payload.
func (d *binReader) bytes() []byte {
	v := d.uvarint()
	if d.failed != nil {
		return nil
	}
	if v == 0 {
		return nil
	}
	n := int(v - 1)
	if v > uint64(len(d.buf)-d.pos)+1 {
		d.fail()
		return nil
	}
	b := d.buf[d.pos : d.pos+n : d.pos+n]
	d.pos += n
	return b
}

// strBytes returns the raw bytes of the next string field, aliasing the
// payload; callers intern or copy it.
func (d *binReader) strBytes() []byte {
	n := d.length()
	if d.failed != nil {
		return nil
	}
	b := d.buf[d.pos : d.pos+n : d.pos+n]
	d.pos += n
	return b
}

func (d *binReader) str() string { return string(d.strBytes()) }

// flags reads a presence bitmask, failing on any bit outside known.
func (d *binReader) flags(known uint64) uint64 {
	v := d.uvarint()
	if v&^known != 0 {
		d.fail()
		return 0
	}
	return v
}

func (d *binReader) bool() bool { return d.byte() != 0 }

// intern caches the small, recurring identifier strings of a connection —
// table, column, and projection names — so steady-state decoding allocates
// no strings. The cache is bounded: a peer inventing unbounded identifiers
// pays its own allocations instead of growing ours.
type intern struct {
	m map[string]string
}

const internLimit = 1024

func (in *intern) get(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if in.m == nil {
		in.m = make(map[string]string, 16)
	}
	if s, ok := in.m[string(b)]; ok { // no alloc: compiler-optimized lookup
		return s
	}
	s := string(b)
	if len(in.m) < internLimit {
		in.m[s] = s
	}
	return s
}

// decodeRequest decodes one frame payload into a request drawn from the
// request pool. The request aliases payload: the caller must keep the frame
// buffer alive until the request completes, then release both via
// releaseRequest.
func decodeRequest(payload []byte, in *intern) (*request, error) {
	if len(payload) == 0 || payload[0] != codecBin {
		return nil, errCorruptFrame
	}
	req := reqPool.Get().(*request)
	var d binReader
	d.reset(payload[1:])
	decRequest(&d, req, in)
	if err := d.err(); err != nil {
		resetRequest(req)
		reqPool.Put(req)
		return nil, err
	}
	return req, nil
}

// decRequest decodes a binary request body into req, reusing req's
// capacity (filter and range slices, row maps) from previous decodes.
// Identifier strings are interned in in; byte values alias the payload d
// was reset with — except the sealed key, which is copied out because the
// provider keeps it. The column split's bytes alias the payload too:
// dict.DecodeSplit copies them into a split of their own before the frame
// is released.
func decRequest(d *binReader, req *request, in *intern) {
	req.Op = op(d.byte())
	req.Table = in.get(d.strBytes())
	req.Column = in.get(d.strBytes())
	req.Cancel = d.uvarint()
	flags := d.flags(reqKnownBits)
	if flags&reqHasQuery != 0 {
		decQuery(d, &req.Query, in)
	}
	if flags&reqHasRows != 0 {
		req.Rows = decRows(d, req.Rows, in)
	}
	if flags&reqHasFilters != 0 {
		req.Filters = decFilters(d, req.Filters, in)
	}
	if flags&reqHasSet != 0 {
		req.Set = decRow(d, req.Set, in)
	}
	if flags&reqHasSchema != 0 {
		decSchema(d, &req.Schema, in)
	}
	if flags&reqHasNonce != 0 {
		req.Nonce = d.bytes()
	}
	if flags&reqHasSealed != 0 {
		req.Sealed.OwnerPublicKey = bytes.Clone(d.bytes())
		req.Sealed.Ciphertext = bytes.Clone(d.bytes())
	}
	if flags&reqHasSplit != 0 {
		req.Split = d.bytes()
	}
}

func decQuery(d *binReader, q *engine.Query, in *intern) {
	q.Table = in.get(d.strBytes())
	q.Filters = decFilters(d, q.Filters, in)
	n := d.length()
	if cap(q.Project) >= n {
		q.Project = q.Project[:n]
	} else {
		q.Project = make([]string, n)
	}
	for i := range q.Project {
		q.Project[i] = in.get(d.strBytes())
	}
	q.CountOnly = d.bool()
	q.Limit = int(d.uvarint())
}

func decFilters(d *binReader, fs []engine.Filter, in *intern) []engine.Filter {
	n := d.length()
	if cap(fs) >= n {
		fs = fs[:n]
	} else {
		fs = make([]engine.Filter, n)
	}
	for i := range fs {
		fs[i].Column = in.get(d.strBytes())
		m := d.length()
		rs := fs[i].Ranges
		if cap(rs) >= m {
			rs = rs[:m]
		} else {
			rs = make([]enclave.EncRange, m)
		}
		for j := range rs {
			rs[j].Start = d.bytes()
			rs[j].End = d.bytes()
			incl := d.byte()
			rs[j].StartIncl = incl&1 != 0
			rs[j].EndIncl = incl&2 != 0
		}
		fs[i].Ranges = rs
	}
	return fs
}

// decRows decodes an insert's rows into rows' backing array, reusing the
// maps an earlier decode left there (resetRequest cleared them).
func decRows(d *binReader, rows []engine.Row, in *intern) []engine.Row {
	n := d.length()
	if cap(rows) < n {
		rows = append(rows[:cap(rows)], make([]engine.Row, n-cap(rows))...)
	}
	rows = rows[:n]
	for i := range rows {
		rows[i] = decRow(d, rows[i], in)
	}
	return rows
}

func decRow(d *binReader, row engine.Row, in *intern) engine.Row {
	n := d.length()
	if row == nil {
		row = make(engine.Row, n)
	} else {
		clear(row)
	}
	for i := 0; i < n; i++ {
		name := in.get(d.strBytes())
		row[name] = d.bytes()
	}
	return row
}

func decSchema(d *binReader, sc *engine.Schema, in *intern) {
	sc.Table = in.get(d.strBytes())
	n := d.length()
	if cap(sc.Columns) >= n {
		sc.Columns = sc.Columns[:n]
	} else {
		sc.Columns = make([]engine.ColumnDef, n)
	}
	for i := range sc.Columns {
		c := &sc.Columns[i]
		c.Name = in.get(d.strBytes())
		c.Kind = dict.Kind(d.uvarint())
		c.MaxLen = int(d.uvarint())
		c.BSMax = int(d.uvarint())
		c.Plain = d.bool()
	}
}

// decodeResponse decodes one frame payload into a fresh response; see
// decResponse for aliases.
func decodeResponse(payload []byte) (resp *response, aliases bool, err error) {
	if len(payload) == 0 || payload[0] != codecBin {
		return nil, false, errCorruptFrame
	}
	var d binReader
	d.reset(payload[1:])
	resp = new(response)
	aliases = decResponse(&d, resp)
	return resp, aliases, d.err()
}

// decResponse decodes a binary response body into resp (assumed zero).
// Result cells and quote fields alias the payload; aliases reports whether
// any such alias was created, so the caller knows whether the frame buffer
// must outlive the response.
func decResponse(d *binReader, resp *response) (aliases bool) {
	flags := d.flags(respKnownBits)
	resp.N = int(d.uvarint())
	if flags&respHasErr != 0 {
		resp.Err = d.str()
	}
	if flags&respHasSchema != 0 {
		var in intern
		decSchema(d, &resp.Schema, &in)
	}
	if flags&respHasResult != 0 {
		resp.Result = decResult(d)
		aliases = true
	}
	if flags&respHasTables != 0 {
		n := d.length()
		resp.Tables = make([]string, n)
		for i := range resp.Tables {
			resp.Tables[i] = d.str()
		}
	}
	if flags&respHasMerge != 0 {
		decMerge(d, &resp.Merge)
	}
	resp.More = flags&respMore != 0
	if flags&respHasQuote != 0 {
		for i := range resp.Quote.Measurement {
			resp.Quote.Measurement[i] = d.byte()
		}
		resp.Quote.PublicKey = d.bytes()
		resp.Quote.Nonce = d.bytes()
		resp.Quote.MAC = d.bytes()
		aliases = true
	}
	return aliases
}

func decResult(d *binReader) *engine.Result {
	res := &engine.Result{Count: int(d.uvarint())}
	if n := d.length(); n > 0 {
		res.RecordIDs = make([]uint32, n)
		for i := range res.RecordIDs {
			res.RecordIDs[i] = uint32(d.uvarint())
		}
	}
	if n := d.length(); n > 0 {
		res.Columns = make([]engine.ResultColumn, n)
		for i := range res.Columns {
			c := &res.Columns[i]
			c.Table = d.str()
			c.Column = d.str()
			if m := d.length(); m > 0 {
				c.Cells = make([][]byte, m)
				for j := range c.Cells {
					c.Cells[j] = d.bytes()
				}
			}
		}
	}
	return res
}

func decMerge(d *binReader, m *engine.MergeInfo) {
	m.Generation = d.uvarint()
	m.Merging = d.bool()
	m.MainRows = int(d.uvarint())
	m.DeltaRows = int(d.uvarint())
	m.DeltaBytes = int(d.uvarint())
	m.SealedRuns = int(d.uvarint())
	m.Merges = d.uvarint()
	m.LastError = d.str()
}

// resetRequest clears a request for pooled reuse, keeping the capacity of
// its slices and maps. Byte fields that aliased a released frame payload
// are dropped; identifier strings are interned and safe to drop lazily.
func resetRequest(req *request) {
	req.Op = 0
	req.Table = ""
	req.Column = ""
	req.Cancel = 0
	req.Nonce = nil
	req.Sealed = enclave.SealedKey{}
	req.Split = nil
	req.Schema.Table = ""
	req.Schema.Columns = req.Schema.Columns[:0]
	req.Query.Table = ""
	req.Query.Filters = req.Query.Filters[:0]
	req.Query.Project = req.Query.Project[:0]
	req.Query.CountOnly = false
	req.Query.Limit = 0
	for _, row := range req.Rows {
		clear(row)
	}
	req.Rows = req.Rows[:0]
	if req.Set != nil {
		clear(req.Set)
	}
	req.Filters = req.Filters[:0]
}

// resetResponse clears a response for pooled reuse.
func resetResponse(resp *response) {
	resp.Err = ""
	resp.Quote = enclave.Quote{}
	resp.Schema.Table = ""
	resp.Schema.Columns = resp.Schema.Columns[:0]
	resp.Result = nil
	resp.N = 0
	resp.Tables = nil
	resp.Merge = engine.MergeInfo{}
	resp.More = false
}
