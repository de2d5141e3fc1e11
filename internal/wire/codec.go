package wire

import (
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
// Binary primitives: unsigned varints for integers and lengths, except a
// schema digest, which is a hash and takes a fixed 8 bytes (big-endian): a
// query's, inside its query fields, and a write's (opInsert, opUpdate,
// opDelete), right after the presence bitmask, 0 for an unchecked write; single bytes for tags and bools, length-prefixed bytes
// with a +1 nil bias (0 encodes a nil slice, n+1 a slice of n bytes), and
// length-prefixed UTF-8 for strings. Envelope fields that are zero are
// omitted behind a presence bitmask (a uvarint; a set bit this build does
// not know makes the frame corrupt).

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

// encoder appends the binary codec to a byte slice: a message is encoded
// once, into a scratch buffer, and the finished frame is written whole.
type encoder struct {
	b []byte
}

func (e *encoder) byte(b byte)      { e.b = append(e.b, b) }
func (e *encoder) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *encoder) u64(v uint64)     { e.b = binary.BigEndian.AppendUint64(e.b, v) }

func (e *encoder) bytes(b []byte) {
	if b == nil {
		e.b = append(e.b, 0)
		return
	}
	e.uvarint(uint64(len(b)) + 1)
	e.b = append(e.b, b...)
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// bool encodes a bool as one byte.
func (e *encoder) bool(v bool) {
	if v {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

// --- encoding ---

func (req *request) encode(e *encoder) {
	e.byte(byte(req.Op))
	e.str(req.Table)
	e.str(req.Column)
	e.uvarint(req.Cancel)
	var flags uint64
	if req.Query.Table != "" || len(req.Query.Filters) > 0 || len(req.Query.Project) > 0 ||
		req.Query.CountOnly || req.Query.Limit != 0 || req.Query.SchemaDigest != 0 {
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
	e.uvarint(flags)
	if req.Op.write() {
		e.u64(req.Digest)
	}
	if flags&reqHasQuery != 0 {
		encQuery(e, &req.Query)
	}
	if flags&reqHasRows != 0 {
		e.uvarint(uint64(len(req.Rows)))
		for _, row := range req.Rows {
			encRow(e, row)
		}
	}
	if flags&reqHasFilters != 0 {
		encFilters(e, req.Filters)
	}
	if flags&reqHasSet != 0 {
		encRow(e, req.Set)
	}
	if flags&reqHasSchema != 0 {
		encSchema(e, &req.Schema)
	}
	if flags&reqHasNonce != 0 {
		e.bytes(req.Nonce)
	}
	if flags&reqHasSealed != 0 {
		e.bytes(req.Sealed.OwnerPublicKey)
		e.bytes(req.Sealed.Ciphertext)
	}
	if flags&reqHasSplit != 0 {
		e.bytes(req.Split)
	}
}

func encQuery(e *encoder, q *engine.Query) {
	e.str(q.Table)
	encFilters(e, q.Filters)
	e.uvarint(uint64(len(q.Project)))
	for _, p := range q.Project {
		e.str(p)
	}
	e.bool(q.CountOnly)
	e.uvarint(uint64(q.Limit))
	e.u64(q.SchemaDigest)
}

func encFilters(e *encoder, fs []engine.Filter) {
	e.uvarint(uint64(len(fs)))
	for i := range fs {
		e.str(fs[i].Column)
		e.uvarint(uint64(len(fs[i].Ranges)))
		for j := range fs[i].Ranges {
			r := &fs[i].Ranges[j]
			e.bytes(r.Start)
			e.bytes(r.End)
			var incl byte
			if r.StartIncl {
				incl |= 1
			}
			if r.EndIncl {
				incl |= 2
			}
			e.byte(incl)
		}
	}
}

func encRow(e *encoder, row engine.Row) {
	e.uvarint(uint64(len(row)))
	for name, val := range row {
		e.str(name)
		e.bytes(val)
	}
}

func encSchema(e *encoder, sc *engine.Schema) {
	e.str(sc.Table)
	e.uvarint(uint64(len(sc.Columns)))
	for i := range sc.Columns {
		c := &sc.Columns[i]
		e.str(c.Name)
		e.uvarint(uint64(c.Kind))
		e.uvarint(uint64(c.MaxLen))
		e.uvarint(uint64(c.BSMax))
		e.bool(c.Plain)
	}
}

func (resp *response) encode(e *encoder) {
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
	e.uvarint(flags)
	e.uvarint(uint64(resp.N))
	if flags&respHasErr != 0 {
		e.str(resp.Err)
	}
	if flags&respHasSchema != 0 {
		encSchema(e, &resp.Schema)
	}
	if flags&respHasResult != 0 {
		encResult(e, resp.Result)
	}
	if flags&respHasTables != 0 {
		e.uvarint(uint64(len(resp.Tables)))
		for _, t := range resp.Tables {
			e.str(t)
		}
	}
	if flags&respHasMerge != 0 {
		encMerge(e, &resp.Merge)
	}
	if flags&respHasQuote != 0 {
		for _, b := range resp.Quote.Measurement {
			e.byte(b)
		}
		e.bytes(resp.Quote.PublicKey)
		e.bytes(resp.Quote.Nonce)
		e.bytes(resp.Quote.MAC)
	}
}

func encResult(e *encoder, res *engine.Result) {
	e.uvarint(uint64(res.Count))
	e.uvarint(uint64(len(res.RecordIDs)))
	for _, rid := range res.RecordIDs {
		e.uvarint(uint64(rid))
	}
	e.uvarint(uint64(len(res.Columns)))
	for i := range res.Columns {
		c := &res.Columns[i]
		e.str(c.Table)
		e.str(c.Column)
		e.uvarint(uint64(len(c.Cells)))
		for _, cell := range c.Cells {
			e.bytes(cell)
		}
	}
}

func encMerge(e *encoder, m *engine.MergeInfo) {
	e.uvarint(m.Generation)
	e.bool(m.Merging)
	e.uvarint(uint64(m.MainRows))
	e.uvarint(uint64(m.DeltaRows))
	e.uvarint(uint64(m.DeltaBytes))
	e.uvarint(uint64(m.SealedRuns))
	e.uvarint(m.Merges)
	e.str(m.LastError)
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

func (d *binReader) u64() uint64 {
	if d.failed != nil || len(d.buf)-d.pos < 8 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.pos:])
	d.pos += 8
	return v
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
	if req.Op.write() {
		req.Digest = d.u64()
	}
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
	q.SchemaDigest = d.u64()
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
	req.Digest = 0
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
	req.Query.SchemaDigest = 0
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
