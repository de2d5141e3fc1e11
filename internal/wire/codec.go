package wire

import (
	"bytes"
	"errors"
	"slices"

	"github.com/encdbdb/encdbdb/internal/codec"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/engine"
)

// Every message travels in package codec's primitives, and on decode
// without copies: byte fields alias the frame payload. A frame payload
// opens with a codec tag byte, which has exactly one valid value
// (codecBin); a frame carrying any other tag is corrupt. Schemas and rows
// take engine's layouts. A schema digest is the one fixed-width integer
// (BE64): a query's, inside its query fields, and a write's (opInsert,
// opUpdate, opDelete), right after the presence bitmask, 0 for an
// unchecked write. Envelope fields that are zero are omitted behind a
// presence bitmask (a uvarint; a set bit this build does not know makes
// the frame corrupt).

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

// --- encoding ---

func (req *request) encode(e *codec.Encoder) {
	e.Byte(byte(req.Op))
	e.Str(req.Table)
	e.Str(req.Column)
	e.Uvarint(req.Cancel)
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
	e.Uvarint(flags)
	if req.Op.write() {
		e.BE64(req.Digest)
	}
	if flags&reqHasQuery != 0 {
		encQuery(e, &req.Query)
	}
	if flags&reqHasRows != 0 {
		engine.EncodeRows(e, req.Rows)
	}
	if flags&reqHasFilters != 0 {
		encFilters(e, req.Filters)
	}
	if flags&reqHasSet != 0 {
		engine.EncodeRow(e, req.Set)
	}
	if flags&reqHasSchema != 0 {
		req.Schema.Encode(e)
	}
	if flags&reqHasNonce != 0 {
		e.Bytes(req.Nonce)
	}
	if flags&reqHasSealed != 0 {
		e.Bytes(req.Sealed.OwnerPublicKey)
		e.Bytes(req.Sealed.Ciphertext)
	}
	if flags&reqHasSplit != 0 {
		e.Bytes(req.Split)
	}
}

func encQuery(e *codec.Encoder, q *engine.Query) {
	e.Str(q.Table)
	encFilters(e, q.Filters)
	e.Uvarint(uint64(len(q.Project)))
	for _, p := range q.Project {
		e.Str(p)
	}
	e.Bool(q.CountOnly)
	e.Uvarint(uint64(q.Limit))
	e.BE64(q.SchemaDigest)
}

func encFilters(e *codec.Encoder, fs []engine.Filter) {
	e.Uvarint(uint64(len(fs)))
	for i := range fs {
		e.Str(fs[i].Column)
		e.Uvarint(uint64(len(fs[i].Ranges)))
		for j := range fs[i].Ranges {
			r := &fs[i].Ranges[j]
			e.Bytes(r.Start)
			e.Bytes(r.End)
			var incl byte
			if r.StartIncl {
				incl |= 1
			}
			if r.EndIncl {
				incl |= 2
			}
			e.Byte(incl)
		}
	}
}

func (resp *response) encode(e *codec.Encoder) {
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
	e.Uvarint(flags)
	e.Uvarint(uint64(resp.N))
	if flags&respHasErr != 0 {
		e.Str(resp.Err)
	}
	if flags&respHasSchema != 0 {
		resp.Schema.Encode(e)
	}
	if flags&respHasResult != 0 {
		encResult(e, resp.Result)
	}
	if flags&respHasTables != 0 {
		e.Uvarint(uint64(len(resp.Tables)))
		for _, t := range resp.Tables {
			e.Str(t)
		}
	}
	if flags&respHasMerge != 0 {
		encMerge(e, &resp.Merge)
	}
	if flags&respHasQuote != 0 {
		for _, b := range resp.Quote.Measurement {
			e.Byte(b)
		}
		e.Bytes(resp.Quote.PublicKey)
		e.Bytes(resp.Quote.Nonce)
		e.Bytes(resp.Quote.MAC)
	}
}

func encResult(e *codec.Encoder, res *engine.Result) {
	e.Uvarint(uint64(res.Count))
	e.Uvarint(uint64(len(res.RecordIDs)))
	for _, rid := range res.RecordIDs {
		e.Uvarint(uint64(rid))
	}
	e.Uvarint(uint64(len(res.Columns)))
	for i := range res.Columns {
		c := &res.Columns[i]
		e.Str(c.Table)
		e.Str(c.Column)
		e.Uvarint(uint64(len(c.Cells)))
		for _, cell := range c.Cells {
			e.Bytes(cell)
		}
	}
}

func encMerge(e *codec.Encoder, m *engine.MergeInfo) {
	e.Uvarint(m.Generation)
	e.Bool(m.Merging)
	e.Uvarint(uint64(m.MainRows))
	e.Uvarint(uint64(m.DeltaRows))
	e.Uvarint(uint64(m.DeltaBytes))
	e.Uvarint(uint64(m.SealedRuns))
	e.Uvarint(m.Merges)
	e.Str(m.LastError)
}

// --- decoding ---

// errCorruptFrame reports a frame body that does not parse — truncated,
// trailing garbage, an unknown presence bit, or lengths pointing past the
// end.
var errCorruptFrame = errors.New("wire: corrupt binary frame")

// decodeRequest decodes one frame payload into a request drawn from the
// request pool. The request aliases payload: the caller must keep the frame
// buffer alive until the request completes, then release both via
// releaseRequest.
func decodeRequest(payload []byte, in *codec.Intern) (*request, error) {
	if len(payload) == 0 || payload[0] != codecBin {
		return nil, errCorruptFrame
	}
	req := reqPool.Get().(*request)
	d := codec.Reader{Intern: in}
	d.Reset(payload[1:])
	decRequest(&d, req)
	if d.Err() != nil {
		resetRequest(req)
		reqPool.Put(req)
		return nil, errCorruptFrame
	}
	return req, nil
}

// decRequest decodes a binary request body into req, reusing req's
// capacity (filter and range slices, row maps) from previous decodes.
// Identifier strings are interned in d.Intern; byte values alias the
// payload d was reset with — except the sealed key, which is copied out because the
// provider keeps it. The column split's bytes alias the payload too:
// dict.DecodeSplit copies them into a split of their own before the frame
// is released.
func decRequest(d *codec.Reader, req *request) {
	req.Op = op(d.Byte())
	req.Table = d.Name()
	req.Column = d.Name()
	req.Cancel = d.Uvarint()
	flags := d.Flags(reqKnownBits)
	if req.Op.write() {
		req.Digest = d.BE64()
	}
	if flags&reqHasQuery != 0 {
		decQuery(d, &req.Query)
	}
	if flags&reqHasRows != 0 {
		req.Rows = engine.DecodeRows(d, req.Rows)
	}
	if flags&reqHasFilters != 0 {
		req.Filters = decFilters(d, req.Filters)
	}
	if flags&reqHasSet != 0 {
		req.Set = engine.DecodeRow(d, req.Set)
	}
	if flags&reqHasSchema != 0 {
		req.Schema.Decode(d)
	}
	if flags&reqHasNonce != 0 {
		req.Nonce = d.Bytes()
	}
	if flags&reqHasSealed != 0 {
		req.Sealed.OwnerPublicKey = bytes.Clone(d.Bytes())
		req.Sealed.Ciphertext = bytes.Clone(d.Bytes())
	}
	if flags&reqHasSplit != 0 {
		req.Split = d.Bytes()
	}
}

func decQuery(d *codec.Reader, q *engine.Query) {
	q.Table = d.Name()
	q.Filters = decFilters(d, q.Filters)
	n := d.Length()
	q.Project = slices.Grow(q.Project[:0], n)[:n]
	for i := range q.Project {
		q.Project[i] = d.Name()
	}
	q.CountOnly = d.Bool()
	q.Limit = int(d.Uvarint())
	q.SchemaDigest = d.BE64()
}

func decFilters(d *codec.Reader, fs []engine.Filter) []engine.Filter {
	n := d.Length()
	fs = slices.Grow(fs[:0], n)[:n]
	for i := range fs {
		fs[i].Column = d.Name()
		m := d.Length()
		rs := slices.Grow(fs[i].Ranges[:0], m)[:m]
		for j := range rs {
			rs[j].Start = d.Bytes()
			rs[j].End = d.Bytes()
			incl := d.Byte()
			rs[j].StartIncl = incl&1 != 0
			rs[j].EndIncl = incl&2 != 0
		}
		fs[i].Ranges = rs
	}
	return fs
}

// decodeResponse decodes one frame payload into a fresh response; see
// decResponse for aliases.
func decodeResponse(payload []byte) (resp *response, aliases bool, err error) {
	if len(payload) == 0 || payload[0] != codecBin {
		return nil, false, errCorruptFrame
	}
	var d codec.Reader
	d.Reset(payload[1:])
	resp = new(response)
	aliases = decResponse(&d, resp)
	if d.Err() != nil {
		return nil, false, errCorruptFrame
	}
	return resp, aliases, nil
}

// decResponse decodes a binary response body into resp (assumed zero).
// Result cells and quote fields alias the payload; aliases reports whether
// any such alias was created, so the caller knows whether the frame buffer
// must outlive the response.
func decResponse(d *codec.Reader, resp *response) (aliases bool) {
	flags := d.Flags(respKnownBits)
	resp.N = int(d.Uvarint())
	if flags&respHasErr != 0 {
		resp.Err = d.Str()
	}
	if flags&respHasSchema != 0 {
		resp.Schema.Decode(d)
	}
	if flags&respHasResult != 0 {
		resp.Result = decResult(d)
		aliases = true
	}
	if flags&respHasTables != 0 {
		n := d.Length()
		resp.Tables = make([]string, n)
		for i := range resp.Tables {
			resp.Tables[i] = d.Str()
		}
	}
	if flags&respHasMerge != 0 {
		decMerge(d, &resp.Merge)
	}
	resp.More = flags&respMore != 0
	if flags&respHasQuote != 0 {
		for i := range resp.Quote.Measurement {
			resp.Quote.Measurement[i] = d.Byte()
		}
		resp.Quote.PublicKey = d.Bytes()
		resp.Quote.Nonce = d.Bytes()
		resp.Quote.MAC = d.Bytes()
		aliases = true
	}
	return aliases
}

func decResult(d *codec.Reader) *engine.Result {
	res := &engine.Result{Count: int(d.Uvarint())}
	if n := d.Length(); n > 0 {
		res.RecordIDs = make([]uint32, n)
		for i := range res.RecordIDs {
			res.RecordIDs[i] = uint32(d.Uvarint())
		}
	}
	if n := d.Length(); n > 0 {
		res.Columns = make([]engine.ResultColumn, n)
		for i := range res.Columns {
			c := &res.Columns[i]
			c.Table = d.Str()
			c.Column = d.Str()
			if m := d.Length(); m > 0 {
				c.Cells = make([][]byte, m)
				for j := range c.Cells {
					c.Cells[j] = d.Bytes()
				}
			}
		}
	}
	return res
}

func decMerge(d *codec.Reader, m *engine.MergeInfo) {
	m.Generation = d.Uvarint()
	m.Merging = d.Bool()
	m.MainRows = int(d.Uvarint())
	m.DeltaRows = int(d.Uvarint())
	m.DeltaBytes = int(d.Uvarint())
	m.SealedRuns = int(d.Uvarint())
	m.Merges = d.Uvarint()
	m.LastError = d.Str()
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
