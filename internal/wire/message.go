package wire

import (
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/engine"
)

// request is the single wire request envelope. Only the fields relevant for
// Op are populated; zero fields cost nothing on the wire (see codec.go).
type request struct {
	Op     op
	Table  string
	Column string

	Nonce   []byte
	Sealed  enclave.SealedKey
	Schema  engine.Schema
	Query   engine.Query
	Filters []engine.Filter
	Set     engine.Row
	// Split is an opImportColumn's column split in dict's binary layout
	// (dict.Split.AppendBinary).
	Split []byte

	// Rows carries an opInsert's rows, all into Table; the provider applies
	// them all or none.
	Rows []engine.Row

	// Digest is a write's schema digest (engine.WithSchemaDigest), 0 when
	// unchecked; only opInsert, opUpdate and opDelete carry it.
	Digest uint64

	// Cancel names the in-flight request ID an opCancel targets.
	Cancel uint64
}

// response is the single wire response envelope. Err is the provider-side
// error text ("" means success).
type response struct {
	Err    string
	Quote  enclave.Quote
	Schema engine.Schema
	Result *engine.Result
	N      int
	Tables []string
	Merge  engine.MergeInfo

	// More marks a non-final chunk of an opSelect answer: the peer keeps
	// reading frames for the same request ID until a frame with More unset
	// (the final chunk, or a count-only answer's only frame) or Err set
	// arrives.
	More bool
}
