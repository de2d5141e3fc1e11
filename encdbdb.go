// Package encdbdb is a searchable encrypted, fast, compressed, in-memory
// column store using (simulated) enclaves — a faithful reimplementation of
// "EncDBDB: Searchable Encrypted, Fast, Compressed, In-Memory Database
// using Enclaves" (Fuhry, Jayanth Jain, Kerschbaum; DSN 2021).
//
// EncDBDB protects each database column with one of nine encrypted
// dictionaries (ED1–ED9) spanning two security dimensions: the repetition
// option bounds frequency leakage (revealing / smoothing / hiding), the
// order option bounds order leakage (sorted / rotated / unsorted). Range
// queries run in two phases: a dictionary search executed inside a trusted
// enclave over PAE-encrypted dictionary entries, and a plaintext attribute
// vector scan in the untrusted engine. See docs/architecture.md for the
// architecture and the internal/enclave package for how this reproduction
// stands in for Intel SGX hardware.
//
// # Roles
//
//   - Database: the untrusted provider — engine plus enclave (Open).
//   - DataOwner: holds the master key SK_DB, attests and provisions the
//     enclave, prepares encrypted columns (NewDataOwner).
//   - Session: the trusted proxy — parses SQL, encrypts query ranges,
//     decrypts results (DataOwner.Session).
//
// # Quickstart
//
//	db, _ := encdbdb.Open()
//	owner, _ := encdbdb.NewDataOwner()
//	_ = owner.Provision(db)
//	sess, _ := owner.Session(db)
//	ctx := context.Background()
//	_, _ = sess.ExecContext(ctx, "CREATE TABLE t1 (fname ED5(30) BSMAX 10)")
//	_, _ = sess.ExecContext(ctx, "INSERT INTO t1 VALUES (?)", "Jessica")
//	rows, _ := sess.Query(ctx, "SELECT fname FROM t1 WHERE fname >= ? AND fname < ?", "A", "K")
//	defer rows.Close()
//	for rows.Next() { ... }
//
// The query surface follows database/sql: every data-plane call takes a
// context that is honored end-to-end (the engine checks it between scan
// chunks; remote providers are told to stop over the wire), '?'
// placeholders bind arguments that are encrypted exactly like inline
// literals, Session.Prepare amortizes parsing and schema resolution across
// repeated executions, and Query streams decrypted rows through a *Rows
// cursor instead of materializing the result.
//
// Runnable programs live under examples/ and cmd/.
package encdbdb

import (
	"time"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/pae"
	"github.com/encdbdb/encdbdb/internal/proxy"
	"github.com/encdbdb/encdbdb/internal/search"
	"github.com/encdbdb/encdbdb/internal/wire"
)

// Kind identifies one of the nine encrypted dictionaries (paper Table 2).
type Kind = dict.Kind

// The nine encrypted dictionaries: rows are the repetition options
// (frequency revealing / smoothing / hiding), columns the order options
// (sorted / rotated / unsorted).
const (
	ED1 = dict.ED1 // revealing, sorted:  fastest, full leakage
	ED2 = dict.ED2 // revealing, rotated
	ED3 = dict.ED3 // revealing, unsorted
	ED4 = dict.ED4 // smoothing, sorted
	ED5 = dict.ED5 // smoothing, rotated: the paper's recommended tradeoff
	ED6 = dict.ED6 // smoothing, unsorted
	ED7 = dict.ED7 // hiding, sorted
	ED8 = dict.ED8 // hiding, rotated
	ED9 = dict.ED9 // hiding, unsorted:   strongest, slowest
)

// ColumnDef declares one column of a table schema.
type ColumnDef = engine.ColumnDef

// Schema declares a table.
type Schema = engine.Schema

// Key is a 128-bit master database key (SK_DB).
type Key = pae.Key

// GenerateKey creates a fresh random master key.
func GenerateKey() (Key, error) { return pae.Gen() }

// Result is a decrypted query result.
type Result = proxy.Result

// Rows is a streaming cursor over a SELECT result: rows are decrypted as
// they are consumed instead of materializing the whole result. It follows
// database/sql's Next/Scan/Err/Close shape and adds Iter, a Go 1.23
// range-over-func adapter.
type Rows = proxy.Rows

// Stmt is a prepared statement: parsed once, schema resolved once, executed
// many times with per-execution '?' arguments.
type Stmt = proxy.Stmt

// ResultKind tells callers how to interpret a Result.
type ResultKind = proxy.ResultKind

// Result kinds.
const (
	KindRows     = proxy.KindRows
	KindCount    = proxy.KindCount
	KindAffected = proxy.KindAffected
	KindOK       = proxy.KindOK
)

// Range is a plaintext search range (for the programmatic query API).
type Range = search.Range

// Client is a connection to a remote EncDBDB provider. It is multiplexed:
// concurrent calls share the connection without serializing round trips.
type Client = wire.Client

// Pool is a fixed-size set of multiplexed connections to one remote
// provider, for callers that want more than one TCP stream.
type Pool = wire.Pool

// Executor is the provider-side surface a Session drives. The embedded
// engine, *Client, and *Pool all implement it.
type Executor = proxy.Executor

// ClientOption configures Dial and DialPool.
type ClientOption = wire.ClientOption

// WithBusyRetry retries calls rejected with a server-busy error up to n
// more times with exponential backoff starting at base (safe for all
// operations: the server sheds load before executing anything).
func WithBusyRetry(n int, base time.Duration) ClientOption { return wire.WithBusyRetry(n, base) }

// Dial connects to a remote provider started with Database.Serve or the
// encdbdb-server command.
func Dial(addr string, opts ...ClientOption) (*Client, error) { return wire.Dial(addr, opts...) }

// DialPool opens size connections to a remote provider.
func DialPool(addr string, size int, opts ...ClientOption) (*Pool, error) {
	return wire.DialPool(addr, size, opts...)
}

// AccessObserver receives every untrusted-memory access the enclave
// performs — the view of an honest-but-curious provider (paper §3.2). Pass
// one via Options.Observer to inspect what your column choices leak.
type AccessObserver = enclave.AccessObserver

// EnclaveStats are the enclave's boundary counters.
type EnclaveStats = enclave.Stats
