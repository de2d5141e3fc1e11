package encdbdb

import (
	"context"

	"github.com/encdbdb/encdbdb/internal/proxy"
)

// Session is the trusted proxy of paper §3.1: it holds the master key,
// rewrites every SQL filter into a uniform encrypted two-sided range, and
// decrypts results before handing them to the application. The provider
// behind it (embedded Database or remote Client) never sees plaintext
// values.
//
// The query surface follows database/sql: ExecContext and Query take a
// context and '?' placeholder arguments, Prepare amortizes parsing and
// schema resolution across repeated executions, and Query returns a *Rows
// cursor that streams decrypted rows instead of materializing the result.
// Cancelling the context stops an in-flight query between scan chunks —
// locally and, for remote providers, over the wire.
type Session struct {
	p *proxy.Proxy
}

// ExecContext parses and executes one SQL statement, binding '?'
// placeholders from args and returning a decrypted, materialized result.
//
// Supported statements (see internal/sqlparse for the full grammar):
//
//	CREATE TABLE t (c ED5(30) BSMAX 10, d PLAIN ED1(20))
//	SELECT c, d FROM t WHERE c >= ? AND c < ?
//	SELECT COUNT(*) FROM t WHERE d = 'x'
//	INSERT INTO t VALUES (?, ?)
//	UPDATE t SET d = ? WHERE c = ?
//	DELETE FROM t WHERE c BETWEEN ? AND ?
//	MERGE TABLE t
//	DROP TABLE t
//
// A failed statement returns a nil Result, except an UPDATE or DELETE that
// reached the provider: its Result reports the rows changed despite the
// error. On a sharded fleet that is the count of the healthy shards, beside
// a *ShardError naming the shard that failed; callers deciding whether to
// retry must not assume a failed write changed nothing.
func (s *Session) ExecContext(ctx context.Context, sql string, args ...any) (*Result, error) {
	return s.p.Execute(ctx, sql, args...)
}

// Query executes a SELECT, binding '?' placeholders from args, and returns a
// streaming cursor over the decrypted rows. Plain projections stream
// end-to-end (the provider renders and ships chunks on demand); SELECTs with
// ORDER BY, aggregates, or COUNT(*) materialize internally first. Always
// Close the returned Rows.
func (s *Session) Query(ctx context.Context, sql string, args ...any) (*Rows, error) {
	return s.p.Query(ctx, sql, args...)
}

// Prepare parses a statement once and resolves its table schema once, so
// repeated executions pay neither again — the hot path for high-traffic
// parameterized workloads. The statement may contain '?' placeholders bound
// by each Stmt.Exec / Stmt.Query call.
func (s *Session) Prepare(ctx context.Context, sql string) (*Stmt, error) {
	return s.p.Prepare(ctx, sql)
}

// ExecBatch executes several statements in order, returning one result per
// statement. Runs of consecutive INSERTs into the same table travel as one
// insert of all their rows: one round trip to a remote provider, applied
// all or nothing (per shard on a fleet: a run some shards stored despite
// the error fails with an error wrapping ErrPartialWrite). On error the
// results stop at the failing statement; an UPDATE or DELETE that failed
// after reaching the provider is included, its Result reporting the rows
// changed despite the error, as ExecContext describes.
func (s *Session) ExecBatch(ctx context.Context, sqls []string) ([]*Result, error) {
	return s.p.ExecBatch(ctx, sqls)
}

// ExecScript splits a semicolon-separated script and executes it like
// ExecBatch. Syntax errors identify the failing statement and its absolute
// byte offset within the script.
func (s *Session) ExecScript(ctx context.Context, script string) ([]*Result, error) {
	return s.p.ExecScript(ctx, script)
}
