// Package engine implements the EncDBDB database engine: tables whose
// columns are protected by per-column encrypted dictionaries, the query
// evaluation pipeline of paper §4.2 (Fig. 5 steps 6-13), and the delta-store
// mechanism for dynamic data of paper §4.3.
//
// The engine runs entirely in the untrusted realm. It never holds plaintext
// for encrypted columns: dictionary searches are delegated to the enclave,
// attribute vector searches operate on plaintext ValueIDs (which is exactly
// what the paper's attacker may see), and result rendering copies ciphertext
// cells that only the trusted proxy can decrypt.
package engine

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"

	"github.com/encdbdb/encdbdb/internal/codec"
	"github.com/encdbdb/encdbdb/internal/dict"
)

// ColumnDef declares one column of a table.
type ColumnDef struct {
	// Name is the column name, unique within the table.
	Name string
	// Kind is the encrypted dictionary protecting the column.
	Kind dict.Kind
	// MaxLen is the maximum value length in bytes (VARCHAR(n) semantics).
	MaxLen int
	// BSMax is the frequency-smoothing bucket bound, required for ED4-ED6.
	BSMax int
	// Plain stores the column as a PlainDBDB-style plaintext dictionary
	// using identical algorithms without encryption or enclave use. The
	// paper supports plaintext dictionaries alongside encrypted ones and
	// uses them as the PlainDBDB baseline.
	Plain bool
}

// Validate checks the definition for internal consistency.
func (c ColumnDef) Validate() error {
	if c.Name == "" {
		return errors.New("engine: column name must not be empty")
	}
	if !c.Kind.Valid() {
		return fmt.Errorf("engine: column %q: invalid dictionary kind", c.Name)
	}
	if c.MaxLen <= 0 {
		return fmt.Errorf("engine: column %q: max length must be positive", c.Name)
	}
	if c.Kind.Repetition() == dict.RepSmoothing && c.BSMax < 1 {
		return fmt.Errorf("engine: column %q: %v requires bsmax >= 1", c.Name, c.Kind)
	}
	return nil
}

// Schema declares a table.
type Schema struct {
	Table   string
	Columns []ColumnDef
}

// Validate checks the schema for internal consistency.
func (s Schema) Validate() error {
	if s.Table == "" {
		return errors.New("engine: table name must not be empty")
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("engine: table %q has no columns", s.Table)
	}
	seen := make(map[string]bool, len(s.Columns))
	for _, c := range s.Columns {
		if err := c.Validate(); err != nil {
			return err
		}
		if seen[c.Name] {
			return fmt.Errorf("engine: table %q: duplicate column %q", s.Table, c.Name)
		}
		seen[c.Name] = true
	}
	return nil
}

// Digest fingerprints the schema: FNV-1a over its byte layout (Encode),
// which length-prefixes every name and count, so no two schemas share an
// input. A proxy sends the digest of the schema it planned a query against
// (Query.SchemaDigest); a table re-created under the same name with other
// columns answers ErrSchemaChanged instead of running a plan made for the
// old one.
func (s Schema) Digest() uint64 {
	var e codec.Encoder
	s.Encode(&e)
	h := fnv.New64a()
	h.Write(e.B)
	return h.Sum64()
}

// Column returns the definition of the named column.
func (s Schema) Column(name string) (ColumnDef, bool) {
	for _, c := range s.Columns {
		if c.Name == name {
			return c, true
		}
	}
	return ColumnDef{}, false
}

// schemaDigestKey is the context key WithSchemaDigest stores under.
type schemaDigestKey struct{}

// WithSchemaDigest returns a context carrying the Schema.Digest of the
// schema a write — InsertBatch, Update or Delete — was planned against. A
// table whose schema has another digest refuses the write with
// ErrSchemaChanged before anything is logged or applied. The digest travels
// with the request, across the wire and to every shard of a fleet; a query
// carries its own in Query.SchemaDigest. Zero leaves the write unchecked.
func WithSchemaDigest(ctx context.Context, digest uint64) context.Context {
	return context.WithValue(ctx, schemaDigestKey{}, digest)
}

// SchemaDigest returns the digest WithSchemaDigest attached to ctx, or 0.
func SchemaDigest(ctx context.Context) uint64 {
	d, _ := ctx.Value(schemaDigestKey{}).(uint64)
	return d
}

// checkWriteDigest refuses a write to t planned against another schema. A
// table's schema never changes in place — DDL replaces the table — so the
// check on the table the write looked up holds for the whole write, and it
// runs before the write is prepared, logged or applied.
func (t *table) checkWriteDigest(ctx context.Context, name string) error {
	if d := SchemaDigest(ctx); d != 0 && d != t.digest {
		return fmt.Errorf("%w: %q", ErrSchemaChanged, name)
	}
	return nil
}
