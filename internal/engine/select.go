package engine

import (
	"context"
	"fmt"
	"sort"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/ordenc"
	"github.com/encdbdb/encdbdb/internal/search"
)

// Filter is one encrypted predicate on a column: the union (OR) of one or
// more two-sided ranges. Plain equality and range predicates carry exactly
// one range; IN-lists carry one equality range per member. For encrypted
// columns the bounds are PAE ciphertexts produced by the proxy; for plain
// columns they are raw plaintext bounds. The proxy has already normalized
// every filter type into this uniform shape (paper §4.2 step 5).
type Filter struct {
	Column string
	Ranges []enclave.EncRange
}

// SingleRange builds the common one-range filter.
func SingleRange(column string, r enclave.EncRange) Filter {
	return Filter{Column: column, Ranges: []enclave.EncRange{r}}
}

// Query is a decomposed single-table query: conjunctive range filters plus a
// projection list (paper Fig. 5 step 6 output).
type Query struct {
	Table   string
	Filters []Filter
	// Project lists the columns to render. Empty means all columns in
	// schema order.
	Project []string
	// CountOnly suppresses result rendering and returns only the match
	// count (the paper notes counts are straightforward on top of range
	// search).
	CountOnly bool
	// Limit caps the result at the first Limit matching rows in RecordID
	// order (0 = unlimited). The engine stops scanning delta regions once
	// the main store alone satisfies the cap, and the streaming cursor never
	// renders rows past it. Ignored for CountOnly queries: a count reports
	// the full match cardinality.
	Limit int
	// SchemaDigest, when nonzero, is the Schema.Digest of the schema the
	// query was planned against; a table whose schema has another digest
	// fails the query with ErrSchemaChanged. Zero leaves it unchecked.
	SchemaDigest uint64
}

// ResultColumn is one rendered output column: ciphertext cells for encrypted
// columns (step 12: eC = (eD_j | j = AV_i, i in rid)), plaintext cells for
// plain columns.
type ResultColumn struct {
	Table  string
	Column string
	Cells  [][]byte
}

// Result is the provider-side query result returned to the proxy.
type Result struct {
	RecordIDs []uint32
	Columns   []ResultColumn
	Count     int
}

// Select evaluates a query: each filter runs the two-phase search on its
// column (dictionary search in the enclave, attribute vector search in the
// untrusted realm) into one validity-seeded match bitmap, and the projected
// columns are rendered (paper Fig. 5 steps 6-13). The table is locked only
// for the brief version pin; the search and rendering run lock-free against
// the pinned version, so a long scan never blocks writers or an in-flight
// background merge — and vice versa.
//
// Select is the materialized form of SelectStream: a cursor that renders
// every row in one chunk, collected into a Result that owns its memory. The
// context is honored between scan chunks: cancelling it mid-scan abandons
// the remaining per-filter searches and rendering and returns ctx.Err().
func (db *DB) Select(ctx context.Context, q Query) (*Result, error) {
	return Collect(0, func() (ResultStream, error) { return db.cursor(ctx, q, 0) })
}

// cursor runs a query's filter phase — pin a version, evaluate the
// conjunction, apply validity — and returns the cursor that renders the match
// set, chunk rows per Next call (0 = every row in one chunk). A count-only
// query's cursor holds the match bitmap's popcount and no RecordID. LIMIT
// pushdown: the match set is in RecordID order, so its first Limit entries
// are exactly the rows a client-side cutoff would keep — rendering (and
// delta scanning, see fusedDeltaScan) never touches the rest.
func (db *DB) cursor(ctx context.Context, q Query, chunk int) (*Cursor, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	t, err := db.lookup(q.Table)
	if err != nil {
		return nil, err
	}
	if q.SchemaDigest != 0 && q.SchemaDigest != t.digest {
		return nil, fmt.Errorf("%w: %q", ErrSchemaChanged, q.Table)
	}
	v, err := t.pin()
	if err != nil {
		return nil, err
	}
	db.metrics.selectPinned(v.rows())
	limit := q.Limit
	if q.CountOnly {
		limit = 0
	}
	match, err := db.matchValid(ctx, v, q.Filters, limit)
	if err != nil {
		return nil, err
	}
	if q.CountOnly {
		return &Cursor{ctx: ctx, count: match.Len(), done: true}, nil
	}
	rids := match.Slice()
	if limit > 0 && len(rids) > limit {
		rids = rids[:limit]
	}
	project, err := v.project(q)
	if err != nil {
		return nil, err
	}
	if chunk == 0 {
		chunk = max(len(rids), 1)
	}
	return &Cursor{ctx: ctx, table: q.Table, v: v, project: project, rids: rids, count: len(rids), chunk: chunk}, nil
}

// project resolves a query's projection list against the pinned version:
// empty means all columns in schema order. Every returned name is verified to
// exist, so later render calls cannot fail.
func (v *version) project(q Query) ([]string, error) {
	project := q.Project
	if len(project) == 0 {
		project = make([]string, 0, len(v.cols))
		for _, def := range v.schema.Columns {
			project = append(project, def.Name)
		}
	}
	for _, name := range project {
		if _, ok := v.cols[name]; !ok {
			return nil, fmt.Errorf("%w: %q.%q", ErrNoSuchColumn, q.Table, name)
		}
	}
	return project, nil
}

// ctxErr reports a context's cancellation state without blocking — the check
// the scan loops run between chunks.
func ctxErr(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// planFilters is the query optimizer of the pipeline (paper Fig. 5 step 6:
// "the query optimizer selects a query plan"): filters are evaluated
// cheapest dictionary search first, so an empty intermediate result
// short-circuits the expensive linear scans of unsorted dictionaries.
// Filters on unknown columns keep their position and fail in compileFilter
// with a proper error.
func (db *DB) planFilters(v *version, filters []Filter) []Filter {
	if !db.opts.reorder || len(filters) < 2 {
		return filters
	}
	cost := func(f Filter) int {
		cv, ok := v.cols[f.Column]
		if !ok {
			return 0 // surface ErrNoSuchColumn first
		}
		// The ED9 tail is searched linearly but is small by design.
		perRange := cv.tail.Len() + searchCost(cv.main)
		for _, run := range cv.sealed {
			perRange += searchCost(run)
		}
		return perRange * len(f.Ranges)
	}
	out := append([]Filter(nil), filters...)
	sort.SliceStable(out, func(a, b int) bool { return cost(out[a]) < cost(out[b]) })
	return out
}

// searchCost approximates the entries a dictionary search of s loads:
// |D| for unsorted kinds, log2 |D| for sorted and rotated ones.
func searchCost(s *dict.Split) int {
	if s.Kind.Order() == dict.OrderUnsorted {
		return s.Len()
	}
	return bitsLen(s.Len())
}

// bitsLen approximates log2(n)+1 for plan costing.
func bitsLen(n int) int {
	b := 0
	for n > 0 {
		b++
		n >>= 1
	}
	return b
}

// tailDictSearch runs the dictionary-search phase on the column's tail
// under ED9 semantics, returning the matching ValueIDs.
func (db *DB) tailDictSearch(cv *colVersion, q enclave.EncRange) ([]uint32, error) {
	if cv.def.Plain {
		pq, err := plainRange(cv.def, q)
		if err != nil {
			return nil, err
		}
		return search.UnsortedDict(cv.tail, search.PlainDecryptor{}, pq)
	}
	meta := columnMeta(cv.table, cv.def)
	meta.Kind = dict.ED9
	res, err := db.encl.DictSearch(meta, cv.tail, nil, q)
	if err != nil {
		return nil, err
	}
	return res.IDs, nil
}

// plainDictSearch runs the PlainDBDB dictionary-search phase: identical
// algorithms, no enclave, plaintext bounds. The result feeds the same
// attribute-vector scan as the encrypted path.
func (db *DB) plainDictSearch(def ColumnDef, region search.Region, rotOffset []byte, q enclave.EncRange) (enclave.SearchResult, error) {
	pq, err := plainRange(def, q)
	if err != nil {
		return enclave.SearchResult{}, err
	}
	dec := search.PlainDecryptor{}
	switch def.Kind.Order() {
	case dict.OrderSorted:
		vr, ok, err := search.SortedDict(region, dec, pq)
		if err != nil || !ok {
			return enclave.SearchResult{}, err
		}
		return enclave.SearchResult{Ranges: []search.VidRange{vr}}, nil
	case dict.OrderRotated:
		_, tailRun, err := dict.DecodeRotOffset(rotOffset)
		if err != nil {
			return enclave.SearchResult{}, err
		}
		enc, err := ordenc.NewEncoder(def.MaxLen)
		if err != nil {
			return enclave.SearchResult{}, err
		}
		ranges, err := search.RotatedDict(region, dec, enc, pq, int(tailRun))
		if err != nil {
			return enclave.SearchResult{}, err
		}
		return enclave.SearchResult{Ranges: ranges}, nil
	default:
		ids, err := search.UnsortedDict(region, dec, pq)
		if err != nil {
			return enclave.SearchResult{}, err
		}
		return enclave.SearchResult{IDs: ids}, nil
	}
}

// plainRange validates and converts a plaintext-bound filter. Bounds follow
// the same rules as column values (length limit, no NUL bytes) so the
// rotated search's order encoding stays consistent with plaintext order.
func plainRange(def ColumnDef, q enclave.EncRange) (search.Range, error) {
	for _, b := range [][]byte{q.Start, q.End} {
		if len(b) > def.MaxLen {
			return search.Range{}, fmt.Errorf("engine: bound %q exceeds column width %d", b, def.MaxLen)
		}
		for _, ch := range b {
			if ch == 0 {
				return search.Range{}, fmt.Errorf("engine: bound contains NUL byte")
			}
		}
	}
	return search.Range{Start: q.Start, End: q.End, StartIncl: q.StartIncl, EndIncl: q.EndIncl}, nil
}

// columnMeta builds the enclave metadata for a column of table (paper Fig. 5
// step 7).
func columnMeta(table string, def ColumnDef) enclave.ColumnMeta {
	return enclave.ColumnMeta{
		Table:  table,
		Column: def.Name,
		Kind:   def.Kind,
		MaxLen: def.MaxLen,
	}
}
