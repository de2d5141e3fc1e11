package engine

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/ordenc"
	"github.com/encdbdb/encdbdb/internal/ridset"
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
// untrusted realm), the per-filter RecordID sets are intersected, validity
// is applied, and the projected columns are rendered (paper Fig. 5 steps
// 6-13). The table is locked only for the brief version pin; the search and
// rendering run lock-free against the pinned version, so a long scan never
// blocks writers or an in-flight background merge — and vice versa.
//
// The context is honored between scan chunks: cancelling it mid-scan
// abandons the remaining per-filter searches and rendering and returns
// ctx.Err(). SelectStream is the chunked variant that streams the rendered
// rows instead of materializing them.
func (db *DB) Select(ctx context.Context, q Query) (*Result, error) {
	v, match, err := db.selectMatch(ctx, q)
	if err != nil {
		return nil, err
	}
	if q.CountOnly {
		// COUNT(*) is the match bitmap's popcount: no RecordID is
		// materialized, and none travels back to the proxy.
		return &Result{Count: match.Len()}, nil
	}
	rids := limitRIDs(match, q.Limit)
	res := &Result{RecordIDs: rids, Count: len(rids)}
	project, err := v.project(q)
	if err != nil {
		return nil, err
	}
	for _, name := range project {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		res.Columns = append(res.Columns, ResultColumn{
			Table:  q.Table,
			Column: name,
			Cells:  v.render(v.cols[name], rids),
		})
	}
	return res, nil
}

// selectMatch runs the filter phase of a query: pin a version, evaluate the
// conjunction, apply validity. It returns the pinned version and the match
// bitmap, shared by Select and SelectStream.
func (db *DB) selectMatch(ctx context.Context, q Query) (*version, *ridset.Set, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, nil, err
	}
	t, err := db.lookup(q.Table)
	if err != nil {
		return nil, nil, err
	}
	v, err := t.pin()
	if err != nil {
		return nil, nil, err
	}
	db.metrics.selectPinned(v.rows())
	limit := q.Limit
	if q.CountOnly {
		limit = 0
	}
	match, err := db.matchValid(ctx, v, q.Filters, limit)
	if err != nil {
		return nil, nil, err
	}
	return v, match, nil
}

// limitRIDs renders the match set to RecordIDs, keeping the first limit
// (0 = all). LIMIT pushdown: the match set is in RecordID order, so the first
// limit entries are exactly the rows a client-side cutoff would keep —
// rendering (and for the fused path, delta scanning) never touches the rest.
func limitRIDs(match *ridset.Set, limit int) []uint32 {
	rids := match.Slice()
	if limit > 0 && len(rids) > limit {
		rids = rids[:limit]
	}
	return rids
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

// matchRows evaluates the conjunction of all filters as a bitmap over the
// pinned version's RecordID universe. With no filters, all rows match.
//
// The cheapest filter (per planFilters) always runs first and alone: if it
// matches nothing the conjunction is empty and the expensive searches never
// run — the short-circuit the optimizer's ordering exists for. Otherwise the
// remaining filters fan out across workers (paper §4.2 places the attribute
// vector phase in the untrusted realm precisely so it can use all the
// parallelism of the column store), the per-filter scan parallelism is
// divided among them so total parallelism stays bounded by workers, and
// their sets are folded in planned order with the same per-filter
// error/empty short-circuit the sequential loop applies — so outcomes
// (results *and* errors) are identical regardless of worker count; the
// parallel path merely wastes the searches the sequential one would have
// skipped.
func (db *DB) matchRows(ctx context.Context, v *version, filters []Filter) (*ridset.Set, error) {
	n := v.rows()
	if len(filters) == 0 {
		return ridset.Full(n), nil
	}
	planned := db.planFilters(v, filters)
	acc, err := db.filterRows(ctx, v, planned[0], db.opts.workers)
	if err != nil {
		return nil, err
	}
	rest := planned[1:]
	if len(rest) == 0 || acc.Empty() {
		return acc, nil
	}

	workers := db.opts.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 {
		for _, f := range rest {
			set, err := db.filterRows(ctx, v, f, 1)
			if err != nil {
				return nil, err
			}
			acc.IntersectWith(set)
			if acc.Empty() {
				return acc, nil
			}
		}
		return acc, nil
	}

	total := workers
	if workers > len(rest) {
		workers = len(rest)
	}
	scanWorkers := total / workers
	if scanWorkers < 1 {
		scanWorkers = 1
	}
	sets := make([]*ridset.Set, len(rest))
	errs := make([]error, len(rest))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				sets[i], errs[i] = db.filterRows(ctx, v, rest[i], scanWorkers)
			}
		}()
	}
	for i := range rest {
		next <- i
	}
	close(next)
	wg.Wait()
	// Fold in planned order with the sequential loop's exact semantics: an
	// error surfaces only if every earlier filter succeeded and kept the
	// conjunction non-empty, so workers>1 cannot change a query's outcome.
	for i := range rest {
		if errs[i] != nil {
			return nil, errs[i]
		}
		acc.IntersectWith(sets[i])
		if acc.Empty() {
			return acc, nil
		}
	}
	return acc, nil
}

// planFilters is the query optimizer of the pipeline (paper Fig. 5 step 6:
// "the query optimizer selects a query plan"): filters are evaluated
// cheapest dictionary search first, so an empty intermediate result
// short-circuits the expensive linear scans of unsorted dictionaries.
// Filters on unknown columns keep their position and fail in filterRows
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
		// Delta runs always scan linearly but are small by design.
		perRange := cv.sealedRows + cv.tail.Len()
		if cv.def.Kind.Order() == dict.OrderUnsorted {
			perRange += cv.main.Len()
		} else {
			perRange += bitsLen(cv.main.Len())
		}
		return perRange * len(f.Ranges)
	}
	out := append([]Filter(nil), filters...)
	sort.SliceStable(out, func(a, b int) bool { return cost(out[a]) < cost(out[b]) })
	return out
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

// filterRows runs one filter against the main store and the delta chain and
// merges the RecordID sets (delta RecordIDs are offset by the main row
// count). The paper's delta-store design executes every read query on both
// stores and merges the results (§4.3). Multi-range filters (IN-lists) OR
// the per-range sets into the same bitmap. scanWorkers bounds the attribute
// vector scan parallelism for this filter — matchRows splits the total
// worker budget among concurrently evaluated filters. The context is checked
// between per-range scan chunks, so a cancelled query stops before the next
// dictionary search or attribute-vector scan starts.
func (db *DB) filterRows(ctx context.Context, v *version, f Filter, scanWorkers int) (*ridset.Set, error) {
	cv, ok := v.cols[f.Column]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchColumn, f.Column)
	}
	acc := ridset.New(v.rows())
	for _, rng := range f.Ranges {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		main, err := db.searchMain(cv, rng, scanWorkers)
		if err != nil {
			return nil, err
		}
		if main != nil {
			acc.UnionWith(main)
		}
		if err := db.searchDelta(ctx, acc, v, cv, rng, scanWorkers); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// searchMain performs the two-phase search on the main store, emitting a
// bitmap over the main store's RecordIDs: the dictionary search runs inside
// the enclave (or locally for plain columns), then the attribute-vector
// scan evaluates its result in the untrusted realm.
func (db *DB) searchMain(cv *colVersion, q enclave.EncRange, scanWorkers int) (*ridset.Set, error) {
	s := cv.main
	if s.Rows() == 0 {
		return nil, nil
	}
	res, err := db.mainDictSearch(cv, q)
	if err != nil {
		return nil, err
	}
	return db.scanMainAV(s, res, scanWorkers), nil
}

// scanMainAV runs the attribute-vector phase on the main store. The default
// path hands the dictionary-search result to the bit-packed SWAR kernels,
// which replaced the per-element match-closure scan for the common range
// case; WithPackedScan(false) keeps the original []uint32 entry points live
// for the baseline and ablations.
func (db *DB) scanMainAV(s *dict.Split, res enclave.SearchResult, scanWorkers int) *ridset.Set {
	if s.Kind.Order() == dict.OrderUnsorted {
		if db.opts.packedScan {
			return search.AttrVectListPackedSet(s.Packed(), res.IDs, scanWorkers)
		}
		return search.AttrVectListSet(s.AVCodes(), res.IDs, s.Len(), db.opts.avMode, scanWorkers)
	}
	if db.opts.packedScan {
		return search.AttrVectRangesPackedSet(s.Packed(), res.Ranges, scanWorkers)
	}
	return search.AttrVectRangesSet(s.AVCodes(), res.Ranges, scanWorkers)
}

// searchDelta performs the search on the write-optimized delta chain, which
// always uses ED9 semantics (unsorted, frequency hiding; paper §4.3), and
// ORs the matches into acc at their table-wide RecordIDs. Sealed runs answer
// the attribute-vector phase with the bit-packed membership kernel built at
// seal time; the active tail exploits its identity attribute vector
// directly — the matching ValueIDs are the matching rows — so only the
// small unsealed portion pays a per-element path.
func (db *DB) searchDelta(ctx context.Context, acc *ridset.Set, v *version, cv *colVersion, q enclave.EncRange, scanWorkers int) error {
	off := v.mainRows
	for _, run := range cv.sealed {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		ids, err := db.deltaDictSearch(cv, run, q)
		if err != nil {
			return err
		}
		if len(ids) > 0 {
			var set *ridset.Set
			if db.opts.packedScan {
				set = search.AttrVectListPackedSet(run.packed, ids, scanWorkers)
			} else {
				set = search.AttrVectListSet(run.identCodes(), ids, run.rows(), db.opts.avMode, scanWorkers)
			}
			acc.OrShifted(set, off)
		}
		off += run.rows()
	}
	if cv.tail.Len() == 0 {
		return nil
	}
	ids, err := db.deltaDictSearch(cv, cv.tail, q)
	if err != nil {
		return err
	}
	for _, id := range ids {
		acc.Add(uint32(off + int(id)))
	}
	return nil
}

// deltaDictSearch runs the dictionary-search phase on one delta region
// under ED9 semantics, returning the matching ValueIDs.
func (db *DB) deltaDictSearch(cv *colVersion, region search.Region, q enclave.EncRange) ([]uint32, error) {
	if cv.def.Plain {
		pq, err := plainRange(cv.def, q)
		if err != nil {
			return nil, err
		}
		return search.UnsortedDict(region, search.PlainDecryptor{}, pq)
	}
	meta := db.columnMetaVersion(cv)
	meta.Kind = dict.ED9
	res, err := db.encl.DictSearch(meta, region, nil, q)
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

// columnMeta builds the enclave metadata for a column (paper Fig. 5 step 7).
func (db *DB) columnMeta(c *column) enclave.ColumnMeta {
	return enclave.ColumnMeta{
		Table:  c.table,
		Column: c.def.Name,
		Kind:   c.def.Kind,
		MaxLen: c.def.MaxLen,
	}
}

// columnMetaVersion is columnMeta for a pinned column version.
func (db *DB) columnMetaVersion(cv *colVersion) enclave.ColumnMeta {
	return enclave.ColumnMeta{
		Table:  cv.table,
		Column: cv.def.Name,
		Kind:   cv.def.Kind,
		MaxLen: cv.def.MaxLen,
	}
}
