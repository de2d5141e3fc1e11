package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/encdbdb/encdbdb/internal/av"
	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/ridset"
	"github.com/encdbdb/encdbdb/internal/search"
)

// morselGroups is the work unit of the fused main-store scan: 128 groups =
// 8192 rows per morsel. Small enough that skewed predicate selectivity
// cannot idle workers for long, large enough that the atomic claim and the
// per-morsel context check are noise.
const morselGroups = 128

// fusedFilter is one filter compiled by the dictionary phase: the per-store
// results of every dictionary search, ready for the scan phase. The main
// store's and each sealed run's ranges or ValueIDs are compiled into a
// PackedPred; the tail keeps its matching ValueID list (the tail is ED9, so
// the result is a list).
type fusedFilter struct {
	cv       *colVersion
	mainPred search.PackedPred
	runPreds []search.PackedPred
	tailIDs  []uint32
}

// matchValid evaluates the conjunction of all filters AND row validity over
// a pinned version: one dictionary phase compiling every filter, then a
// single morsel-driven pass over the main store evaluating all predicates
// per 64-row group directly against a validity-seeded accumulator, then the
// delta regions the same way. It never materializes a per-filter set, never
// rescans for an intersection, and skips every group an earlier predicate
// (or a deletion) already emptied. With no filters, every valid row matches.
//
// Parallelism is morsel-driven: workers claim 128-group chunks of the main
// store from an atomic counter, so all cores cooperate on one scan and a
// filter with skewed selectivity cannot idle them.
//
// The dictionary phase runs for every planned filter up front, bailing only
// when a filter is dictionary-level empty, so a dictionary error on a later
// filter surfaces even when the conjunction would have emptied mid-scan.
//
// limit (0 = none) is the LIMIT-pushdown hint: a caller that will keep only
// the first limit matches in RecordID order allows the scan to stop before
// delta regions once the rows before them already satisfy the cap. The
// returned set may therefore overshoot limit but never misses a row the
// truncated prefix needs.
func (db *DB) matchValid(ctx context.Context, v *version, filters []Filter, limit int) (*ridset.Set, error) {
	n := v.rows()
	if len(filters) == 0 {
		return v.valid.Clone(), nil
	}

	// Dictionary phase, sequential in planned order: preserves the planner's
	// error order, and a dictionary-level empty filter (no ValueID can
	// match anywhere in the chain) short-circuits the remaining searches.
	planned := db.planFilters(v, filters)
	preds := make([]*fusedFilter, 0, len(planned))
	for _, f := range planned {
		ff, err := db.compileFilter(ctx, v, f)
		if err != nil {
			return nil, err
		}
		if ff == nil {
			return ridset.New(n), nil
		}
		preds = append(preds, ff)
	}

	// The accumulator starts as the validity bitmap over the main store, so
	// deleted rows are dead from the first predicate on; the delta portion
	// stays zero until the delta phase splices each region in.
	acc := v.valid.Clone()
	acc.ClearFrom(v.mainRows)
	if v.mainRows > 0 {
		if err := db.fusedMainScan(ctx, v, preds, acc); err != nil {
			return nil, err
		}
	}
	if v.deltaRows > 0 {
		if err := db.fusedDeltaScan(ctx, v, preds, acc, limit); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// compileFilter runs the dictionary phase of one filter against the main
// store and every delta region, returning the compiled predicate — or nil if
// the filter is dictionary-level empty, which empties the whole conjunction.
func (db *DB) compileFilter(ctx context.Context, v *version, f Filter) (*fusedFilter, error) {
	cv, ok := v.cols[f.Column]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchColumn, f.Column)
	}
	ff := &fusedFilter{cv: cv, runPreds: make([]search.PackedPred, len(cv.sealed))}
	var (
		mainRanges []search.VidRange
		mainIDs    []uint32
		runHits    = make([]enclave.SearchResult, len(cv.sealed))
	)
	unsorted := cv.main.Kind.Order() == dict.OrderUnsorted
	for _, rng := range f.Ranges {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		if cv.main.Rows() > 0 {
			res, err := db.splitDictSearch(cv, cv.main, rng)
			if err != nil {
				return nil, err
			}
			mainRanges = append(mainRanges, res.Ranges...)
			mainIDs = append(mainIDs, res.IDs...)
		}
		for i, run := range cv.sealed {
			res, err := db.splitDictSearch(cv, run, rng)
			if err != nil {
				return nil, err
			}
			runHits[i].Ranges = append(runHits[i].Ranges, res.Ranges...)
			runHits[i].IDs = append(runHits[i].IDs, res.IDs...)
		}
		if cv.tail.Len() > 0 {
			ids, err := db.tailDictSearch(cv, rng)
			if err != nil {
				return nil, err
			}
			ff.tailIDs = append(ff.tailIDs, ids...)
		}
	}
	if unsorted {
		ff.mainPred = search.CompileListPred(cv.main.Packed(), mainIDs)
	} else {
		ff.mainPred = search.CompileRangesPred(cv.main.Packed(), mainRanges)
	}
	empty := len(mainRanges) == 0 && len(mainIDs) == 0 && len(ff.tailIDs) == 0
	for i, hits := range runHits {
		empty = empty && len(hits.Ranges) == 0 && len(hits.IDs) == 0
		if unsorted {
			ff.runPreds[i] = search.CompileListPred(cv.sealed[i].Packed(), hits.IDs)
		} else {
			ff.runPreds[i] = search.CompileRangesPred(cv.sealed[i].Packed(), hits.Ranges)
		}
	}
	if empty {
		return nil, nil
	}
	return ff, nil
}

// fusedMainScan runs the morsel-driven fused pass over the main store:
// workers claim group morsels from a shared counter and evaluate the whole
// conjunction on each before claiming the next. Morsels are disjoint group
// ranges, hence disjoint accumulator words, so the workers share acc without
// synchronization; a predicate that empties the morsel stops the remaining
// predicates for that morsel.
func (db *DB) fusedMainScan(ctx context.Context, v *version, preds []*fusedFilter, acc *ridset.Set) error {
	groups := (v.mainRows + av.GroupRows - 1) / av.GroupRows
	morsels := (groups + morselGroups - 1) / morselGroups
	workers := db.opts.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > morsels {
		workers = morsels
	}
	scan := func(gLo, gHi int) {
		for _, ff := range preds {
			if !ff.mainPred.ScanInto(acc, gLo, gHi) {
				return
			}
		}
	}
	if workers <= 1 {
		for m := 0; m < morsels; m++ {
			if err := ctxErr(ctx); err != nil {
				return err
			}
			scan(m*morselGroups, min(groups, (m+1)*morselGroups))
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				m := int(next.Add(1)) - 1
				if m >= morsels || ctxErr(ctx) != nil {
					return
				}
				scan(m*morselGroups, min(groups, (m+1)*morselGroups))
			}
		}()
	}
	wg.Wait()
	return ctxErr(ctx)
}

// fusedDeltaScan evaluates the conjunction over each delta region with a
// region-local accumulator — a conjunction distributes over the disjoint row
// regions of the store chain, and region offsets are not 64-aligned, so each
// region is evaluated in its own coordinate space and spliced into the
// table-wide accumulator once. Sealed runs evaluate their compiled
// predicates through the same kernels as the main store; the active tail
// exploits AV[i] = i directly.
//
// With a LIMIT-pushdown hint the scan stops before any region whose rows can
// no longer reach the truncated prefix: regions hold strictly increasing
// RecordIDs, so once the accumulator already carries limit matches below a
// region's offset, nothing that region contributes survives the cut.
func (db *DB) fusedDeltaScan(ctx context.Context, v *version, preds []*fusedFilter, acc *ridset.Set, limit int) error {
	cv0 := preds[0].cv
	off := v.mainRows
	for ri := range cv0.sealed {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		if limit > 0 && acc.Len() >= limit {
			return nil
		}
		rows := cv0.sealed[ri].Rows()
		reg := ridset.Full(rows)
		reg.AndShifted(v.valid, off)
		groups := (rows + av.GroupRows - 1) / av.GroupRows
		for _, ff := range preds {
			if reg.Empty() || !ff.runPreds[ri].ScanInto(reg, 0, groups) {
				break
			}
		}
		acc.OrShifted(reg, off)
		off += rows
	}
	rows := cv0.tail.Len()
	if rows == 0 || (limit > 0 && acc.Len() >= limit) {
		return nil
	}
	reg := ridset.Full(rows)
	reg.AndShifted(v.valid, off)
	for _, ff := range preds {
		if reg.Empty() {
			break
		}
		// The tail's attribute vector is the identity, so the matching
		// ValueIDs are the matching rows.
		fs := ridset.New(rows)
		for _, id := range ff.tailIDs {
			if int(id) < rows {
				fs.Add(id)
			}
		}
		reg.IntersectWith(fs)
	}
	acc.OrShifted(reg, off)
	return nil
}

// splitDictSearch runs the dictionary-search phase on one of the column's
// splits, the main store or a sealed run — inside the enclave for encrypted
// columns, locally for plain ones.
func (db *DB) splitDictSearch(cv *colVersion, s *dict.Split, q enclave.EncRange) (enclave.SearchResult, error) {
	if cv.def.Plain {
		return db.plainDictSearch(cv.def, s, s.EncRndOffset, q)
	}
	return db.encl.DictSearch(columnMeta(cv.table, cv.def), s, s.EncRndOffset, q)
}
