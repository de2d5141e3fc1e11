package engine

import (
	"slices"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/ridset"
)

// version is an immutable, pinned view of a table: the generation-stamped
// main stores, the sealed delta runs, a length-capped capture of each active
// tail, and the copy-on-write validity bitmap epoch current at pin time.
// Everything a version references is frozen — the main store is swapped
// (never mutated) by merges, sealed runs are immutable by construction, tail
// captures are three-index slices whose elements are never rewritten, and
// every validity mutation installs a fresh bitmap — so a reader holding a
// version scans entirely lock-free while writers and background merges
// proceed (paper §4.3 delta design, taken off the lock).
type version struct {
	schema    Schema
	gen       uint64
	mainRows  int
	deltaRows int
	valid     *ridset.Set
	cols      map[string]*colVersion
}

// colVersion is one column's pinned stores.
type colVersion struct {
	table string
	def   ColumnDef
	main  *dict.Split
	// sealed is the captured chain of sealed runs, oldest first: splits of
	// the column's kind, like main.
	sealed []*dict.Split
	// tail is the captured prefix of the active run's entries.
	tail tailRegion
}

// tailRegion adapts a captured tail entry slice to search.Region.
type tailRegion [][]byte

// Len returns the number of captured tail rows (implements search.Region).
func (t tailRegion) Len() int { return len(t) }

// AppendEntry appends tail entry i (implements search.Region).
func (t tailRegion) AppendEntry(dst []byte, i int) []byte { return append(dst, t[i]...) }

// pin captures the current version under a brief read-lock critical section
// and verifies the table is queryable. The returned version is safe for
// lock-free use for as long as the caller likes.
func (t *table) pin() (*version, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if err := t.ready(); err != nil {
		return nil, err
	}
	return t.versionLocked(), nil
}

// versionLocked builds the current version; the caller holds at least the
// table's read lock.
func (t *table) versionLocked() *version {
	v := &version{
		schema:    t.schema,
		gen:       t.gen,
		mainRows:  t.mainRows,
		deltaRows: t.deltaRows,
		valid:     t.valid,
		cols:      make(map[string]*colVersion, len(t.cols)),
	}
	for name, c := range t.cols {
		cv := &colVersion{table: c.table, def: c.def, main: c.main, sealed: c.sealed}
		n := len(c.tail.entries)
		cv.tail = tailRegion(c.tail.entries[:n:n])
		v.cols[name] = cv
	}
	return v
}

// rows returns the version's total row count.
func (v *version) rows() int { return v.mainRows + v.deltaRows }

// splits returns the column's splits in RecordID order: the main store,
// then the sealed runs.
func (cv *colVersion) splits() []*dict.Split {
	return append([]*dict.Split{cv.main}, cv.sealed...)
}

// cellBuf is the memory a render writes into: the cells of every column
// rendered, the arena the split cells are copied into, and the run-local
// row numbers of a sealed run's rows. A cursor empties it and renders chunk
// after chunk into it, so a stream allocates it once, growing the arena
// only for a chunk whose entries outgrow it.
type cellBuf struct {
	cells [][]byte
	arena []byte
	rows  []uint32
}

// newCellBuf returns a cellBuf with room for the cells of rows rows of cols
// columns. Its arena starts empty: each column's Gather grows it to the exact
// size of the entries it copies, and a cursor, reusing it, pays that growth
// once.
func newCellBuf(cols, rows int) cellBuf {
	return cellBuf{cells: make([][]byte, 0, cols*rows)}
}

// render reconstructs the projected cells for the matched rows by undoing
// the split: cell = D[AV[rid]] (paper Fig. 5 step 12). rids ascend, as every
// match set's RecordIDs do, so the main-store rows are a prefix: they are
// copied out in one batch (dict.Split.Gather), each sealed run's rows
// behind them likewise, and the tail rows last resolve one by one to their
// immutable stored entries. Cells remain ciphertexts for encrypted columns.
// The cells are appended to buf, and stay valid while buf is not emptied.
func (v *version) render(cv *colVersion, rids []uint32, buf *cellBuf) [][]byte {
	start := len(buf.cells)
	buf.cells = slices.Grow(buf.cells, len(rids))[:start+len(rids)]
	cells := buf.cells[start:len(buf.cells):len(buf.cells)]
	m, _ := slices.BinarySearch(rids, uint32(v.mainRows))
	buf.arena = cv.main.Gather(buf.arena, cells, rids[:m])
	off := v.mainRows
	for _, run := range cv.sealed {
		end, _ := slices.BinarySearch(rids, uint32(off+run.Rows()))
		buf.rows = buf.rows[:0]
		for _, rid := range rids[m:end] {
			buf.rows = append(buf.rows, rid-uint32(off))
		}
		buf.arena = run.Gather(buf.arena, cells[m:end], buf.rows)
		m, off = end, off+run.Rows()
	}
	for i := m; i < len(rids); i++ {
		cells[i] = cv.tail[int(rids[i])-off]
	}
	return cells
}
