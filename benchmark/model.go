package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"github.com/encdbdb/encdbdb/internal/engine"
)

// column is one plaintext column of the model plus the rank index the oracle
// answers range predicates from: a value's rank is its position among the
// column's sorted distinct values, so a closed value range is a closed rank
// range and a row matches by two integer comparisons.
type column struct {
	def    engine.ColumnDef
	values [][]byte // row order
	uniq   [][]byte // sorted distinct values
	rank   []int32  // rank[row] indexes uniq
	below  []int32  // below[r] = rows whose rank is < r (len(uniq)+1 entries)
}

// newColumn indexes the values of one column.
func newColumn(def engine.ColumnDef, values [][]byte) *column {
	c := &column{def: def, values: values}
	ids := make(map[string]int32, len(values)/2)
	for _, v := range values {
		if _, ok := ids[string(v)]; !ok {
			ids[string(v)] = 0
			c.uniq = append(c.uniq, v)
		}
	}
	sort.Slice(c.uniq, func(a, b int) bool { return bytes.Compare(c.uniq[a], c.uniq[b]) < 0 })
	for i, v := range c.uniq {
		ids[string(v)] = int32(i)
	}
	c.rank = make([]int32, len(values))
	c.below = make([]int32, len(c.uniq)+1)
	for i, v := range values {
		r := ids[string(v)]
		c.rank[i] = r
		c.below[r+1]++
	}
	for r := 1; r < len(c.below); r++ {
		c.below[r] += c.below[r-1]
	}
	return c
}

// table is the plaintext model of one provider table.
type table struct {
	name string
	cols []*column
	// rows and plainBytes (the user data size: the summed value lengths)
	// outlive release.
	rows       int
	plainBytes int
}

func newTable(name string, cols []*column) *table {
	t := &table{name: name, cols: cols, rows: len(cols[0].values)}
	for _, c := range cols {
		for _, v := range c.values {
			t.plainBytes += len(v)
		}
	}
	return t
}

// release drops the plaintext rows and the oracle's index once the expected
// answers are computed and the table is loaded. Millions of small values kept
// live would make every garbage collection of the measured window mark them;
// a provider in production holds no such heap, and the system under test
// shares this process. The sorted distinct values stay: they are small next
// to the rows, and the ingest writers draw from them.
func (t *table) release() {
	for _, c := range t.cols {
		c.values, c.rank, c.below = nil, nil, nil
	}
}

func (t *table) schema() engine.Schema {
	s := engine.Schema{Table: t.name}
	for _, c := range t.cols {
		s.Columns = append(s.Columns, c.def)
	}
	return s
}

func (t *table) col(name string) int {
	for i, c := range t.cols {
		if c.def.Name == name {
			return i
		}
	}
	panic("benchmark: no model column " + name)
}

// pred is one closed range predicate `col BETWEEN lo AND hi` in both its
// plaintext and its rank form.
type pred struct {
	col    int
	lo, hi []byte
	rlo    int32
	rhi    int32
}

// span draws a predicate covering n consecutive distinct values of column
// ci, the paper's range-size construction (§6.3).
func (t *table) span(rng *rand.Rand, ci, n int) pred {
	c := t.cols[ci]
	if n > len(c.uniq) {
		n = len(c.uniq)
	}
	if n < 1 {
		n = 1
	}
	i := rng.Intn(len(c.uniq) - n + 1)
	return pred{col: ci, lo: c.uniq[i], hi: c.uniq[i+n-1], rlo: int32(i), rhi: int32(i + n - 1)}
}

// share draws a predicate covering the given share of column ci's distinct
// values.
func (t *table) share(rng *rand.Rand, ci int, share float64) pred {
	return t.span(rng, ci, int(share*float64(len(t.cols[ci].uniq))))
}

// count answers COUNT(*) under the conjunction of preds.
func (t *table) count(preds []pred) int {
	if len(preds) == 1 {
		c := t.cols[preds[0].col]
		return int(c.below[preds[0].rhi+1] - c.below[preds[0].rlo])
	}
	return len(t.match(preds, 0))
}

// match lists the rows satisfying every predicate in RecordID order, stopping
// after limit rows when limit > 0.
func (t *table) match(preds []pred, limit int) []int32 {
	var out []int32
	first := t.cols[preds[0].col].rank
rows:
	for r, rk := range first {
		if rk < preds[0].rlo || rk > preds[0].rhi {
			continue
		}
		for _, p := range preds[1:] {
			if rk := t.cols[p.col].rank[r]; rk < p.rlo || rk > p.rhi {
				continue rows
			}
		}
		out = append(out, int32(r))
		if limit > 0 && len(out) == limit {
			break
		}
	}
	return out
}

// want is the checkable part of a statement's answer: the COUNT(*) value or
// the number of rows delivered, plus an order-sensitive checksum of the rows
// (0 for counts).
type want struct {
	count int
	sum   uint64
}

// FNV-1a, inlined so the per-cell cost in the client loop is a few
// nanoseconds and no hash.Hash is allocated per statement.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// foldRow folds one result row into a running checksum. Cells are
// terminated by 0xff and rows by 0xfe, bytes no column value contains.
func foldRow(sum uint64, row []string) uint64 {
	for _, cell := range row {
		for i := 0; i < len(cell); i++ {
			sum = (sum ^ uint64(cell[i])) * fnvPrime
		}
		sum = (sum ^ 0xff) * fnvPrime
	}
	return (sum ^ 0xfe) * fnvPrime
}

func checksum(rows [][]string) uint64 {
	sum := uint64(fnvOffset)
	for _, r := range rows {
		sum = foldRow(sum, r)
	}
	return sum
}

// form is how a statement presents its result; it fixes both the SQL tail
// and what the oracle computes.
type form int

const (
	formCount      form = iota // SELECT COUNT(*)
	formRows                   // SELECT cols [LIMIT n]: the (first n) matches in RecordID order
	formOrderLimit             // SELECT cols ... ORDER BY col LIMIT n (stable sort at the proxy)
	formAggregate              // SELECT SUM(c), MIN(a), MAX(b)
)

// how is the Session entry point a statement goes through.
type how int

const (
	howExec  how = iota // prepared Stmt.Exec
	howQuery            // prepared Stmt.Query, rows streamed
	howAdhoc            // Session.ExecContext with the literals spliced into the SQL text
)

// statement is one pooled statement with its expected answer.
type statement struct {
	class int
	how   how
	form  form
	tmpl  int    // index into workload.templates (prepared forms)
	args  []any  // placeholder arguments (prepared forms)
	text  string // the statement as ad-hoc SQL text
	preds []pred
	proj  []int // projected model columns (row forms)
	limit int
	want  want
}

// shape describes a class's statements apart from the drawn predicates.
type shape struct {
	form    form
	how     how
	proj    []string // projected columns; for formAggregate the SUM, MIN and MAX columns in that order
	orderBy string
	limit   int
}

// build renders one statement of the given shape over preds and computes its
// expected answer from the plaintext model.
func (w *workload) build(class int, t *table, sh shape, preds []pred) statement {
	s := statement{class: class, how: sh.how, form: sh.form, preds: preds, limit: sh.limit}
	for _, name := range sh.proj {
		s.proj = append(s.proj, t.col(name))
	}

	var sel string
	switch sh.form {
	case formCount:
		sel = "COUNT(*)"
	case formAggregate:
		sel = fmt.Sprintf("SUM(%s), MIN(%s), MAX(%s)", sh.proj[0], sh.proj[1], sh.proj[2])
	default:
		sel = strings.Join(sh.proj, ", ")
	}
	var where, whereText []string
	for _, p := range preds {
		name := t.cols[p.col].def.Name
		if p.rlo == p.rhi {
			where = append(where, name+" = ?")
			whereText = append(whereText, fmt.Sprintf("%s = '%s'", name, p.lo))
			s.args = append(s.args, string(p.lo))
			continue
		}
		where = append(where, name+" BETWEEN ? AND ?")
		whereText = append(whereText, fmt.Sprintf("%s BETWEEN '%s' AND '%s'", name, p.lo, p.hi))
		s.args = append(s.args, string(p.lo), string(p.hi))
	}
	var tail string
	if sh.orderBy != "" {
		tail += " ORDER BY " + sh.orderBy
	}
	if sh.limit > 0 {
		tail += " LIMIT " + strconv.Itoa(sh.limit)
	}
	head := "SELECT " + sel + " FROM " + t.name + " WHERE "
	s.text = head + strings.Join(whereText, " AND ") + tail
	if sh.how != howAdhoc {
		s.tmpl = w.template(head + strings.Join(where, " AND ") + tail)
	}

	s.want = t.answer(s, sh.orderBy)
	return s
}

// template interns a prepared-statement text and returns its index.
func (w *workload) template(sql string) int {
	for i, t := range w.templates {
		if t == sql {
			return i
		}
	}
	w.templates = append(w.templates, sql)
	return len(w.templates) - 1
}

// answer is the oracle: the statement's expected result computed from the
// plaintext alone, following the SQL semantics the proxy documents (LIMIT
// without ORDER BY keeps RecordID order; ORDER BY is a stable sort;
// aggregates of an empty match are empty strings).
func (t *table) answer(s statement, orderBy string) want {
	if s.form == formCount {
		return want{count: t.count(s.preds)}
	}
	limit := 0
	if s.form == formRows {
		limit = s.limit
	}
	rids := t.match(s.preds, limit)
	if s.form == formAggregate {
		return want{count: 1, sum: checksum([][]string{t.aggregate(rids, s.proj)})}
	}
	if s.form == formOrderLimit {
		key := t.cols[t.col(orderBy)].rank
		sort.SliceStable(rids, func(a, b int) bool { return key[rids[a]] < key[rids[b]] })
		if len(rids) > s.limit {
			rids = rids[:s.limit]
		}
	}
	sum := uint64(fnvOffset)
	row := make([]string, len(s.proj))
	for _, r := range rids {
		for i, ci := range s.proj {
			row[i] = string(t.cols[ci].values[r])
		}
		sum = foldRow(sum, row)
	}
	return want{count: len(rids), sum: sum}
}

// aggregate computes SUM(proj[0]), MIN(proj[1]), MAX(proj[2]) over rids the
// way the proxy renders them.
func (t *table) aggregate(rids []int32, proj []int) []string {
	if len(rids) == 0 {
		return []string{"", "", ""}
	}
	var sum int64
	lo, hi := rids[0], rids[0]
	minRank, maxRank := t.cols[proj[1]].rank, t.cols[proj[2]].rank
	for _, r := range rids {
		n, err := strconv.ParseInt(string(t.cols[proj[0]].values[r]), 10, 64)
		if err != nil {
			panic("benchmark: SUM over a non-numeric model column: " + err.Error())
		}
		sum += n
		if minRank[r] < minRank[lo] {
			lo = r
		}
		if maxRank[r] > maxRank[hi] {
			hi = r
		}
	}
	return []string{
		strconv.FormatInt(sum, 10),
		string(t.cols[proj[1]].values[lo]),
		string(t.cols[proj[2]].values[hi]),
	}
}
