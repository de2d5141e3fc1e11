package engine

import (
	"slices"

	"github.com/encdbdb/encdbdb/internal/codec"
	"github.com/encdbdb/encdbdb/internal/dict"
)

// The byte layouts of a schema and of a write's rows. Every carrier uses
// these: the wire's frames, the WAL's create and write records, and a table
// image's header, in package codec's primitives.
//
//	schema: str table ‖ uvarint n ‖
//	        n × (str name ‖ uvarint kind ‖ uvarint MaxLen ‖ uvarint BSMax ‖ bool plain)
//	rows:   uvarint n ‖ n × row
//	row:    uvarint n ‖ n × (str column ‖ bytes value)

// Encode appends the schema's layout.
func (s *Schema) Encode(e *codec.Encoder) {
	e.Str(s.Table)
	e.Uvarint(uint64(len(s.Columns)))
	for i := range s.Columns {
		c := &s.Columns[i]
		e.Str(c.Name)
		e.Uvarint(uint64(c.Kind))
		e.Uvarint(uint64(c.MaxLen))
		e.Uvarint(uint64(c.BSMax))
		e.Bool(c.Plain)
	}
}

// Decode reads a schema's layout into s, reusing the capacity of s.Columns.
func (s *Schema) Decode(d *codec.Reader) {
	s.Table = d.Name()
	n := d.Length()
	s.Columns = slices.Grow(s.Columns[:0], n)[:n]
	for i := range s.Columns {
		c := &s.Columns[i]
		c.Name = d.Name()
		c.Kind = dict.Kind(d.Uvarint())
		c.MaxLen = int(d.Uvarint())
		c.BSMax = int(d.Uvarint())
		c.Plain = d.Bool()
	}
}

// EncodeRows appends the rows' layout.
func EncodeRows(e *codec.Encoder, rows []Row) {
	e.Uvarint(uint64(len(rows)))
	for _, row := range rows {
		EncodeRow(e, row)
	}
}

// EncodeRow appends one row's layout.
func EncodeRow(e *codec.Encoder, row Row) {
	e.Uvarint(uint64(len(row)))
	for name, val := range row {
		e.Str(name)
		e.Bytes(val)
	}
}

// DecodeRows reads the rows' layout into rows' backing array, clearing and
// reusing the maps an earlier decode left there. Values alias d's buffer.
func DecodeRows(d *codec.Reader, rows []Row) []Row {
	n := d.Length()
	if cap(rows) < n {
		rows = append(rows[:cap(rows)], make([]Row, n-cap(rows))...)
	}
	rows = rows[:n]
	for i := range rows {
		rows[i] = DecodeRow(d, rows[i])
	}
	return rows
}

// DecodeRow reads one row's layout into row, or into a new map when row is
// nil. Values alias d's buffer.
func DecodeRow(d *codec.Reader, row Row) Row {
	n := d.Length()
	if row == nil {
		row = make(Row, n)
	} else {
		clear(row)
	}
	for i := 0; i < n; i++ {
		name := d.Name()
		row[name] = d.Bytes()
	}
	return row
}
