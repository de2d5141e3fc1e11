// Package codec is the one binary codec of the system: wire frames, WAL
// records, table images and dictionary splits all append their fields with
// an Encoder and parse them with a Reader. There are no reflection and no
// type descriptors; a layout is the order of its calls.
//
// Primitives: unsigned varints for integers, counts and lengths; single
// bytes for tags and bools; byte strings as uvarint(len+1) ‖ bytes, so 0
// encodes a nil slice apart from an empty one; strings as uvarint(len) ‖
// UTF-8. Fixed-width integers name their byte order: BE64 (a hash, such as
// a schema digest), LE32 and LE64 (the fixed-size arrays of a split).
//
// A Reader is sticky: after the first malformed read every accessor returns
// zero values and Err reports ErrCorrupt, so decoders need no per-field
// checks. Every count is bounded by the bytes left before anything is
// allocated for it, so a hostile length prefix cannot drive a huge
// allocation. Byte fields alias the decoded buffer.
package codec

import (
	"encoding/binary"
	"errors"
	"io"
)

// ErrCorrupt reports bytes that do not parse: truncated, followed by bytes
// the layout does not account for, carrying an unknown flag bit, or holding
// a length that points past the end.
var ErrCorrupt = errors.New("codec: malformed bytes")

// Encoder appends fields to B.
type Encoder struct {
	B []byte
}

func (e *Encoder) Byte(b byte)      { e.B = append(e.B, b) }
func (e *Encoder) Raw(b []byte)     { e.B = append(e.B, b...) }
func (e *Encoder) Uvarint(v uint64) { e.B = binary.AppendUvarint(e.B, v) }
func (e *Encoder) BE64(v uint64)    { e.B = binary.BigEndian.AppendUint64(e.B, v) }
func (e *Encoder) LE32(v uint32)    { e.B = binary.LittleEndian.AppendUint32(e.B, v) }
func (e *Encoder) LE64(v uint64)    { e.B = binary.LittleEndian.AppendUint64(e.B, v) }

// Bool encodes a bool as one byte, 1 or 0.
func (e *Encoder) Bool(v bool) {
	if v {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

// Bytes encodes b with a nil-biased length: 0 for nil, len(b)+1 otherwise.
func (e *Encoder) Bytes(b []byte) {
	if b == nil {
		e.Byte(0)
		return
	}
	e.Uvarint(uint64(len(b)) + 1)
	e.Raw(b)
}

func (e *Encoder) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.B = append(e.B, s...)
}

// Reader parses fields from one buffer. The zero value reads an empty
// buffer; Reset points it at another.
type Reader struct {
	buf    []byte
	pos    int
	failed bool
	// Intern, when set, caches the strings Name returns.
	Intern *Intern
}

func (d *Reader) Reset(buf []byte) {
	d.buf = buf
	d.pos = 0
	d.failed = false
}

// Fail marks the input malformed: a decoder calls it for a value the layout
// forbids.
func (d *Reader) Fail() { d.failed = true }

// Err reports ErrCorrupt for any failed read and for bytes left over after
// a complete decode: a layout and its buffer must end together.
func (d *Reader) Err() error {
	if d.failed || d.pos != len(d.buf) {
		return ErrCorrupt
	}
	return nil
}

// Take returns the next n raw bytes, aliasing the buffer.
func (d *Reader) Take(n int) []byte {
	if d.failed || n < 0 || n > len(d.buf)-d.pos {
		d.failed = true
		return nil
	}
	b := d.buf[d.pos : d.pos+n : d.pos+n]
	d.pos += n
	return b
}

// Rest returns every byte not read yet, aliasing the buffer: the last field
// of a layout that runs to its end.
func (d *Reader) Rest() []byte { return d.Take(len(d.buf) - d.pos) }

func (d *Reader) Byte() byte {
	if d.failed || d.pos >= len(d.buf) {
		d.failed = true
		return 0
	}
	b := d.buf[d.pos]
	d.pos++
	return b
}

func (d *Reader) Bool() bool { return d.Byte() != 0 }

func (d *Reader) Uvarint() uint64 {
	if d.failed {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.failed = true
		return 0
	}
	d.pos += n
	return v
}

func (d *Reader) BE64() uint64 {
	if b := d.Take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

func (d *Reader) LE32() uint32 {
	if b := d.Take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *Reader) LE64() uint64 {
	if b := d.Take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Length reads a uvarint count of elements that take at least one byte
// each, failing when the bytes left cannot hold that many.
func (d *Reader) Length() int {
	v := d.Uvarint()
	if d.failed || v > uint64(len(d.buf)-d.pos) {
		d.failed = true
		return 0
	}
	return int(v)
}

// Count reads an LE32 count of size-byte elements, failing when the bytes
// left cannot hold that many.
func (d *Reader) Count(size int) int {
	v := uint64(d.LE32())
	if d.failed || v*uint64(size) > uint64(len(d.buf)-d.pos) {
		d.failed = true
		return 0
	}
	return int(v)
}

// Bytes reads a nil-biased byte string (Encoder.Bytes), aliasing the buffer.
func (d *Reader) Bytes() []byte {
	v := d.Uvarint()
	if d.failed || v == 0 {
		return nil
	}
	if v-1 > uint64(len(d.buf)-d.pos) {
		d.failed = true
		return nil
	}
	return d.Take(int(v - 1))
}

// StrBytes returns the raw bytes of the next string, aliasing the buffer.
func (d *Reader) StrBytes() []byte { return d.Take(d.Length()) }

func (d *Reader) Str() string { return string(d.StrBytes()) }

// Name reads a string through Intern, when one is set.
func (d *Reader) Name() string {
	if d.Intern != nil {
		return d.Intern.Get(d.StrBytes())
	}
	return d.Str()
}

// Flags reads a uvarint bitmask, failing on any bit outside known.
func (d *Reader) Flags(known uint64) uint64 {
	v := d.Uvarint()
	if v&^known != 0 {
		d.failed = true
		return 0
	}
	return v
}

// ReadUvarint reads one uvarint from a stream a byte at a time, consuming
// nothing past it: the length prefix of a section that is then read as its
// bytes arrive. Errors are binary.ReadUvarint's.
func ReadUvarint(r io.Reader) (uint64, error) {
	return binary.ReadUvarint(byteReader{r})
}

type byteReader struct{ io.Reader }

func (r byteReader) ReadByte() (byte, error) {
	var b [1]byte
	_, err := io.ReadFull(r.Reader, b[:])
	return b[0], err
}

// Intern caches the small, recurring identifier strings of one stream —
// table, column and projection names — so steady-state decoding allocates
// no strings. The cache is bounded: a peer inventing unbounded identifiers
// pays its own allocations instead of growing ours.
type Intern struct {
	m map[string]string
}

const internLimit = 1024

func (in *Intern) Get(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if in.m == nil {
		in.m = make(map[string]string, 16)
	}
	if s, ok := in.m[string(b)]; ok { // no alloc: compiler-optimized lookup
		return s
	}
	s := string(b)
	if len(in.m) < internLimit {
		in.m[s] = s
	}
	return s
}
