package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"github.com/encdbdb/encdbdb/internal/bufpool"
	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/engine"
)

// Frame layout: every record is length-prefixed and checksummed —
// [u32 payload length][u32 CRC-32 of payload][payload]. Recovery reads
// frames sequentially; a frame whose length runs past the file, whose
// checksum mismatches, or whose payload fails to decode marks the torn tail
// of the last segment (truncated there) or corruption in an earlier one
// (fatal).
const (
	frameHeaderLen = 8
	// maxRecordBytes bounds a single record's claimed length.
	maxRecordBytes = 1 << 30
)

// errTorn marks an incomplete or corrupt frame at the end of a segment —
// the expected signature of a crash mid-append, recoverable by truncating
// the tail, unlike corruption in the middle of the log.
var errTorn = errors.New("wal: torn record")

// appendFrame frames payload into dst.
func appendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// readFrame reads the next frame from r. io.EOF means a clean segment end;
// errTorn (possibly wrapped) means an incomplete or checksum-failing frame.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: truncated header: %v", errTorn, err)
	}
	size := binary.LittleEndian.Uint32(hdr[0:4])
	if size > maxRecordBytes {
		return nil, fmt.Errorf("%w: implausible record size %d", errTorn, size)
	}
	// The payload grows as bytes arrive, so a torn or garbage header's
	// length claim costs no more memory than the segment actually holds.
	payload, err := bufpool.ReadFull(r, int(size))
	if err != nil {
		return nil, fmt.Errorf("%w: truncated payload: %v", errTorn, err)
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, fmt.Errorf("%w: checksum mismatch", errTorn)
	}
	return payload, nil
}

// recEncoder builds a record payload with the same hand-rolled
// little-endian layout the storage package uses for table images.
type recEncoder struct{ buf []byte }

func (e *recEncoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *recEncoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *recEncoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *recEncoder) bytes(b []byte) {
	e.u32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}
func (e *recEncoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// recDecoder consumes a record payload, capturing the first error.
type recDecoder struct {
	buf []byte
	off int
	err error
}

func (d *recDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *recDecoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.fail("wal: record payload truncated at offset %d (+%d of %d)", d.off, n, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *recDecoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *recDecoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *recDecoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// count reads a u32 length and sanity-bounds it against the remaining
// payload assuming at least elem bytes per element.
func (d *recDecoder) count(elem int) int {
	n := int(d.u32())
	if d.err == nil && n*elem > len(d.buf)-d.off {
		d.fail("wal: record claims %d elements with %d bytes left", n, len(d.buf)-d.off)
		return 0
	}
	return n
}

func (d *recDecoder) bytes() []byte {
	n := d.count(1)
	b := d.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

func (d *recDecoder) str() string { return string(d.bytes()) }

// encodeRecord serializes rec into a framed byte slice ready to append to a
// segment.
func encodeRecord(rec *engine.LogRecord) ([]byte, error) {
	e := &recEncoder{}
	e.u8(uint8(rec.Type))
	e.u64(rec.LSN)
	e.str(rec.Table)
	e.u64(rec.Gen)
	switch rec.Type {
	case engine.RecordWrite:
		e.u32(rec.Base)
		e.u32(uint32(len(rec.Removed)))
		for _, r := range rec.Removed {
			e.u32(r)
		}
		e.u32(uint32(len(rec.Rows)))
		for _, row := range rec.Rows {
			e.u32(uint32(len(row)))
			for name, val := range row {
				e.str(name)
				e.bytes(val)
			}
		}
	case engine.RecordCreate:
		if rec.Schema == nil {
			return nil, errors.New("wal: create record without schema")
		}
		e.u32(uint32(len(rec.Schema.Columns)))
		for _, def := range rec.Schema.Columns {
			e.str(def.Name)
			e.u8(uint8(def.Kind))
			e.u8(boolByte(def.Plain))
			e.u32(uint32(def.MaxLen))
			e.u32(uint32(def.BSMax))
		}
	case engine.RecordDrop:
		// Type, LSN and table name say it all.
	case engine.RecordImport:
		if rec.Split == nil {
			return nil, errors.New("wal: import record without split")
		}
		e.str(rec.Column)
		// The split is the record's last field: its bytes run to the end
		// of the payload.
		e.buf = rec.Split.AppendBinary(e.buf)
	default:
		return nil, fmt.Errorf("wal: unknown record type %d", rec.Type)
	}
	return appendFrame(nil, e.buf), nil
}

// decodeRecord parses one record payload.
func decodeRecord(payload []byte) (*engine.LogRecord, error) {
	d := &recDecoder{buf: payload}
	rec := &engine.LogRecord{
		Type:  engine.RecordType(d.u8()),
		LSN:   d.u64(),
		Table: d.str(),
		Gen:   d.u64(),
	}
	switch rec.Type {
	case engine.RecordWrite:
		rec.Base = d.u32()
		nRemoved := d.count(4)
		if nRemoved > 0 {
			rec.Removed = make([]uint32, nRemoved)
			for i := range rec.Removed {
				rec.Removed[i] = d.u32()
			}
		}
		nRows := d.count(4)
		if nRows > 0 {
			rec.Rows = make([]map[string][]byte, nRows)
			for i := range rec.Rows {
				nCols := d.count(8)
				row := make(map[string][]byte, nCols)
				for j := 0; j < nCols; j++ {
					name := d.str()
					row[name] = d.bytes()
				}
				rec.Rows[i] = row
			}
		}
	case engine.RecordCreate:
		nCols := d.count(10)
		s := &engine.Schema{Table: rec.Table, Columns: make([]engine.ColumnDef, nCols)}
		for i := range s.Columns {
			s.Columns[i] = engine.ColumnDef{
				Name:   d.str(),
				Kind:   dict.Kind(d.u8()),
				Plain:  d.u8() != 0,
				MaxLen: int(d.u32()),
				BSMax:  int(d.u32()),
			}
		}
		rec.Schema = s
	case engine.RecordDrop:
	case engine.RecordImport:
		rec.Column = d.str()
		if d.err == nil {
			var err error
			if rec.Split, err = dict.DecodeSplit(d.buf[d.off:]); err != nil {
				return nil, fmt.Errorf("wal: import record: %w", err)
			}
			d.off = len(d.buf)
		}
	default:
		d.fail("wal: unknown record type %d", rec.Type)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("wal: record payload has %d trailing bytes", len(d.buf)-d.off)
	}
	return rec, nil
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
