package wal

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"github.com/encdbdb/encdbdb/internal/bufpool"
	"github.com/encdbdb/encdbdb/internal/codec"
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
	e := codec.Encoder{B: dst}
	e.LE32(uint32(len(payload)))
	e.LE32(crc32.ChecksumIEEE(payload))
	e.Raw(payload)
	return e.B
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
	var d codec.Reader
	d.Reset(hdr[:])
	size, sum := d.LE32(), d.LE32()
	if size > maxRecordBytes {
		return nil, fmt.Errorf("%w: implausible record size %d", errTorn, size)
	}
	// The payload grows as bytes arrive, so a torn or garbage header's
	// length claim costs no more memory than the segment actually holds.
	payload, err := bufpool.ReadFull(r, int(size))
	if err != nil {
		return nil, fmt.Errorf("%w: truncated payload: %v", errTorn, err)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", errTorn)
	}
	return payload, nil
}

// The record payload layout (segment version 4), in package codec's
// primitives; rows and schemas take engine's layouts:
//
//	byte type ‖ uvarint LSN ‖ str table ‖ uvarint gen ‖ body
//	write:  uvarint base ‖ uvarint n ‖ n × uvarint removed ID ‖ rows
//	create: schema
//	drop:   (empty)
//	import: str column ‖ split (dict's layout, running to the payload's end)

// encodeRecord serializes rec into a framed byte slice ready to append to a
// segment.
func encodeRecord(rec *engine.LogRecord) ([]byte, error) {
	var e codec.Encoder
	e.Byte(uint8(rec.Type))
	e.Uvarint(rec.LSN)
	e.Str(rec.Table)
	e.Uvarint(rec.Gen)
	switch rec.Type {
	case engine.RecordWrite:
		e.Uvarint(uint64(rec.Base))
		e.Uvarint(uint64(len(rec.Removed)))
		for _, r := range rec.Removed {
			e.Uvarint(uint64(r))
		}
		engine.EncodeRows(&e, rec.Rows)
	case engine.RecordCreate:
		if rec.Schema == nil {
			return nil, errors.New("wal: create record without schema")
		}
		rec.Schema.Encode(&e)
	case engine.RecordDrop:
		// Type, LSN and table name say it all.
	case engine.RecordImport:
		if rec.Split == nil {
			return nil, errors.New("wal: import record without split")
		}
		e.Str(rec.Column)
		e.B = rec.Split.AppendBinary(e.B)
	default:
		return nil, fmt.Errorf("wal: unknown record type %d", rec.Type)
	}
	return appendFrame(nil, e.B), nil
}

// decodeRecord parses one record payload. Row values alias payload, which
// readFrame allocated for this record alone.
func decodeRecord(payload []byte) (*engine.LogRecord, error) {
	var d codec.Reader
	d.Reset(payload)
	u32 := func() uint32 {
		v := d.Uvarint()
		if v > math.MaxUint32 {
			d.Fail()
		}
		return uint32(v)
	}
	rec := &engine.LogRecord{
		Type:  engine.RecordType(d.Byte()),
		LSN:   d.Uvarint(),
		Table: d.Str(),
		Gen:   d.Uvarint(),
	}
	switch rec.Type {
	case engine.RecordWrite:
		rec.Base = u32()
		if n := d.Length(); n > 0 {
			rec.Removed = make([]uint32, n)
			for i := range rec.Removed {
				rec.Removed[i] = u32()
			}
		}
		rec.Rows = engine.DecodeRows(&d, nil)
	case engine.RecordCreate:
		rec.Schema = new(engine.Schema)
		rec.Schema.Decode(&d)
		if rec.Schema.Table != rec.Table {
			d.Fail()
		}
	case engine.RecordDrop:
	case engine.RecordImport:
		rec.Column = d.Str()
		if split := d.Rest(); d.Err() == nil {
			var err error
			if rec.Split, err = dict.DecodeSplit(split); err != nil {
				return nil, fmt.Errorf("wal: import record: %w", err)
			}
		}
	default:
		return nil, fmt.Errorf("wal: unknown record type %d", rec.Type)
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("wal: record type %d: %w", rec.Type, err)
	}
	return rec, nil
}
