// Package storage implements EncDBDB's persistency layer: the in-memory
// database stores all primary data in RAM and uses disk as secondary storage
// (paper §2.1; Fig. 5 step 4 "the storage management ... stores all data on
// disk for persistency and additionally loads it into main memory").
//
// A table image is written in package codec's primitives, the ones wire
// frames and WAL records use, as a few length-prefixed sections covered by
// a trailing CRC-32 (format version 6):
//
//	magic ‖ uvarint version
//	section: schema (engine's layout) ‖ validity(main) ‖ validity(delta)
//	per schema column, in order:
//	  section: str name ‖ uvarint n ‖ n × bytes delta entry
//	  section: split (dict's layout)
//	LE32 CRC-32 (IEEE) of every byte before it
//
// A section is uvarint(len) ‖ len bytes; a validity vector is uvarint(n) ‖
// the n flags, eight per byte. The split section is dict's binary layout
// (dict.Split.AppendBinary) — the bytes the wire's bulk import and the WAL's
// import records carry too: dictionary payloads verbatim, which are PAE
// ciphertexts, so a stolen disk reveals exactly as much as a stolen memory
// image (the attacker the paper defends against already sees both), and the
// attribute vector exactly as the engine scans it in memory, so neither a
// save nor a load unpacks or re-packs it. ReadTable refuses every format
// version but the one WriteTable writes with ErrBadVersion.
package storage

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"github.com/encdbdb/encdbdb/internal/bufpool"
	"github.com/encdbdb/encdbdb/internal/codec"
	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/engine"
)

const (
	magic = "ENCDBDB\x01"
	// version is the one format WriteTable emits and ReadTable accepts.
	version = 6
	// maxSection bounds a section's claimed length, keeping it an int.
	maxSection = 1 << 40
)

// Errors returned when loading a table file.
var (
	ErrBadMagic    = errors.New("storage: not an EncDBDB table file")
	ErrBadVersion  = errors.New("storage: unsupported file version")
	ErrBadChecksum = errors.New("storage: checksum mismatch (file corrupted)")
	ErrCorrupt     = errors.New("storage: malformed table file")
)

// WriteTable serializes a table snapshot to w.
func WriteTable(w io.Writer, snap *engine.TableSnapshot) error {
	sum := crc32.NewIEEE()
	out := io.MultiWriter(w, sum)
	var pre, sec codec.Encoder
	pre.Raw([]byte(magic))
	pre.Uvarint(version)
	// flush writes what pre holds, then sec as one section.
	flush := func() error {
		pre.Uvarint(uint64(len(sec.B)))
		_, err := out.Write(pre.B)
		if err == nil {
			_, err = out.Write(sec.B)
		}
		pre.B, sec.B = pre.B[:0], sec.B[:0]
		return err
	}
	snap.Schema.Encode(&sec)
	appendValidity(&sec, snap.MainValid)
	appendValidity(&sec, snap.DeltaValid)
	if err := flush(); err != nil {
		return err
	}
	for _, cs := range snap.Columns {
		sec.Str(cs.Name)
		sec.Uvarint(uint64(len(cs.Delta)))
		for _, v := range cs.Delta {
			sec.Bytes(v)
		}
		if err := flush(); err != nil {
			return err
		}
		sec.B = cs.Main.AppendBinary(sec.B)
		if err := flush(); err != nil {
			return err
		}
	}
	pre.LE32(sum.Sum32())
	_, err := w.Write(pre.B)
	return err
}

// ReadTable deserializes a table snapshot from r.
//
// The input is untrusted: a truncated, bit-flipped, or adversarially
// crafted file must come back as an error, never a panic (FuzzReadTable
// holds the line). Each section is read as its bytes arrive
// (bufpool.ReadFull), so a length claim costs no memory before its bytes
// exist, and every count inside a section is bounded by the section's
// bytes. The deferred recover converts anything that slips through deeper
// decoding layers into ErrCorrupt.
func ReadTable(r io.Reader) (snap *engine.TableSnapshot, err error) {
	defer func() {
		if p := recover(); p != nil {
			snap, err = nil, fmt.Errorf("%w: decoder panic: %v", ErrCorrupt, p)
		}
	}()
	sum := crc32.NewIEEE()
	in := io.TeeReader(r, sum)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(in, head); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMagic, err)
	}
	if string(head) != magic {
		return nil, ErrBadMagic
	}
	switch ver, err := codec.ReadUvarint(in); {
	case err != nil:
		return nil, fmt.Errorf("%w: version: %v", ErrCorrupt, err)
	case ver != version:
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, ver)
	}
	var d codec.Reader
	next := func() error {
		b, err := readSection(in)
		d.Reset(b)
		return err
	}
	if err := next(); err != nil {
		return nil, err
	}
	snap = &engine.TableSnapshot{}
	snap.Schema.Decode(&d)
	snap.MainValid = readValidity(&d)
	snap.DeltaValid = readValidity(&d)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	for range snap.Schema.Columns {
		if err := next(); err != nil {
			return nil, err
		}
		cs := engine.ColumnSnapshot{Name: d.Str()}
		if n := d.Length(); n > 0 {
			cs.Delta = make([][]byte, n)
			for i := range cs.Delta {
				cs.Delta[i] = d.Bytes()
			}
		}
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("%w: column %q: %v", ErrCorrupt, cs.Name, err)
		}
		split, err := readSection(in)
		if err != nil {
			return nil, err
		}
		if cs.Main, err = dict.DecodeSplit(split); err != nil {
			return nil, fmt.Errorf("%w: column %q: %v", ErrCorrupt, cs.Name, err)
		}
		snap.Columns = append(snap.Columns, cs)
	}
	want := sum.Sum32()
	var crc [4]byte
	if _, err := io.ReadFull(r, crc[:]); err != nil {
		return nil, fmt.Errorf("%w: missing checksum", ErrCorrupt)
	}
	d.Reset(crc[:])
	if d.LE32() != want {
		return nil, ErrBadChecksum
	}
	return snap, nil
}

// readSection reads one uvarint-length-prefixed section, growing it as its
// bytes arrive.
func readSection(r io.Reader) ([]byte, error) {
	n, err := codec.ReadUvarint(r)
	if err == nil && n > maxSection {
		err = fmt.Errorf("section of %d bytes", n)
	}
	var b []byte
	if err == nil {
		b, err = bufpool.ReadFull(r, int(n))
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return b, nil
}

// appendValidity packs eight flags per byte.
func appendValidity(e *codec.Encoder, v []bool) {
	e.Uvarint(uint64(len(v)))
	for i := 0; i < len(v); i += 8 {
		var b byte
		for j, ok := range v[i:min(i+8, len(v))] {
			if ok {
				b |= 1 << j
			}
		}
		e.Byte(b)
	}
}

// readValidity reads at most one flag per RecordID, a uint32.
func readValidity(d *codec.Reader) []bool {
	n := d.Uvarint()
	if n > math.MaxUint32 {
		d.Fail()
		return nil
	}
	packed := d.Take(int(n+7) / 8)
	v := make([]bool, min(int(n), 8*len(packed))) // none after a failed Take
	for i := range v {
		v[i] = packed[i/8]&(1<<(i%8)) != 0
	}
	return v
}

// SaveTable writes one table of the database to path atomically (write to a
// temp file, fsync it, rename it into place, fsync the parent directory).
//
// Both fsyncs are load-bearing; an earlier version skipped them and a
// crash shortly after SaveTable returned could surface an empty or partial
// file under the final name (the rename survived the crash, the data it
// pointed at did not) or no file at all (the rename itself was lost). The
// temp-file fsync orders the data before the rename; the directory fsync
// makes the rename durable.
func SaveTable(db *engine.DB, tableName, path string) error {
	snap, err := db.Snapshot(tableName)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("storage: create %s: %w", tmp, err)
	}
	bw := bufio.NewWriter(f)
	if err := WriteTable(bw, snap); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("storage: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a rename within it survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: open dir %s: %w", dir, err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("storage: sync dir %s: %w", dir, err)
	}
	return nil
}

// LoadTable reads a table file and restores it into the database.
func LoadTable(db *engine.DB, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("storage: open %s: %w", path, err)
	}
	defer f.Close()
	snap, err := ReadTable(bufio.NewReader(f))
	if err != nil {
		return err
	}
	return db.Restore(snap)
}
