// Package storage implements EncDBDB's persistency layer: the in-memory
// database stores all primary data in RAM and uses disk as secondary storage
// (paper §2.1; Fig. 5 step 4 "the storage management ... stores all data on
// disk for persistency and additionally loads it into main memory").
//
// The on-disk format is a self-describing binary column store: a magic
// header, the table schema, validity vectors, then one section per column
// (the main store's split, then the delta entries), all covered by a
// trailing CRC-32. The split section is dict's binary layout
// (dict.Split.AppendBinary) — the bytes the wire's bulk import and the WAL's
// import records carry too: dictionary payloads verbatim, which are PAE
// ciphertexts, so a stolen disk reveals exactly as much as a stolen memory
// image (the attacker the paper defends against already sees both), and the
// attribute vector exactly as the engine scans it in memory, so neither a
// save nor a load unpacks or re-packs it. The header carries a format
// version; ReadTable refuses every version but the one WriteTable writes
// with ErrBadVersion.
package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"github.com/encdbdb/encdbdb/internal/bufpool"
	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/engine"
)

const (
	magic = "ENCDBDB\x01"
	// version is the one format WriteTable emits and ReadTable accepts.
	version = uint16(5)
	// maxSliceLen guards length-prefixed reads against corrupted or
	// malicious files claiming absurd sizes.
	maxSliceLen = 1 << 33
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
	cw := &crcWriter{w: w, crc: crc32.NewIEEE()}
	if _, err := cw.Write([]byte(magic)); err != nil {
		return err
	}
	e := &encoder{w: cw}
	var split []byte
	e.u16(version)
	e.str(snap.Schema.Table)
	e.u32(uint32(len(snap.Schema.Columns)))
	for _, def := range snap.Schema.Columns {
		e.str(def.Name)
		e.u8(uint8(def.Kind))
		e.u32(uint32(def.MaxLen))
		e.u32(uint32(def.BSMax))
		e.boolean(def.Plain)
	}
	e.bools(snap.MainValid)
	e.bools(snap.DeltaValid)
	for _, cs := range snap.Columns {
		e.str(cs.Name)
		split = cs.Main.AppendBinary(split[:0])
		e.bytes(split)
		e.u32(uint32(len(cs.Delta)))
		for _, d := range cs.Delta {
			e.bytes(d)
		}
	}
	if e.err != nil {
		return e.err
	}
	// Trailing CRC over everything written so far.
	sum := cw.crc.Sum32()
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], sum)
	_, err := w.Write(buf[:])
	return err
}

// ReadTable deserializes a table snapshot from r.
//
// The input is untrusted: a truncated, bit-flipped, or adversarially
// crafted file must come back as an error, never a panic (FuzzReadTable
// holds the line). Structural checks catch what they can; the deferred
// recover converts anything that slips through deeper decoding layers
// into ErrCorrupt.
func ReadTable(r io.Reader) (snap *engine.TableSnapshot, err error) {
	defer func() {
		if p := recover(); p != nil {
			snap, err = nil, fmt.Errorf("%w: decoder panic: %v", ErrCorrupt, p)
		}
	}()
	cr := &crcReader{r: r, crc: crc32.NewIEEE()}
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(cr, head); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMagic, err)
	}
	if string(head) != magic {
		return nil, ErrBadMagic
	}
	d := &decoder{r: cr}
	if ver := d.u16(); d.err == nil && ver != version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, ver)
	}
	snap = &engine.TableSnapshot{}
	snap.Schema.Table = d.str()
	ncols := int(d.u32())
	if d.err == nil && ncols > 1<<20 {
		return nil, fmt.Errorf("%w: %d columns", ErrCorrupt, ncols)
	}
	for i := 0; i < ncols && d.err == nil; i++ {
		def := engine.ColumnDef{
			Name:   d.str(),
			Kind:   dict.Kind(d.u8()),
			MaxLen: int(d.u32()),
			BSMax:  int(d.u32()),
			Plain:  d.boolean(),
		}
		snap.Schema.Columns = append(snap.Schema.Columns, def)
	}
	snap.MainValid = d.bools()
	snap.DeltaValid = d.bools()
	for i := 0; i < ncols && d.err == nil; i++ {
		cs := engine.ColumnSnapshot{Name: d.str()}
		if split := d.bytes(); d.err == nil {
			cs.Main, d.err = dict.DecodeSplit(split)
		}
		ndelta := int(d.u32())
		for j := 0; j < ndelta && d.err == nil; j++ {
			cs.Delta = append(cs.Delta, d.bytes())
		}
		snap.Columns = append(snap.Columns, cs)
	}
	if d.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, d.err)
	}
	want := cr.crc.Sum32()
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return nil, fmt.Errorf("%w: missing checksum", ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(buf[:]) != want {
		return nil, ErrBadChecksum
	}
	return snap, nil
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

// crcWriter tees writes into a CRC.
type crcWriter struct {
	w   io.Writer
	crc interface {
		io.Writer
		Sum32() uint32
	}
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.crc.Write(p) //nolint:errcheck // hash writers never fail
	return c.w.Write(p)
}

// crcReader tees reads into a CRC.
type crcReader struct {
	r   io.Reader
	crc interface {
		io.Writer
		Sum32() uint32
	}
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.crc.Write(p[:n]) //nolint:errcheck // hash writers never fail
	}
	return n, err
}

// encoder writes primitive values, capturing the first error.
type encoder struct {
	w   io.Writer
	err error
}

func (e *encoder) write(p []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(p)
	}
}

func (e *encoder) u8(v uint8) { e.write([]byte{v}) }

func (e *encoder) u16(v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	e.write(b[:])
}

func (e *encoder) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	e.write(b[:])
}

func (e *encoder) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.write(b[:])
}

func (e *encoder) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *encoder) bytes(p []byte) {
	e.u64(uint64(len(p)))
	e.write(p)
}

func (e *encoder) str(s string) { e.bytes([]byte(s)) }

// bools packs eight flags per byte.
func (e *encoder) bools(v []bool) {
	e.u64(uint64(len(v)))
	packed := make([]byte, (len(v)+7)/8)
	for i, b := range v {
		if b {
			packed[i/8] |= 1 << (i % 8)
		}
	}
	e.write(packed)
}

// decoder reads primitive values, capturing the first error.
type decoder struct {
	r   io.Reader
	err error
}

func (d *decoder) read(p []byte) {
	if d.err == nil {
		_, d.err = io.ReadFull(d.r, p)
	}
}

func (d *decoder) u8() uint8 {
	var b [1]byte
	d.read(b[:])
	return b[0]
}

func (d *decoder) u16() uint16 {
	var b [2]byte
	d.read(b[:])
	return binary.LittleEndian.Uint16(b[:])
}

func (d *decoder) u32() uint32 {
	var b [4]byte
	d.read(b[:])
	return binary.LittleEndian.Uint32(b[:])
}

func (d *decoder) u64() uint64 {
	var b [8]byte
	d.read(b[:])
	return binary.LittleEndian.Uint64(b[:])
}

func (d *decoder) boolean() bool { return d.u8() != 0 }

func (d *decoder) sliceLen() int {
	n := d.u64()
	if d.err == nil && n > maxSliceLen {
		d.err = fmt.Errorf("length %d exceeds limit", n)
		return 0
	}
	return int(n)
}

// bytes grows its result as the stream delivers data
// (bufpool.ReadFull) instead of trusting a length prefix that may pass the
// maxSliceLen sanity bound corrupted (FuzzReadTable found the difference
// the hard way).
func (d *decoder) bytes() []byte {
	n := d.sliceLen()
	if d.err != nil || n == 0 {
		return nil
	}
	p, err := bufpool.ReadFull(d.r, n)
	if err != nil {
		d.err = err
		return nil
	}
	return p
}

func (d *decoder) str() string { return string(d.bytes()) }

func (d *decoder) bools() []bool {
	n := d.sliceLen()
	if d.err != nil {
		return nil
	}
	packed, err := bufpool.ReadFull(d.r, (n+7)/8)
	if err != nil {
		d.err = err
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = packed[i/8]&(1<<(i%8)) != 0
	}
	return out
}
