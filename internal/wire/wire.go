// Package wire implements the network protocol between the trusted side
// (data owner, proxy) and the untrusted DBaaS provider (paper Fig. 2): a
// length-prefixed binary protocol over TCP.
//
// The protocol is multiplexed: every request carries a connection-unique
// ID, so a client keeps many calls in flight over one connection and the
// server answers them out of order as its per-request workers finish.
// Every message — data plane and control plane alike — travels in package
// codec's primitives (codec.go): each frame is encoded once, outside
// the connection's write lock, into a pooled scratch buffer and written
// whole, and decodes with zero reflection into pooled objects whose byte
// fields alias pooled frame buffers (internal/bufpool).
// A connection opens with a hello exchange carrying a version byte (see
// helloMagic); a peer that proposes any version but this build's is refused
// with ErrUnsupportedVersion — there is one protocol and no downgrade.
//
// The server applies admission control per connection: a bounded dispatch
// queue (WithQueueDepth) sheds excess requests immediately with
// ErrServerBusy instead of queueing them, an optional per-request deadline
// (WithRequestTimeout) bounds how long an admitted request may run — queue
// wait included — and Close drains: accepted requests finish and their
// responses are delivered before connections close. With WithMetrics the
// server additionally exports per-op request/error/latency families plus
// connection, byte, and admission-outcome counters on a metrics.Registry.
//
// The protocol carries only what the paper's attacker may see anyway:
// attestation quotes, sealed keys, schemas, PAE-encrypted query ranges,
// ciphertext cells and plaintext ValueID structures. EncDBDB's protocol
// "runs in one round and only encrypts the values in the query" (paper
// §6.3); every operation here is likewise a single request/response
// round trip — multiplexing changes how many rounds share a connection,
// not what any single round reveals.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"github.com/encdbdb/encdbdb/internal/bufpool"
	"github.com/encdbdb/encdbdb/internal/codec"
)

// maxFrame caps a frame at 1 GiB to bound allocations from a malicious or
// corrupted peer.
const maxFrame = 1 << 30

// ErrFrameTooLarge is returned when a peer announces an oversized frame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// importRowsPerByte caps the rows an opImportColumn split may claim per byte
// of its binary layout. The engine allocates a validity bit per imported
// row, but a zero-width vector (|D| = 1) holds no words, so without this cap
// a 60-byte import could claim 2^31 rows. The densest vector of nonzero
// width, width-0 FoR blocks, holds 73 rows per byte (1024 rows in 14).
const importRowsPerByte = 128

// protoVersion is the one protocol version this build speaks. Any change to
// a frame's layout bumps it, so that a peer of another build is refused at
// the hello instead of having its frames misread.
const protoVersion = 8

// ErrUnsupportedVersion is returned when the peer's hello does not open with
// the protocol magic or names a version other than this build's. The
// connection is closed; nothing after a failed hello is parsed.
var ErrUnsupportedVersion = errors.New("wire: unsupported protocol version")

// helloMagic opens every connection: each side sends these four bytes plus
// its version byte before its first frame.
var helloMagic = [4]byte{'E', 'D', 'B', '2'}

// writeHello sends the magic and this build's version byte.
func writeHello(w io.Writer) error {
	_, err := w.Write(append(helloMagic[:], protoVersion))
	return err
}

// readHello consumes the peer's hello and checks it: anything but the magic
// followed by protoVersion is an ErrUnsupportedVersion.
func readHello(r io.Reader) error {
	var h [5]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return err
	}
	if [4]byte(h[:4]) != helloMagic {
		return fmt.Errorf("%w: peer did not open with the protocol magic", ErrUnsupportedVersion)
	}
	if h[4] != protoVersion {
		return fmt.Errorf("%w: peer speaks %d, this build speaks %d", ErrUnsupportedVersion, h[4], protoVersion)
	}
	return nil
}

// op identifies a request type.
type op uint8

const (
	opQuote op = iota + 1
	opProvision
	opSchema
	opCreateTable
	opDropTable
	// opSelect answers with result chunk frames under the request's ID:
	// every frame but the last sets response.More, and the last carries the
	// final chunk (an empty answer's names its columns and holds no rows; a
	// count-only answer has none) and the total count in response.N. A point
	// lookup is one frame each way.
	opSelect
	opInsert
	opDelete
	opUpdate
	opMerge
	opImportColumn
	opTables
	opRows
	opStorageBytes
	opMergeAsync
	opMergeStatus
	_ // retired with protocol 7's separate streamed select; no op moves
	// opCancel asks the server to cancel the in-flight request named by
	// request.Cancel.
	opCancel
)

// write reports whether o is a write, whose frame carries a schema digest.
func (o op) write() bool { return o == opInsert || o == opDelete || o == opUpdate }

// headerLen is a frame header's size: the payload length (u32) and the
// request ID (u64), both big-endian.
const headerLen = 12

// frameReader reads length-prefixed frames, each into a buffer drawn fresh
// from the frame pool.
type frameReader struct {
	r io.Reader
	// hdr is the frame-header scratch. A stack array would escape into the
	// reader's ReadFull call and cost one allocation per frame; a field
	// escapes once with the frameReader.
	hdr [headerLen]byte
}

// readPooled reads one frame, returning its request ID and payload.
// Ownership of the buffer transfers to the caller, who must bufpool.Put it
// once nothing references the payload — a decoded message keeps aliasing
// its frame while later frames are already being read. The header's length
// is the peer's claim, not a promise: frames beyond the pool's largest class
// grow as their bytes arrive (bufpool.Read), so a header alone cannot make
// either side allocate what it names.
func (fr *frameReader) readPooled() (uint64, *bufpool.Buf, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(fr.hdr[:4])
	id := binary.BigEndian.Uint64(fr.hdr[4:])
	if n > maxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	buf, err := bufpool.Read(fr.r, int(n))
	if err != nil {
		return 0, nil, fmt.Errorf("wire: short frame: %w", err)
	}
	return id, buf, nil
}

// errWriterBroken poisons a connection whose outbound stream can no longer
// be trusted: a frame that was only partly written.
var errWriterBroken = errors.New("wire: connection writer broken")

// message is what a frame carries: a request or a response, each of which
// knows how to append itself to an encoder.
type message interface {
	encode(e *codec.Encoder)
}

// muxWriter is the write half of a connection. Each message is encoded once,
// outside any lock, into a pooled scratch buffer that already holds room for
// the frame header; the finished frame then goes to the buffered writer in
// one Write under a mutex, so concurrent senders encode in parallel and
// serialize only on the copy. Bursts coalesce: a writer flushes the buffered
// stream only when no other writer is queued behind it (group commit), so N
// concurrent in-flight requests cost far fewer than N syscalls.
type muxWriter struct {
	mu      sync.Mutex
	bw      *bufio.Writer
	waiters atomic.Int32
	broken  bool
}

func newMuxWriter(w io.Writer) *muxWriter {
	return &muxWriter{bw: bufio.NewWriter(w)}
}

// scratchPool recycles the encoders frames are built in. A buffer that grew
// beyond bufpool's largest class (a bulk import, a large result) is left to
// the garbage collector instead, so one such frame does not pin its size for
// the life of the process.
var scratchPool = sync.Pool{New: func() any { return new(codec.Encoder) }}

// send encodes m as one frame tagged with id and writes it. The frame is
// complete — header patched, size checked — before the lock is taken, so an
// oversized message fails with nothing written and the stream stays intact.
// A writer waiting for the lock makes the holder skip its flush (group
// commit): the chain of writers ends at one that sees no waiter, and that
// one flushes for the whole group. A failed write poisons the stream.
func (mw *muxWriter) send(id uint64, m message) error {
	e := scratchPool.Get().(*codec.Encoder)
	defer func() {
		if cap(e.B) <= bufpool.MaxPooled {
			scratchPool.Put(e)
		}
	}()
	e.B = append(e.B[:0], make([]byte, headerLen)...)
	e.Byte(codecBin)
	m.encode(e)
	n := len(e.B) - headerLen
	if n > maxFrame {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(e.B[:4], uint32(n))
	binary.BigEndian.PutUint64(e.B[4:], id)
	mw.waiters.Add(1)
	mw.mu.Lock()
	defer mw.mu.Unlock()
	mw.waiters.Add(-1)
	if mw.broken {
		return errWriterBroken
	}
	if _, err := mw.bw.Write(e.B); err != nil {
		mw.broken = true
		return err
	}
	if mw.waiters.Load() > 0 {
		return nil
	}
	return mw.bw.Flush()
}
