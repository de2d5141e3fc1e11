// Package bufpool provides a size-class buffer pool for wire frame
// payloads, modeled on the mbuf pools of userspace network stacks: a fixed
// ladder of power-of-two size classes, each with its own bounded free list,
// so steady-state frame traffic recycles a small working set of buffers
// instead of allocating per frame.
//
// Ownership is explicit: Get hands the caller exclusive use of the buffer
// until Put. The pool never clears payloads — callers must not assume fresh
// buffers are zeroed — and Put-ting a buffer that is still referenced
// elsewhere is a use-after-free style bug, just without the crash. The wire
// layer's rules for when a frame payload may be released are documented in
// docs/wire-protocol.md.
//
// All counters are atomics; Get and Put take no locks and do not allocate
// once the per-class free lists are warm, so the pool itself stays off the
// allocation profile it exists to flatten.
//
// Read and ReadFull read a length-prefixed payload whose length field came
// from outside the process (a wire frame, a WAL record, a table file)
// without trusting it: beyond the largest class the buffer grows only as
// bytes arrive.
package bufpool

import (
	"io"
	"slices"
	"sync/atomic"
)

const (
	// minClassBits..maxClassBits spans 512 B to 1 MiB in power-of-two
	// classes. Larger requests are served by direct allocation and never
	// pooled.
	minClassBits = 9
	maxClassBits = 20
	numClasses   = maxClassBits - minClassBits + 1

	// perClass bounds each class's free list. Beyond it, Put drops the
	// buffer for the garbage collector — one connection's burst must not
	// pin buffers for the life of the process.
	perClass = 64

	// growChunk is ReadFull's first allocation; it doubles from there.
	growChunk = 64 << 10
)

// MaxPooled is the largest class: no buffer beyond it is kept for reuse,
// here or by the wire layer's frame encoders.
const MaxPooled = 1 << maxClassBits

// Buf is one pooled buffer. B is the caller's payload window, sized by Get;
// its capacity is the size class. Callers must not grow B past its capacity
// or retain it after Put.
type Buf struct {
	B     []byte
	class int32
}

// Stats is a point-in-time snapshot of the pool's counters.
type Stats struct {
	// Gets and Puts count Get and Put calls. Their difference is the
	// number of buffers currently checked out (or abandoned to the GC).
	Gets, Puts uint64
	// Misses counts Gets that had to allocate: an empty free list or a
	// request larger than the biggest size class.
	Misses uint64
	// RetainedBytes is the total capacity currently parked on free lists.
	RetainedBytes uint64
}

// Pool is a set of per-size-class free lists. The zero value is not usable;
// call New.
type Pool struct {
	free [numClasses]chan *Buf

	gets, puts, misses atomic.Uint64
	retained           atomic.Uint64
}

// New returns an empty pool.
func New() *Pool {
	p := &Pool{}
	for i := range p.free {
		p.free[i] = make(chan *Buf, perClass)
	}
	return p
}

// Default is the process-wide pool the wire layer uses.
var Default = New()

// classFor returns the class index for a request of n bytes, or -1 when n
// exceeds the largest class.
func classFor(n int) int {
	if n > MaxPooled {
		return -1
	}
	c := 0
	for n > 1<<(minClassBits+c) {
		c++
	}
	return c
}

// Get returns a buffer with len(B) == n. Small requests share the 512 B
// class; requests beyond the largest class are allocated directly and
// reported as misses (Put will drop them).
func (p *Pool) Get(n int) *Buf {
	p.gets.Add(1)
	c := classFor(n)
	if c < 0 {
		p.misses.Add(1)
		return &Buf{B: make([]byte, n), class: -1}
	}
	select {
	case b := <-p.free[c]:
		p.retained.Add(^uint64(cap(b.B) - 1)) // subtract
		b.B = b.B[:n]
		return b
	default:
	}
	p.misses.Add(1)
	return &Buf{B: make([]byte, n, 1<<(minClassBits+c)), class: int32(c)}
}

// Put returns a buffer to its class's free list. Oversized buffers and
// buffers overflowing a full free list are dropped for the garbage
// collector. Put(nil) is a no-op so cleanup paths need no nil checks.
func (p *Pool) Put(b *Buf) {
	if b == nil {
		return
	}
	p.puts.Add(1)
	if b.class < 0 {
		return
	}
	b.B = b.B[:cap(b.B)]
	// Once b is on the free list the next Get owns it: take its size and
	// account for it first (so Get's subtraction can never run ahead of
	// this addition), and touch b no more after the send.
	size := uint64(cap(b.B))
	p.retained.Add(size)
	select {
	case p.free[b.class] <- b:
	default:
		p.retained.Add(^(size - 1)) // list full: dropped, not retained
	}
}

// Read returns a buffer holding the next n bytes of r. A payload that fits
// the largest class is read into a pooled buffer; a larger one is grown by
// ReadFull, so a length claimed but never delivered costs memory only for
// the bytes that did arrive. On error no buffer is returned.
func (p *Pool) Read(r io.Reader, n int) (*Buf, error) {
	if classFor(n) < 0 {
		p.gets.Add(1)
		p.misses.Add(1)
		b, err := ReadFull(r, n)
		if err != nil {
			return nil, err
		}
		return &Buf{B: b, class: -1}, nil
	}
	buf := p.Get(n)
	if _, err := io.ReadFull(r, buf.B); err != nil {
		p.Put(buf)
		return nil, err
	}
	return buf, nil
}

// ReadFull reads exactly n bytes of r into a new slice that grows as the
// bytes arrive: 64 KiB first, then doubling. A length field claiming more
// than r delivers therefore costs at most about twice what was delivered,
// never the claim. Errors are io.ReadFull's.
func ReadFull(r io.Reader, n int) ([]byte, error) {
	b := make([]byte, 0, min(n, growChunk))
	for len(b) < n {
		want := min(n, max(cap(b), 2*len(b)))
		b = slices.Grow(b, want-len(b))
		k, err := io.ReadFull(r, b[len(b):want])
		b = b[:len(b)+k]
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Gets:          p.gets.Load(),
		Puts:          p.puts.Load(),
		Misses:        p.misses.Load(),
		RetainedBytes: p.retained.Load(),
	}
}

// Get draws from the Default pool.
func Get(n int) *Buf { return Default.Get(n) }

// Put returns a buffer to the Default pool.
func Put(b *Buf) { Default.Put(b) }

// Read reads from r into a buffer of the Default pool.
func Read(r io.Reader, n int) (*Buf, error) { return Default.Read(r, n) }
