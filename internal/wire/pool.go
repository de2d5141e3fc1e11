package wire

import (
	"context"
	"fmt"
	"sync"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/engine"
)

// Pool fans calls out over a fixed set of connections to one provider,
// round-robin. A single multiplexed connection already carries many
// in-flight calls; a Pool is for callers that additionally want more than
// one TCP stream — e.g. when one stream's in-order delivery or kernel
// buffering becomes the bottleneck under heavy concurrent load. A
// connection whose sticky failure tripped is redialed in place on the next
// pick, so one transient drop does not degrade its rotation slot forever.
// It exposes the same call surface as Client (it implements proxy.Executor
// and the owner's setup operations) and is safe for concurrent use.
type Pool struct {
	addr string
	opts []ClientOption

	mu      sync.Mutex
	clients []*Client
	next    uint64
	closed  bool
}

// DialPool opens size connections to addr. Each connection negotiates the
// protocol version independently (see Dial). Options apply to every
// connection, including replacements redialed after a sticky failure.
func DialPool(addr string, size int, opts ...ClientOption) (*Pool, error) {
	if size < 1 {
		return nil, fmt.Errorf("wire: pool size must be >= 1, got %d", size)
	}
	p := &Pool{addr: addr, opts: opts, clients: make([]*Client, 0, size)}
	for i := 0; i < size; i++ {
		c, err := Dial(addr, opts...)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.clients = append(p.clients, c)
	}
	return p, nil
}

// Size returns the number of pooled connections.
func (p *Pool) Size() int { return len(p.clients) }

// Close terminates every pooled connection, returning the first error.
func (p *Pool) Close() error {
	p.mu.Lock()
	p.closed = true
	clients := append([]*Client(nil), p.clients...)
	p.mu.Unlock()
	var first error
	for _, c := range clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// pick rotates through the pooled connections, skipping poisoned ones and
// redialing their slots. If the provider is unreachable the last broken
// client is returned and its sticky error propagates to the caller.
func (p *Pool) pick() *Client {
	p.mu.Lock()
	defer p.mu.Unlock()
	var last *Client
	for i := 0; i < len(p.clients); i++ {
		c := p.clients[p.next%uint64(len(p.clients))]
		slot := p.next % uint64(len(p.clients))
		p.next++
		if c.healthy() {
			return c
		}
		last = c
		if p.closed {
			continue
		}
		if fresh, err := Dial(p.addr, p.opts...); err == nil {
			p.clients[slot] = fresh
			return fresh
		}
	}
	return last
}

// Quote requests a remote attestation quote bound to nonce.
func (p *Pool) Quote(nonce []byte) (enclave.Quote, error) { return p.pick().Quote(nonce) }

// Provision ships the sealed master key to the provider's enclave. The
// enclave is shared by all connections, so provisioning once suffices.
func (p *Pool) Provision(sk enclave.SealedKey) error { return p.pick().Provision(sk) }

// ImportColumn bulk-loads a pre-built column split.
func (p *Pool) ImportColumn(table, column string, s *dict.Split) error {
	return p.pick().ImportColumn(table, column, s)
}

// Schema fetches a table schema.
func (p *Pool) Schema(table string) (engine.Schema, error) { return p.pick().Schema(table) }

// CreateTable registers a schema at the provider.
func (p *Pool) CreateTable(s engine.Schema) error { return p.pick().CreateTable(s) }

// DropTable removes a table at the provider.
func (p *Pool) DropTable(name string) error { return p.pick().DropTable(name) }

// Select evaluates an encrypted query remotely.
func (p *Pool) Select(ctx context.Context, q engine.Query) (*engine.Result, error) {
	return p.pick().Select(ctx, q)
}

// SelectStream evaluates an encrypted query remotely, streaming the result
// in chunks over one pooled connection.
func (p *Pool) SelectStream(ctx context.Context, q engine.Query) (engine.ResultStream, error) {
	return p.pick().SelectStream(ctx, q)
}

// InsertBatch appends rows in one round trip on one pooled connection.
func (p *Pool) InsertBatch(ctx context.Context, table string, rows []engine.Row) error {
	return p.pick().InsertBatch(ctx, table, rows)
}

// Delete invalidates matching rows.
func (p *Pool) Delete(ctx context.Context, table string, filters []engine.Filter) (int, error) {
	return p.pick().Delete(ctx, table, filters)
}

// Update rewrites matching rows.
func (p *Pool) Update(ctx context.Context, table string, filters []engine.Filter, set engine.Row) (int, error) {
	return p.pick().Update(ctx, table, filters, set)
}

// Merge folds the delta store remotely.
func (p *Pool) Merge(ctx context.Context, table string) error { return p.pick().Merge(ctx, table) }

// MergeAsync starts a background merge at the provider.
func (p *Pool) MergeAsync(ctx context.Context, table string) (bool, error) {
	return p.pick().MergeAsync(ctx, table)
}

// MergeStatus reports the remote table's delta/merge lifecycle state.
func (p *Pool) MergeStatus(ctx context.Context, table string) (engine.MergeInfo, error) {
	return p.pick().MergeStatus(ctx, table)
}

// Tables lists remote tables.
func (p *Pool) Tables() ([]string, error) { return p.pick().Tables() }

// Rows returns a remote table's total row count.
func (p *Pool) Rows(table string) (int, error) { return p.pick().Rows(table) }

// StorageBytes returns a remote table's storage footprint.
func (p *Pool) StorageBytes(table string) (int, error) { return p.pick().StorageBytes(table) }
