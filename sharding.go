package encdbdb

import (
	"net/http"

	"github.com/encdbdb/encdbdb/internal/metrics"
	"github.com/encdbdb/encdbdb/internal/proxy"
	"github.com/encdbdb/encdbdb/internal/shard"
)

// ShardMap is the versioned catalog describing a shard fleet: the named
// shards, their provider addresses, and how the insert stream partitions
// across them. It serializes to shardmap.json in a data directory so a
// restarted proxy routes exactly like its predecessor.
type ShardMap = shard.Map

// ShardDesc describes one shard of a ShardMap.
type ShardDesc = shard.Desc

// ShardStatus is one shard's row in the topology display: health plus
// lifetime dispatch counters.
type ShardStatus = shard.Status

// ShardError is the typed per-shard failure every scatter-gather operation
// returns; errors.As recovers the failing shard's name and address.
type ShardError = shard.Error

// ErrShardDown marks an operation against a shard already known to be
// unhealthy. Queries that do not touch the down shard keep working; use
// errors.Is to tell a fleet-partial failure from a query error.
var ErrShardDown = shard.ErrShardDown

// ErrPartialWrite marks a failed INSERT batch that some shards stored
// their rows of nonetheless; sending it again would store those twice.
var ErrPartialWrite = proxy.ErrPartialWrite

// NewShardMap builds a hash-partitioned catalog over provider addresses,
// naming shards shard0..shardN-1.
func NewShardMap(addrs ...string) *ShardMap { return shard.NewHashMap(addrs) }

// NewRangeShardMap builds a range-partitioned catalog: bounds are the
// len(addrs)-1 ascending split points of the per-table insert sequence.
func NewRangeShardMap(bounds []uint64, addrs ...string) *ShardMap {
	return shard.NewRangeMap(addrs, bounds)
}

// LoadShardMap reads and validates a serialized catalog; path may be the
// shardmap.json file or a data directory containing one.
func LoadShardMap(path string) (*ShardMap, error) { return shard.LoadMap(path) }

// ShardedOptions configure NewShardedExecutor.
type ShardedOptions struct {
	// EnableMetrics registers the encdbdb_shard_* families (per-shard
	// request/error/latency, fan-out width, health transitions) on a fresh
	// registry served by the executor's MetricsHandler.
	EnableMetrics bool
}

// ShardedExecutor presents a shard fleet as one Executor: pass it to
// DataOwner.RemoteSession and every SQL statement routes, scatters, and
// merges across the shards — INSERT to the owning shard, SELECT fanned out
// with counts summed, rows streamed shard by shard, ORDER BY and aggregates
// combined from per-shard partials at the trusted side.
type ShardedExecutor struct {
	*shard.Executor
	reg *metrics.Registry
}

// NewShardedExecutor builds the scatter-gather executor over one backend per
// shard of m, in map order. Backends are any Executor: wire clients or pools
// (Dial/DialPool, one per shard) in production, embedded databases
// (Database.Executor) in tests. Every shard's enclave must be provisioned
// with the same master key — sharding is pure trusted-side routing, so
// per-column encryption is identical on every shard.
func NewShardedExecutor(m *ShardMap, backends []Executor, opts ...ShardedOptions) (*ShardedExecutor, error) {
	var o ShardedOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	var sopts shard.Options
	var reg *metrics.Registry
	if o.EnableMetrics {
		reg = metrics.NewRegistry()
		sopts.Metrics = reg
	}
	e, err := shard.NewExecutor(m, backends, sopts)
	if err != nil {
		return nil, err
	}
	return &ShardedExecutor{Executor: e, reg: reg}, nil
}

// MetricsHandler serves the executor's encdbdb_shard_* families in the
// Prometheus text format, or nil when ShardedOptions.EnableMetrics was off.
func (e *ShardedExecutor) MetricsHandler() http.Handler {
	if e.reg == nil {
		return nil
	}
	return e.reg.Handler()
}
