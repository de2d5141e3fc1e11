package encdbdb

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/metrics"
	"github.com/encdbdb/encdbdb/internal/storage"
	"github.com/encdbdb/encdbdb/internal/wal"
	"github.com/encdbdb/encdbdb/internal/wire"
)

// Database is an EncDBDB provider instance: the untrusted engine plus the
// trusted enclave it delegates dictionary searches to. In production the
// provider runs at the DBaaS; embedded deployments hold it in process.
type Database struct {
	platform    *enclave.Platform
	encl        *enclave.Enclave
	db          *engine.DB
	srvMu       sync.Mutex // guards server: Serve runs in a goroutine, Shutdown elsewhere
	server      *wire.Server
	connWorkers int
	queueDepth  int
	reqTimeout  time.Duration
	connRate    float64
	metrics     *metrics.Registry
	log         *wal.Log
}

// Options configure Open.
type Options struct {
	// EnclaveIdentity is the enclave's code identity; its hash is the
	// attestation measurement. Defaults to DefaultEnclaveIdentity.
	EnclaveIdentity string
	// MemoryBudget caps simulated enclave memory (0 = the SGX v2 default
	// of ~96 MB).
	MemoryBudget int
	// Observer receives the enclave's untrusted memory access pattern
	// (for security evaluation).
	Observer enclave.AccessObserver
	// PadProbes makes the observable access count of sorted and rotated
	// dictionary searches independent of the queried range by issuing
	// dummy probes up to a fixed size-dependent target (side-channel
	// mitigation; see internal/enclave).
	PadProbes bool
	// Workers bounds attribute-vector scan parallelism (0 = GOMAXPROCS).
	Workers int
	// ConnWorkers bounds how many requests of one multiplexed remote
	// connection Serve executes concurrently (0 = wire default).
	ConnWorkers int
	// QueueDepth bounds how many admitted requests may be outstanding per
	// remote connection before further requests are shed with
	// wire.ErrServerBusy (0 = wire default of ConnWorkers x 64).
	QueueDepth int
	// RequestTimeout attaches a deadline to every remote request, measured
	// from decode — queue wait counts. 0 means no deadline.
	RequestTimeout time.Duration
	// ConnRate caps each remote connection's sustained request rate
	// (requests/second, token bucket with one second of burst); requests over
	// budget are shed with wire.ErrRateLimited. 0 means unlimited.
	ConnRate float64
	// EnableMetrics creates a metrics registry and instruments the engine,
	// enclave, and (once Serve runs) the wire server with it. Scrape it via
	// MetricsHandler. Off by default: an uninstrumented provider pays zero
	// metrics overhead.
	EnableMetrics bool
	// DataDir enables durability: a write-ahead log plus checkpoint images
	// live in this directory, every write is logged before it is applied,
	// and Open recovers the store from the directory's contents (surviving
	// kill -9 and power loss). Empty means in-memory only, as before.
	DataDir string
	// SyncPolicy controls when the log is fsynced: "always" (default —
	// every commit waits for durability, amortized by group commit),
	// "interval" (a background fsync every SyncEvery), or "none" (fsync
	// only at checkpoints). Ignored without DataDir.
	SyncPolicy string
	// SyncEvery is the fsync cadence under SyncPolicy "interval"
	// (0 = the wal default of 10ms).
	SyncEvery time.Duration
}

// DefaultEnclaveIdentity is the code identity of this repository's enclave.
const DefaultEnclaveIdentity = "encdbdb-enclave-v1"

// Open launches a provider: a fresh platform, a measured enclave, and an
// empty engine. The enclave must be provisioned by a DataOwner before
// encrypted columns can be used.
func Open(opts ...Options) (*Database, error) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.EnclaveIdentity == "" {
		o.EnclaveIdentity = DefaultEnclaveIdentity
	}
	platform, err := enclave.NewPlatform()
	if err != nil {
		return nil, fmt.Errorf("encdbdb: %w", err)
	}
	encl, err := platform.Launch(enclave.Config{
		Identity:     o.EnclaveIdentity,
		MemoryBudget: o.MemoryBudget,
		Observer:     o.Observer,
		PadProbes:    o.PadProbes,
	})
	if err != nil {
		return nil, fmt.Errorf("encdbdb: %w", err)
	}
	var engOpts []engine.Option
	if o.Workers != 0 {
		engOpts = append(engOpts, engine.WithWorkers(o.Workers))
	}
	var reg *metrics.Registry
	if o.EnableMetrics {
		reg = metrics.NewRegistry()
		engOpts = append(engOpts, engine.WithMetrics(reg))
		registerEnclaveMetrics(reg, encl)
	}
	db := engine.New(encl, engOpts...)
	var log *wal.Log
	if o.DataDir != "" {
		var walOpts []wal.Option
		if o.SyncPolicy != "" {
			p, err := wal.ParseSyncPolicy(o.SyncPolicy)
			if err != nil {
				return nil, fmt.Errorf("encdbdb: %w", err)
			}
			walOpts = append(walOpts, wal.WithSyncPolicy(p))
		}
		if o.SyncEvery > 0 {
			walOpts = append(walOpts, wal.WithSyncEvery(o.SyncEvery))
		}
		if reg != nil {
			walOpts = append(walOpts, wal.WithMetrics(reg))
		}
		log, err = wal.Open(o.DataDir, db, walOpts...)
		if err != nil {
			return nil, fmt.Errorf("encdbdb: %w", err)
		}
		db.SetCommitLog(log)
	}
	return &Database{
		platform:    platform,
		encl:        encl,
		db:          db,
		connWorkers: o.ConnWorkers,
		queueDepth:  o.QueueDepth,
		reqTimeout:  o.RequestTimeout,
		connRate:    o.ConnRate,
		metrics:     reg,
		log:         log,
	}, nil
}

// registerEnclaveMetrics exposes the enclave's boundary counters as sampled
// gauges. They are gauges, not counters, because ResetEnclaveStats may zero
// them between scrapes — a counter contract would make every reset look like
// a counter rollover to the scraper.
func registerEnclaveMetrics(reg *metrics.Registry, encl *enclave.Enclave) {
	reg.NewGaugeFunc("encdbdb_enclave_ecalls", "Enclave entries since the last stats reset (one per dictionary search).",
		func() float64 { return float64(encl.Stats().ECalls) })
	reg.NewGaugeFunc("encdbdb_enclave_dictionary_loads", "Dictionary entries pulled into the enclave from untrusted memory since the last stats reset.",
		func() float64 { return float64(encl.Stats().Loads) })
	reg.NewGaugeFunc("encdbdb_enclave_loaded_bytes", "Bytes of dictionary data loaded into the enclave since the last stats reset.",
		func() float64 { return float64(encl.Stats().BytesLoaded) })
	reg.NewGaugeFunc("encdbdb_enclave_decryptions", "PAE decryptions inside the enclave since the last stats reset.",
		func() float64 { return float64(encl.Stats().Decryptions) })
	reg.NewGaugeFunc("encdbdb_enclave_encryptions", "PAE encryptions inside the enclave since the last stats reset.",
		func() float64 { return float64(encl.Stats().Encryptions) })
}

// Executor exposes the provider's engine as an Executor, for in-process
// compositions that need the raw surface — e.g. one embedded backend per
// shard of a NewShardedExecutor in tests and benchmarks.
func (d *Database) Executor() Executor { return d.db }

// Tables lists the registered tables.
func (d *Database) Tables() []string { return d.db.Tables() }

// Rows returns a table's total row count (including invalidated rows).
func (d *Database) Rows(table string) (int, error) { return d.db.Rows(table) }

// StorageBytes returns a table's storage footprint in bytes.
func (d *Database) StorageBytes(table string) (int, error) { return d.db.StorageBytes(table) }

// EnclaveStats returns the enclave's boundary counters (ECALLs, loads,
// decryptions) since the last reset.
func (d *Database) EnclaveStats() enclave.Stats { return d.encl.Stats() }

// ResetEnclaveStats zeroes the boundary counters.
func (d *Database) ResetEnclaveStats() { d.encl.ResetStats() }

// ImportPlaintextTable is the trusted-setup variant of paper §4.2: the
// provider receives plaintext rows and performs the column splits and
// encryptions inside the enclave. The enclave must be provisioned first.
// Prefer DataOwner.DeployTable, which keeps plaintext on the owner's side.
func (d *Database) ImportPlaintextTable(schema Schema, rows [][]string) error {
	if err := d.db.CreateTable(schema); err != nil {
		return err
	}
	for j, def := range schema.Columns {
		if err := d.db.ImportPlaintextColumn(schema.Table, def.Name, columnOf(rows, j)); err != nil {
			return err
		}
	}
	return nil
}

// SaveTable persists one table to path (atomic write, CRC-protected).
func (d *Database) SaveTable(table, path string) error {
	return storage.SaveTable(d.db, table, path)
}

// LoadTable restores a table previously written with SaveTable.
func (d *Database) LoadTable(path string) error {
	return storage.LoadTable(d.db, path)
}

// Serve exposes the provider on a TCP listener using the wire protocol,
// blocking until Shutdown. Remote proxies connect with Dial or DialPool;
// multiplexed connections dispatch requests concurrently (bounded by
// Options.ConnWorkers).
func (d *Database) Serve(ln net.Listener, logf func(format string, args ...any)) error {
	var opts []wire.ServerOption
	if d.connWorkers > 0 {
		opts = append(opts, wire.WithConnWorkers(d.connWorkers))
	}
	if d.queueDepth > 0 {
		opts = append(opts, wire.WithQueueDepth(d.queueDepth))
	}
	if d.reqTimeout > 0 {
		opts = append(opts, wire.WithRequestTimeout(d.reqTimeout))
	}
	if d.connRate > 0 {
		opts = append(opts, wire.WithConnRate(d.connRate))
	}
	if d.metrics != nil {
		opts = append(opts, wire.WithMetrics(d.metrics))
	}
	srv := wire.NewServer(d.db, logf, opts...)
	d.srvMu.Lock()
	d.server = srv
	d.srvMu.Unlock()
	return srv.Serve(ln)
}

// MetricsHandler returns an HTTP handler serving the provider's metrics in
// the Prometheus text exposition format, or nil when Options.EnableMetrics
// was off. Mount it at /metrics on an operator-facing listener (see
// docs/operations.md); the wire families appear once Serve has started.
func (d *Database) MetricsHandler() http.Handler {
	if d.metrics == nil {
		return nil
	}
	return d.metrics.Handler()
}

// Shutdown stops a running Serve.
func (d *Database) Shutdown() error {
	d.srvMu.Lock()
	srv := d.server
	d.srvMu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

// RecoveryStats reports what the last Open replayed from the write-ahead
// log (zero value when DataDir was not set).
func (d *Database) RecoveryStats() wal.Stats {
	if d.log == nil {
		return wal.Stats{}
	}
	return d.log.Stats()
}

// Close stops a running Serve and closes the write-ahead log, flushing and
// fsyncing its tail. A provider that is Closed cleanly restarts without
// replay work; one that is killed restarts through recovery instead — both
// end in the same state.
func (d *Database) Close() error {
	err := d.Shutdown()
	if d.log != nil {
		if cerr := d.log.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
