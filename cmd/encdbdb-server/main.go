// Command encdbdb-server runs the untrusted DBaaS provider of paper Fig. 2:
// the engine plus the enclave, exposed over the wire protocol. The enclave
// starts unprovisioned; a data owner attests and provisions it remotely
// (see cmd/encdbdb-proxy).
//
// Usage:
//
//	encdbdb-server -addr :7687 [-data-dir /var/lib/encdbdb] [-sync always|interval|none]
//	               [-metrics-addr 127.0.0.1:9187] [table.encdb ...]
//
// See docs/operations.md for production flag guidance.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"github.com/encdbdb/encdbdb"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "encdbdb-server:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:7687", "listen address")
	connWorkers := flag.Int("conn-workers", 0, "concurrent requests per multiplexed connection (0 = default)")
	queueDepth := flag.Int("queue-depth", 0, "outstanding requests per connection before shedding with a busy error (0 = conn-workers x 64)")
	reqTimeout := flag.Duration("request-timeout", 0, "per-request deadline, measured from decode (0 = none)")
	connRate := flag.Float64("conn-rate", 0, "per-connection request rate limit in requests/second, shed beyond it with a rate-limit error (0 = unlimited)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus metrics on this address at /metrics (empty = metrics off)")
	dataDir := flag.String("data-dir", "", "durability directory for the write-ahead log and checkpoint images; recovered on startup (empty = in-memory only)")
	syncPolicy := flag.String("sync", "always", "WAL fsync policy with -data-dir: always, interval, or none")
	syncEvery := flag.Duration("sync-interval", 0, "fsync cadence with -sync interval (0 = 10ms)")
	flag.Parse()

	db, err := encdbdb.Open(encdbdb.Options{
		ConnWorkers:    *connWorkers,
		QueueDepth:     *queueDepth,
		RequestTimeout: *reqTimeout,
		ConnRate:       *connRate,
		EnableMetrics:  *metricsAddr != "",
		DataDir:        *dataDir,
		SyncPolicy:     *syncPolicy,
		SyncEvery:      *syncEvery,
	})
	if err != nil {
		return err
	}
	if *dataDir != "" {
		st := db.RecoveryStats()
		log.Printf("recovered %s: %d tables restored, %d records replayed in %s (truncated tail: %v)",
			*dataDir, st.RestoredTables, st.ReplayedRecords, st.ReplayDuration.Round(time.Millisecond), st.TruncatedTail)
	}
	for _, path := range flag.Args() {
		if err := db.LoadTable(path); err != nil {
			return fmt.Errorf("load %s: %w", path, err)
		}
		log.Printf("loaded %s", path)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Printf("EncDBDB provider listening on %s (enclave measurement for identity %q awaits provisioning)",
		ln.Addr(), encdbdb.DefaultEnclaveIdentity)

	var metricsSrv *http.Server
	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", db.MetricsHandler())
		metricsSrv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := metricsSrv.Serve(mln); err != nil && err != http.ErrServerClosed {
				log.Printf("metrics server: %v", err)
			}
		}()
		log.Printf("metrics on http://%s/metrics", mln.Addr())
	}

	done := make(chan error, 1)
	go func() { done <- db.Serve(ln, log.Printf) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	select {
	case err := <-done:
		return err
	case <-sig:
		log.Printf("shutting down")
		// Close drains the server — accepted requests finish and their
		// responses are delivered before connections close (see
		// docs/operations.md) — then flushes and fsyncs the WAL tail so the
		// next start needs no replay.
		if err := db.Close(); err != nil {
			return err
		}
		err := <-done
		if metricsSrv != nil {
			metricsSrv.Close() //nolint:errcheck // scrape endpoint; nothing to drain
		}
		return err
	}
}
