// Command encdbdb-proxy is the trusted proxy of paper Fig. 2: it connects to
// a remote EncDBDB provider, optionally provisions the provider's enclave
// with the master key (remote attestation against the expected enclave
// identity), and then serves an interactive SQL shell in which all query
// constants are encrypted before leaving this process.
//
// With -shards the proxy fronts a fleet of providers instead of one:
// INSERTs route to the owning shard, SELECTs scatter-gather across all of
// them, and each shard's enclave is attested and provisioned separately
// (same master key — sharding is pure trusted-side routing). The shard-map
// catalog persists via -shard-map so a restarted proxy routes identically.
//
// Usage:
//
//	encdbdb-proxy -addr 127.0.0.1:7687 -provision            # fresh key
//	encdbdb-proxy -addr 127.0.0.1:7687 -key <32 hex chars>   # existing key
//	encdbdb-proxy -shards h1:7687,h2:7687,h3:7687 -shard-map ./data -provision
//
// Inside the shell, `topology` (or \topology) prints the shard map and
// per-shard health.
package main

import (
	"bufio"
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/encdbdb/encdbdb"
	"github.com/encdbdb/encdbdb/internal/shell"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "encdbdb-proxy:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr      = flag.String("addr", "127.0.0.1:7687", "provider address (single-provider mode)")
		shards    = flag.String("shards", "", "comma-separated provider addresses; fronts the fleet as one sharded database")
		shardMap  = flag.String("shard-map", "", "shard-map catalog file or data directory: loaded when present, written when -shards builds a fresh map")
		keyHex    = flag.String("key", "", "master key as 32 hex chars (default: generate fresh)")
		provision = flag.Bool("provision", false, "attest the provider enclaves and deploy the master key")
		identity  = flag.String("identity", encdbdb.DefaultEnclaveIdentity, "expected enclave code identity")
		conns     = flag.Int("conns", 1, "connections per provider (>1 uses a pooled client)")
		metrics   = flag.String("metrics-addr", "", "serve the proxy's encdbdb_shard_* metrics on this address at /metrics (sharded mode; empty = off)")
	)
	flag.Parse()

	var (
		owner *encdbdb.DataOwner
		err   error
	)
	if *keyHex == "" {
		owner, err = encdbdb.NewDataOwner()
	} else {
		var key []byte
		key, err = hex.DecodeString(*keyHex)
		if err == nil {
			owner, err = encdbdb.NewDataOwnerWithKey(key)
		}
	}
	if err != nil {
		return err
	}

	dial := func(addr string) (encdbdb.RemoteClient, func(), error) {
		if *conns > 1 {
			pool, err := encdbdb.DialPool(addr, *conns)
			if err != nil {
				return nil, nil, err
			}
			return pool, func() { pool.Close() }, nil
		}
		c, err := encdbdb.Dial(addr)
		if err != nil {
			return nil, nil, err
		}
		return c, func() { c.Close() }, nil
	}

	m, err := resolveShardMap(*shards, *shardMap)
	if err != nil {
		return err
	}

	var (
		sess     *encdbdb.Session
		sharded  *encdbdb.ShardedExecutor
		peerDesc string
	)
	if m != nil {
		// Sharded mode: one client per shard, each enclave attested and
		// provisioned on its own (paper Fig. 5 per provider), then the fleet
		// presented to the session as a single executor.
		backends := make([]encdbdb.Executor, 0, len(m.Shards))
		for _, sd := range m.Shards {
			client, closeFn, err := dial(sd.Addr)
			if err != nil {
				return fmt.Errorf("shard %s (%s): %w", sd.Name, sd.Addr, err)
			}
			defer closeFn()
			if *provision {
				if err := owner.ProvisionClient(client, encdbdb.Measurement(*identity)); err != nil {
					return fmt.Errorf("provision shard %s (%s): %w", sd.Name, sd.Addr, err)
				}
				fmt.Printf("shard %s (%s): enclave attested and provisioned\n", sd.Name, sd.Addr)
			}
			backends = append(backends, client)
		}
		sharded, err = encdbdb.NewShardedExecutor(m, backends,
			encdbdb.ShardedOptions{EnableMetrics: *metrics != ""})
		if err != nil {
			return err
		}
		sess, err = owner.RemoteSession(sharded)
		if err != nil {
			return err
		}
		peerDesc = fmt.Sprintf("%d shards (%s, map v%d)", len(m.Shards), m.Strategy, m.Version)
		if err := serveMetrics(*metrics, sharded.MetricsHandler()); err != nil {
			return err
		}
	} else {
		client, closeFn, err := dial(*addr)
		if err != nil {
			return err
		}
		defer closeFn()
		if *provision {
			if err := owner.ProvisionClient(client, encdbdb.Measurement(*identity)); err != nil {
				return fmt.Errorf("provision: %w", err)
			}
			fmt.Println("enclave attested and provisioned")
		}
		sess, err = owner.RemoteSession(client)
		if err != nil {
			return err
		}
		peerDesc = *addr
	}
	fmt.Printf("connected to %s — master key %s\n", peerDesc, hex.EncodeToString(owner.MasterKey()))
	fmt.Println(`type SQL statements, topology, or \quit`)

	// Ctrl-C cancels the statements in flight — the provider is told to
	// abandon the scan over the wire — instead of killing the shell.
	interrupt := shell.NewInterrupter(os.Stdout)
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("proxy> ")
		if !scanner.Scan() {
			fmt.Println()
			return scanner.Err()
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if line == `\quit` || line == `\q` {
			return nil
		}
		if line == "topology" || line == `\topology` {
			printTopology(os.Stdout, m, sharded, *addr)
			continue
		}
		// Semicolon-separated statements on one line run as a script:
		// consecutive INSERTs into one table cost one round trip, and a
		// syntax error names the failing statement and its offset.
		ctx := interrupt.Begin()
		results, err := sess.ExecScript(ctx, line)
		interrupt.End()
		for _, res := range results {
			shell.PrintResult(os.Stdout, res)
		}
		switch {
		case errors.Is(err, context.Canceled):
			fmt.Println("query cancelled")
		case err != nil:
			fmt.Println("error:", err)
		}
	}
}

// resolveShardMap turns the -shards / -shard-map flags into a catalog (nil =
// single-provider mode). A persisted catalog wins so restarts route
// identically; if -shards disagrees with it, the operator is told instead of
// silently re-partitioning data that already landed.
func resolveShardMap(shards, mapPath string) (*encdbdb.ShardMap, error) {
	var loaded *encdbdb.ShardMap
	if mapPath != "" {
		m, err := encdbdb.LoadShardMap(mapPath)
		if err == nil {
			loaded = m
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	if shards == "" {
		return loaded, nil
	}
	addrs := strings.Split(shards, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	if loaded != nil {
		if len(loaded.Shards) != len(addrs) {
			return nil, fmt.Errorf("shard map %s has %d shards but -shards names %d; delete the map to re-partition",
				mapPath, len(loaded.Shards), len(addrs))
		}
		// Addresses may legitimately move (new hosts, same shard count and
		// order); the catalog follows the flag.
		for i := range addrs {
			loaded.Shards[i].Addr = addrs[i]
		}
		return loaded, nil
	}
	m := encdbdb.NewShardMap(addrs...)
	if mapPath != "" {
		if err := m.Save(mapPath); err != nil {
			return nil, fmt.Errorf("save shard map: %w", err)
		}
	}
	return m, nil
}

// printTopology renders the shard map and per-shard health, or a single-node
// notice when the proxy fronts one provider.
func printTopology(w *os.File, m *encdbdb.ShardMap, sharded *encdbdb.ShardedExecutor, addr string) {
	if sharded == nil {
		fmt.Fprintf(w, "single provider %s (not sharded; start with -shards to scatter-gather)\n", addr)
		return
	}
	fmt.Fprintf(w, "shard map v%d, strategy %s, %d shards\n", m.Version, m.Strategy, len(m.Shards))
	fmt.Fprintf(w, "%-10s %-22s %-9s %9s %7s  %s\n", "SHARD", "ADDR", "HEALTH", "REQUESTS", "ERRORS", "LAST ERROR")
	for _, st := range sharded.Topology() {
		health := "ok"
		if !st.Healthy {
			health = "down"
		}
		last := st.LastError
		if len(last) > 60 {
			last = last[:57] + "..."
		}
		fmt.Fprintf(w, "%-10s %-22s %-9s %9d %7d  %s\n", st.Name, st.Addr, health, st.Requests, st.Errors, last)
	}
}

// serveMetrics exposes the sharded executor's registry at /metrics, like the
// provider's -metrics-addr.
func serveMetrics(addr string, h http.Handler) error {
	if addr == "" || h == nil {
		return nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", h)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		_ = srv.Serve(ln)
	}()
	fmt.Printf("metrics on http://%s/metrics\n", ln.Addr())
	return nil
}
