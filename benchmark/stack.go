package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"time"

	encdbdb "github.com/encdbdb/encdbdb"
	"github.com/encdbdb/encdbdb/internal/av"
	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/pae"
)

// stack is the system under test as a user deploys it: one provider
// (engine + enclave) behind a real loopback TCP listener with default
// options, and one trusted-proxy Session per client, each on its own
// multiplexed wire connection.
type stack struct {
	db      *encdbdb.Database
	edb     *engine.DB // the provider's engine, for bulk import and the traced pass
	owner   *encdbdb.DataOwner
	master  encdbdb.Key
	addr    string
	served  chan error
	clients []*client
	dataDir string
}

// client is one closed-loop caller: a Session over its own connection plus
// the workload's prepared statements.
type client struct {
	conn  *encdbdb.Client
	sess  *encdbdb.Session
	stmts []*encdbdb.Stmt
}

// masterKey is the data owner's key, fixed like the tables it protects.
func masterKey() encdbdb.Key {
	k := make(encdbdb.Key, pae.KeySize)
	rand.New(rand.NewSource(tableSeed)).Read(k)
	return k
}

// openStack launches a provisioned provider and serves it on loopback.
// dataDir != "" makes it durable with SyncPolicy "always"; metrics turns on
// the provider's registry (traced pass only).
func openStack(dataDir string, metrics bool) (*stack, error) {
	opts := encdbdb.Options{EnableMetrics: metrics}
	if dataDir != "" {
		opts.DataDir, opts.SyncPolicy = dataDir, "always"
	}
	db, err := encdbdb.Open(opts)
	if err != nil {
		return nil, err
	}
	s := &stack{db: db, master: masterKey(), dataDir: dataDir, served: make(chan error, 1)}
	if s.owner, err = encdbdb.NewDataOwnerWithKey(s.master); err != nil {
		return nil, err
	}
	if err := s.owner.Provision(db); err != nil {
		return nil, err
	}
	edb, ok := db.Executor().(*engine.DB)
	if !ok {
		return nil, fmt.Errorf("provider executor is %T, not the embedded engine", db.Executor())
	}
	s.edb = edb
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.addr = ln.Addr().String()
	go func() { s.served <- db.Serve(ln, nil) }()
	return s, nil
}

// connect dials n clients and prepares the workload's templates on each.
func (s *stack) connect(ctx context.Context, n int, templates []string) error {
	for i := 0; i < n; i++ {
		conn, err := encdbdb.Dial(s.addr)
		if err != nil {
			return err
		}
		c := &client{conn: conn}
		s.clients = append(s.clients, c)
		if c.sess, err = s.owner.RemoteSession(conn); err != nil {
			return err
		}
		for _, sql := range templates {
			st, err := c.sess.Prepare(ctx, sql)
			if err != nil {
				return fmt.Errorf("prepare %q: %w", sql, err)
			}
			c.stmts = append(c.stmts, st)
		}
	}
	return nil
}

// close disconnects the clients, stops the listener and closes the provider,
// waiting for Serve to return.
func (s *stack) close() error {
	for _, c := range s.clients {
		c.conn.Close()
	}
	s.clients = nil
	err := s.db.Close()
	select {
	case <-s.served:
	case <-time.After(10 * time.Second):
		if err == nil {
			err = fmt.Errorf("provider did not stop serving")
		}
	}
	return err
}

// buildStats describes one bulk load of a table.
type buildStats struct {
	buildSeconds float64 // dict.Build over all columns: split, encrypt, pack
	dictBytes    int
	avBytes      int
	blocks       int
	blocksRLE    int
	blocksFoR    int
}

// deploy is the data owner's bulk load (paper Fig. 5 steps 3-4) with the
// owner's randomness seeded from tableSeed, so that dictionary layouts and
// with them the enclave's probe counts repeat: every column is split and
// encrypted under its derived key on the trusted side and the split is
// imported into the provider. plain builds the PlainDBDB twin instead.
func (s *stack) deploy(t *table, plain bool) (buildStats, error) {
	var st buildStats
	schema := t.schema()
	if plain {
		schema.Table = t.name + "_plain"
		for i := range schema.Columns {
			schema.Columns[i].Plain = true
		}
	}
	if err := s.edb.CreateTable(schema); err != nil {
		return st, err
	}
	for i, def := range schema.Columns {
		p := dict.Params{Kind: def.Kind, MaxLen: def.MaxLen, BSMax: def.BSMax, Plain: plain,
			Rand: rand.New(rand.NewSource(tableSeed + int64(i)*7919))}
		start := time.Now()
		if !plain {
			key, err := pae.Derive(s.master, schema.Table, def.Name)
			if err != nil {
				return st, err
			}
			if p.Cipher, err = pae.NewCipher(key); err != nil {
				return st, err
			}
		}
		split, err := dict.Build(t.cols[i].values, p)
		if err != nil {
			return st, fmt.Errorf("build %s.%s: %w", schema.Table, def.Name, err)
		}
		st.buildSeconds += time.Since(start).Seconds()

		vec := split.Packed()
		st.dictBytes += split.DictSizeBytes()
		st.avBytes += vec.MemBytes()
		// A vector without block metadata is uniformly packed; its blocks
		// still count toward the total the encoded shares are taken of.
		st.blocks += (vec.Len() + av.BlockRows - 1) / av.BlockRows
		for _, b := range vec.Blocks() {
			switch b.Enc {
			case av.EncRLE:
				st.blocksRLE++
			case av.EncFoR:
				st.blocksFoR++
			}
		}

		if err := s.edb.ImportColumn(schema.Table, def.Name, split); err != nil {
			return st, err
		}
	}
	return st, nil
}

// workDir is where a run keeps its files (data directories, crash copies):
// a fresh directory under root, which is .bench_build in the current
// directory, so that a run reads and writes only inside its checkout.
func workDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "run-")
}

// copyDir copies the regular files of src into a new directory dst. The
// provider's data directory is flat.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
