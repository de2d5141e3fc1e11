// Package bench is the experiment harness regenerating every table and
// figure of the paper's evaluation (§6), shared by the encdbdb-bench binary
// and the repository's testing.B benchmarks.
//
// Each experiment prints rows in the paper's presentation. Absolute numbers
// depend on the host; what carries over is the *shapes* (who wins, by what
// factor, where behaviour crosses over), to compare against the paper's.
// README.md (Benchmarks) lists the experiments and ablations.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/pae"
	"github.com/encdbdb/encdbdb/internal/search"
	"github.com/encdbdb/encdbdb/internal/workload"
)

// Config scales the experiments. The paper uses 10.9 M-row columns and 500
// queries per point; the defaults are laptop-scale and every knob can be
// raised to paper scale.
type Config struct {
	// Rows is the dataset size sweep for the latency figures.
	Rows []int
	// Queries is the number of random range queries per measurement point.
	Queries int
	// RangeSizes are the paper's RS values.
	RangeSizes []int
	// BSMax is the frequency smoothing parameter for ED4-ED6 (paper: 10).
	BSMax int
	// Seed makes workloads reproducible.
	Seed int64
	// Workers bounds attribute-vector scan parallelism (0 = GOMAXPROCS).
	Workers int
	// Out receives the formatted experiment output.
	Out io.Writer
	// JSONPath, when non-empty, is where the compression experiment
	// writes its machine-readable results.
	JSONPath string
	// ScanJSONPath, when non-empty, is where the fused-scan experiment
	// writes its machine-readable results.
	ScanJSONPath string
	// LoadJSONPath, when non-empty, is where the sustained-load experiment
	// writes its machine-readable results.
	LoadJSONPath string
	// LoadWindow is the per-point measurement window of the sustained-load
	// experiment (0 = 500ms). Warmup rides on top of it.
	LoadWindow time.Duration
}

// DefaultConfig returns a configuration that completes every experiment in
// seconds on a laptop while preserving the paper's shapes.
func DefaultConfig(out io.Writer) Config {
	return Config{
		Rows:         []int{10_000, 30_000},
		Queries:      50,
		RangeSizes:   []int{2, 100},
		BSMax:        10,
		Seed:         1,
		Out:          out,
		JSONPath:     "BENCH_compression.json",
		ScanJSONPath: "BENCH_scan.json",
		LoadJSONPath: "BENCH_load.json",
	}
}

// printf writes formatted experiment output.
func (c Config) printf(format string, args ...any) {
	fmt.Fprintf(c.Out, format, args...)
}

// Envelope identifies the build, host and scale a committed BENCH_*.json was
// measured at — the fields the end-to-end benchmark stamps on its runs.
type Envelope struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Rows       int    `json:"rows"`
	Seed       int64  `json:"seed"`
}

// writeJSON writes an experiment's results to path as
// {<Envelope fields>, "results": results} and reports the file on cfg.Out.
func writeJSON(cfg Config, path string, rows int, results any) error {
	env := Envelope{
		Commit: "unknown", Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), Rows: rows, Seed: cfg.Seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		vcs := map[string]string{}
		for _, s := range bi.Settings {
			vcs[s.Key] = s.Value
		}
		if rev := vcs["vcs.revision"]; rev != "" {
			env.Commit = rev
			if vcs["vcs.modified"] == "true" {
				env.Commit += "-dirty"
			}
		}
	}
	if env.Commit == "unknown" {
		// go run does not stamp VCS information; ask git directly. A
		// "-dirty" suffix marks uncommitted changes in the measured tree.
		if out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=40", "--exclude=*").Output(); err == nil {
			env.Commit = strings.TrimSpace(string(out))
		}
	}
	blob, err := json.MarshalIndent(struct {
		Envelope
		Results any `json:"results"`
	}{env, results}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: write %s: %w", path, err)
	}
	cfg.printf("wrote %s\n", path)
	return nil
}

// system is one provisioned EncDBDB deployment used as the measurement
// target: enclave, engine, and the owner-side key material for preparing
// data and queries.
type system struct {
	db     *engine.DB
	encl   *enclave.Enclave
	master pae.Key
}

// newSystem launches and provisions a fresh deployment.
func newSystem(opts ...engine.Option) (*system, error) {
	plat, err := enclave.NewPlatform()
	if err != nil {
		return nil, err
	}
	encl, err := plat.Launch(enclave.Config{Identity: "encdbdb-bench"})
	if err != nil {
		return nil, err
	}
	master, err := pae.Gen()
	if err != nil {
		return nil, err
	}
	sealed, err := enclave.SealKey(encl.Quote(nil), master)
	if err != nil {
		return nil, err
	}
	if err := encl.Provision(sealed); err != nil {
		return nil, err
	}
	return &system{db: engine.New(encl, opts...), encl: encl, master: master}, nil
}

// cipher derives the column cipher as the data owner / proxy would.
func (s *system) cipher(table, column string) (*pae.Cipher, error) {
	key, err := pae.Derive(s.master, table, column)
	if err != nil {
		return nil, err
	}
	return pae.NewCipher(key)
}

// buildSplit performs the owner-side EncDB operation for one column.
func (s *system) buildSplit(table string, def engine.ColumnDef, col [][]byte, seed int64) (*dict.Split, error) {
	p := dict.Params{
		Kind:   def.Kind,
		MaxLen: def.MaxLen,
		BSMax:  def.BSMax,
		Plain:  def.Plain,
		Rand:   rand.New(rand.NewSource(seed)),
	}
	if !def.Plain {
		c, err := s.cipher(table, def.Name)
		if err != nil {
			return nil, err
		}
		p.Cipher = c
	}
	return dict.Build(col, p)
}

// loadTable creates a one-column table and bulk-loads it.
func (s *system) loadTable(table string, def engine.ColumnDef, col [][]byte, seed int64) error {
	if err := s.db.CreateTable(engine.Schema{Table: table, Columns: []engine.ColumnDef{def}}); err != nil {
		return err
	}
	split, err := s.buildSplit(table, def, col, seed)
	if err != nil {
		return err
	}
	return s.db.ImportColumn(table, def.Name, split)
}

// filter encrypts a plaintext range as the proxy would.
func (s *system) filter(table string, def engine.ColumnDef, q search.Range) (engine.Filter, error) {
	enc := enclave.EncRange{StartIncl: q.StartIncl, EndIncl: q.EndIncl}
	if def.Plain {
		enc.Start, enc.End = q.Start, q.End
		return engine.SingleRange(def.Name, enc), nil
	}
	c, err := s.cipher(table, def.Name)
	if err != nil {
		return engine.Filter{}, err
	}
	if enc.Start, err = c.Encrypt(q.Start); err != nil {
		return engine.Filter{}, err
	}
	if enc.End, err = c.Encrypt(q.End); err != nil {
		return engine.Filter{}, err
	}
	return engine.SingleRange(def.Name, enc), nil
}

// timeQueries measures the server-side latency of the prepared filters,
// returning per-query microseconds (the paper reports "processing time
// spent at the server excluding any network delay or processing at the
// proxy").
func (s *system) timeQueries(table string, filters []engine.Filter) ([]float64, int, error) {
	lat := make([]float64, 0, len(filters))
	totalRows := 0
	for _, f := range filters {
		start := time.Now()
		res, err := s.db.Select(context.Background(), engine.Query{Table: table, Filters: []engine.Filter{f}})
		if err != nil {
			return nil, 0, err
		}
		lat = append(lat, float64(time.Since(start).Microseconds()))
		totalRows += res.Count
	}
	return lat, totalRows, nil
}

// prepareFilters pre-encrypts the query sweep so measurement excludes proxy
// work.
func (s *system) prepareFilters(table string, def engine.ColumnDef, gen *workload.QueryGen, n int) ([]engine.Filter, error) {
	filters := make([]engine.Filter, 0, n)
	for i := 0; i < n; i++ {
		f, err := s.filter(table, def, gen.Next())
		if err != nil {
			return nil, err
		}
		filters = append(filters, f)
	}
	return filters, nil
}

// defFor builds the standard single-column definition for a kind.
func defFor(kind dict.Kind, maxLen, bsmax int, plain bool) engine.ColumnDef {
	def := engine.ColumnDef{Name: "c", Kind: kind, MaxLen: maxLen, Plain: plain}
	if kind.Repetition() == dict.RepSmoothing {
		def.BSMax = bsmax
	}
	return def
}

// allKinds lists ED1-ED9 in order.
func allKinds() []dict.Kind {
	return []dict.Kind{
		dict.ED1, dict.ED2, dict.ED3,
		dict.ED4, dict.ED5, dict.ED6,
		dict.ED7, dict.ED8, dict.ED9,
	}
}

// mb formats bytes as the paper's MB figures.
func mb(n int) string {
	return fmt.Sprintf("%.2f MB", float64(n)/1e6)
}

// ms formats microsecond means as milliseconds.
func ms(us float64) string {
	return fmt.Sprintf("%.3f ms", us/1000)
}
