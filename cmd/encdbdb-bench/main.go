// Command encdbdb-bench regenerates the paper's evaluation (§6): every
// table and figure has a corresponding experiment that prints paper-style
// rows, plus the ablations listed in README.md (Benchmarks).
//
// Usage:
//
//	encdbdb-bench -exp all
//	encdbdb-bench -exp fig8a -rows 10000,100000,1000000 -queries 500 -rs 2,100
//	encdbdb-bench -exp table6 -rows 1000000
//
// Absolute numbers depend on the host; compare shapes (who wins, by what
// factor) against the paper's figures. Paper scale is -rows up to 10900000
// and -queries 500.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/encdbdb/encdbdb/internal/bench"
)

// experiments maps every -exp name to its runner.
var experiments = map[string]func(bench.Config) error{
	"table1":             bench.Table1,
	"table3":             bench.Table3,
	"table4":             bench.Table4,
	"table6":             bench.Table6,
	"fig6":               bench.Fig6,
	"fig7":               bench.Fig7,
	"fig8a":              func(c bench.Config) error { return bench.Fig8(c, bench.Fig8A) },
	"fig8b":              func(c bench.Config) error { return bench.Fig8(c, bench.Fig8B) },
	"fig8c":              func(c bench.Config) error { return bench.Fig8(c, bench.Fig8C) },
	"claims":             bench.Claims,
	"compression":        bench.Compression,
	"scan":               bench.Scan,
	"load":               bench.Load,
	"ablation-av":        bench.AblationAV,
	"ablation-optimizer": bench.AblationOptimizer,
	"ablation-bsmax":     bench.AblationBSMax,
	"ablation-enclave":   bench.AblationEnclave,
}

// order is the one experiment list: -exp all runs it in this order, and the
// -exp help text and the unknown-experiment error print it.
var order = []string{
	"table1", "table3", "table4", "table6", "fig6", "fig7",
	"fig8a", "fig8b", "fig8c", "claims", "compression", "scan", "load",
	"ablation-av", "ablation-optimizer", "ablation-bsmax", "ablation-enclave",
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "encdbdb-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp     = flag.String("exp", "all", "experiment: "+strings.Join(order, " ")+" all")
		rows    = flag.String("rows", "10000,30000", "comma-separated dataset size sweep")
		queries = flag.Int("queries", 50, "random range queries per measurement point (paper: 500)")
		rs      = flag.String("rs", "2,100", "comma-separated range sizes (paper: 2,100)")
		bsmax   = flag.Int("bsmax", 10, "frequency smoothing bucket bound for ED4-ED6 (paper: 10)")
		seed    = flag.Int64("seed", 1, "workload seed")
		workers = flag.Int("workers", 0, "attribute vector scan workers (0 = GOMAXPROCS)")
	)
	flag.Parse()

	cfg := bench.DefaultConfig(os.Stdout)
	cfg.Queries = *queries
	cfg.BSMax = *bsmax
	cfg.Seed = *seed
	cfg.Workers = *workers
	var err error
	if cfg.Rows, err = parseInts(*rows); err != nil {
		return fmt.Errorf("bad -rows: %w", err)
	}
	if cfg.RangeSizes, err = parseInts(*rs); err != nil {
		return fmt.Errorf("bad -rs: %w", err)
	}

	if *exp == "all" {
		for _, name := range order {
			fmt.Printf("==== %s ====\n", name)
			if err := experiments[name](cfg); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			fmt.Println()
		}
		return nil
	}
	f, ok := experiments[*exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q (want one of %s, all)", *exp, strings.Join(order, " "))
	}
	return f(cfg)
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		if n <= 0 {
			return nil, fmt.Errorf("value %d must be positive", n)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
