// Command benchmark is the repository's end-to-end benchmark: four workloads
// driven as SQL through the real path — Session (trusted proxy), wire
// protocol v3 over loopback TCP, Database (engine + enclave) — every answer
// checked against a plaintext model, every metric printed by the name
// BENCHMARK.json gives it, and a separate traced pass that times the calls
// into each layer from outside. See README.md in this directory.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workloadFlag := fs.String("workload", "all", "workload to run: scan-heavy, point-lookup, result-heavy, ingest-merge, or all")
	seed := fs.Int64("seed", 1, "seed of the generated tables and statements")
	seconds := fs.Int("seconds", sp.RunSeconds, "measured window per workload, in seconds")
	trace := fs.Int("trace", 2, "0: end-to-end window only; 1: traced per-layer pass only; 2: both")
	smoke := fs.Bool("smoke", false, "rows / 100, 1 s windows, 20 traced statements per class")
	selfcheck := fs.Bool("selfcheck", false, "run every workload twice and compare the end-to-end metrics against their bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := config{
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		scale:    1,
		pool:     256,
		traced:   200,
		setups:   3,
		clients:  min(runtime.NumCPU(), 4),
		outDir:   "benchmark/out",
		workRoot: ".bench_build",
	}
	if *smoke {
		cfg = smokeConfig(cfg)
	}
	names := workloadNames()
	if *workloadFlag != "all" {
		names = []string{*workloadFlag}
	}

	ctx := context.Background()
	if *selfcheck {
		return selfCheck(ctx, sp, cfg, names)
	}
	reports, err := runAll(ctx, sp, cfg, names, *trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	failed := 0
	for _, r := range reports {
		failed += r.Failed
	}
	if err := writeResult(cfg, reports); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if len(names) == 1 {
		// The driver's contract: the last line of standard output is one
		// JSON object for the workload that was asked for.
		if err := printContractLine(sp, reports[0], *trace); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// smokeConfig shrinks a configuration to smoke size: rows / 100, 1 s windows,
// 20 traced statements per class, one set-up.
func smokeConfig(cfg config) config {
	cfg.window, cfg.scale, cfg.pool, cfg.traced, cfg.setups = time.Second, 100, 64, 20, 1
	return cfg
}

// runAll runs the named workloads one after the other and prints each
// report as it completes.
func runAll(ctx context.Context, sp *spec, cfg config, names []string, trace int) ([]*report, error) {
	dir, err := workDir(cfg.workRoot)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	printEnvelope(cfg)
	var reports []*report
	for _, name := range names {
		w, err := newWorkload(name, cfg)
		if err != nil {
			return nil, err
		}
		rep := &report{Workload: name, Rows: w.table.rows, Clients: cfg.clients}
		if trace != 1 {
			if rep, err = measure(ctx, w, cfg, dir, sp.EndToEnd); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			if rep.EndToEnd, err = pick(sp.EndToEnd, rep.EndToEnd); err != nil {
				return nil, err
			}
		}
		if trace != 0 {
			if trace != 1 {
				// The end-to-end pass released the plaintext rows.
				if w, err = newWorkload(name, cfg); err != nil {
					return nil, err
				}
			}
			layers, tr, err := tracedPass(ctx, w, cfg, dir, sp.PerLayer)
			if err != nil {
				return nil, fmt.Errorf("%s traced pass: %w", name, err)
			}
			if rep.PerLayer, err = pick(sp.PerLayer, layers); err != nil {
				return nil, err
			}
			rep.Attempted += tr.attempted
			rep.Failed += tr.failed
			if rep.FirstError == "" {
				rep.FirstError = tr.firstErr
			}
		}
		rep.Why = sp.why(name)
		printReport(sp, rep)
		reports = append(reports, rep)
	}
	return reports, nil
}
