package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"text/tabwriter"
)

// envelope identifies the build and host every output carries.
type envelope struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Seed       int64   `json:"seed"`
	Clients    int     `json:"clients"`
	WindowS    float64 `json:"window_s"`
	Scale      int     `json:"rows_divided_by"`
}

func newEnvelope(cfg config) envelope {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return envelope{
		Commit: commit, GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Seed: cfg.seed, Clients: cfg.clients, WindowS: cfg.window.Seconds(), Scale: cfg.scale,
	}
}

func printEnvelope(cfg config) {
	e := newEnvelope(cfg)
	fmt.Printf("encdbdb benchmark  commit=%s go=%s GOMAXPROCS=%d nproc=%d seed=%d clients=%d window=%gs rows/%d\n",
		e.Commit, e.GoVersion, e.GOMAXPROCS, e.NProc, e.Seed, e.Clients, e.WindowS, e.Scale)
	fmt.Println("closed loop: every client waits for its answer before its next statement; provider in-process behind loopback TCP, default options")
}

// printReport prints one workload's metrics by name with unit and bound.
func printReport(sp *spec, r *report) {
	fmt.Printf("\n== %s  rows=%d clients=%d window=%.2fs attempted=%d failed=%d error_rate=%.6f latency_samples=%d\n",
		r.Workload, r.Rows, r.Clients, r.WindowS, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)), r.Samples)
	fmt.Printf("   %s\n", r.Why)
	if r.FirstError != "" {
		fmt.Printf("   first failure: %s\n", r.FirstError)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	if r.EndToEnd != nil {
		fmt.Fprintf(tw, "end-to-end metric\tvalue\tunit\tbetter\tbound\n")
		for _, m := range sp.EndToEnd {
			fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%g%%\n", m.Name, r.EndToEnd[m.Name], m.Unit, m.Better, 100*m.Bound)
		}
	}
	if r.PerLayer != nil {
		fmt.Fprintf(tw, "per-layer metric\tvalue\tunit\tbetter\t\n")
		for _, m := range sp.PerLayer {
			fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t\n", m.Name, r.PerLayer[m.Name], m.Unit, m.Better)
		}
	}
	tw.Flush()
	for _, k := range []string{"lat_p99_ms", "read_p99_ms", "gen.busy_pct", "merges_completed", "crash_copy", "crash_copy_replayed_records", "flush_policy"} {
		if v, ok := r.Info[k]; ok {
			fmt.Printf("   %s = %v\n", k, v)
		}
	}
}

// writeResult writes every report of the invocation as one JSON document.
func writeResult(cfg config, reports []*report) error {
	doc := struct {
		Envelope  envelope  `json:"envelope"`
		Workloads []*report `json:"workloads"`
	}{newEnvelope(cfg), reports}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, "result.json"), append(blob, '\n'), 0o644)
}

// printContractLine prints the one-line result the benchmark driver reads:
// the end-to-end metrics under -trace 0, the per-layer metrics under
// -trace 1.
func printContractLine(sp *spec, r *report, trace int) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	list, values := sp.EndToEnd, r.EndToEnd
	if trace == 1 {
		list, values = sp.PerLayer, r.PerLayer
	}
	metrics := make(map[string]value, len(list))
	for _, m := range list {
		metrics[m.Name] = value{values[m.Name], m.Unit}
	}
	blob, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(blob))
	return nil
}

// selfCheck runs the set twice on the same build and reports, per workload
// and end-to-end metric, both values, their relative gap and whether the gap
// stays within the metric's bound. A gap beyond the bound is "unresolved":
// the benchmark cannot tell a regression of that size from its own noise.
func selfCheck(ctx context.Context, sp *spec, cfg config, names []string) int {
	var sets [2][]*report
	for i := range sets {
		var err error
		if sets[i], err = runAll(ctx, sp, cfg, names, 0); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	fmt.Printf("\n== selfcheck: two runs of the same build, seed %d\n", cfg.seed)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\trun 1\trun 2\tgap\tbound\tverdict\n")
	bad := 0
	for wi, a := range sets[0] {
		b := sets[1][wi]
		bad += a.Failed + b.Failed
		for _, m := range sp.EndToEnd {
			gap := relGap(a.EndToEnd[m.Name], b.EndToEnd[m.Name])
			verdict := "ok"
			if gap > m.Bound {
				verdict = "unresolved"
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.1f%%\t%g%%\t%s\n", a.Workload, m.Name, a.EndToEnd[m.Name], b.EndToEnd[m.Name], 100*gap, 100*m.Bound, verdict)
		}
	}
	tw.Flush()
	if bad > 0 {
		return 1
	}
	return 0
}
