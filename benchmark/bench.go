package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	gen "github.com/encdbdb/encdbdb/internal/workload"
)

// config is one invocation's settings after flag parsing.
type config struct {
	seed     int64
	window   time.Duration // the measured window per workload
	scale    int           // table rows are divided by this (100 under -smoke)
	pool     int           // statements per class pool
	traced   int           // traced statements per class
	setups   int           // set-up repetitions per run; setup_s uses their median
	clients  int
	outDir   string // result.json and the trace files
	workRoot string // data directories and crash copies live in a fresh directory under it
}

// report is everything one workload run produced.
type report struct {
	Workload   string             `json:"workload"`
	Why        string             `json:"why"`
	Rows       int                `json:"rows"`
	Clients    int                `json:"clients"`
	WindowS    float64            `json:"window_s"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Samples    int                `json:"latency_samples"`
	FirstError string             `json:"first_error,omitempty"`
	EndToEnd   map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`
	// Info holds figures that describe the run but are not regression
	// metrics: the generator's own share of the window, merges spanned,
	// the stated flush policy.
	Info map[string]any `json:"info,omitempty"`
}

// setUp brings the workload's table up on a fresh provider cfg.setups times
// and keeps the last one. It returns the serving stack, the median seconds
// of one bring-up (open + build + import) and the last bring-up's statistics.
// For the traced pass the provider has metrics on and also gets the table's
// PLAIN twin. The plaintext model is released at the end.
func setUp(w *workload, cfg config, dir string, traced bool) (*stack, float64, buildStats, error) {
	var times []float64
	for rep := 0; ; rep++ {
		dataDir := ""
		if w.ingest != nil {
			dataDir = filepath.Join(dir, fmt.Sprintf("data-%d", rep))
		}
		start := time.Now()
		st, err := openStack(dataDir, traced)
		if err != nil {
			return nil, 0, buildStats{}, err
		}
		bs, err := st.deploy(w.table, false)
		if err != nil {
			st.close()
			return nil, 0, bs, err
		}
		times = append(times, time.Since(start).Seconds())
		if rep == cfg.setups-1 {
			if traced {
				if _, err := st.deploy(w.table, true); err != nil {
					st.close()
					return nil, 0, bs, err
				}
			}
			w.table.release()
			runtime.GC()
			return st, median(times), bs, nil
		}
		if err := st.close(); err != nil {
			return nil, 0, bs, err
		}
		os.RemoveAll(dataDir)
	}
}

// measure runs one workload's end-to-end pass: set-up, warm-up, the measured
// window with tracing and provider metrics off, and the checks after it.
func measure(ctx context.Context, w *workload, cfg config, dir string, listed []metricSpec) (*report, error) {
	st, bringUp, _, err := setUp(w, cfg, dir, false)
	if err != nil {
		return nil, err
	}
	defer st.close()

	clients := cfg.clients
	if w.ingest != nil && clients < 2 {
		clients = 2 // one reader and at least one writer
	}
	start := time.Now()
	if err := st.connect(ctx, clients, w.templates); err != nil {
		return nil, err
	}
	total := warmUp(ctx, w, st.clients)
	warmSeconds := time.Since(start).Seconds()

	rep := &report{Workload: w.name, Rows: w.table.rows, Clients: clients, Info: map[string]any{}}
	values := map[string]float64{"setup_s": w.genSeconds + bringUp + warmSeconds}
	rep.Info["setup_generate_s"] = w.genSeconds
	rep.Info["setup_bring_up_s"] = bringUp
	rep.Info["setup_warm_up_s"] = warmSeconds

	// Space is read before the window, on the table as it was loaded: the
	// tables are fixed, so the ratio repeats exactly. After the ingest window
	// it would move with the number of rows the host let the writers send
	// (1.7% across ten runs, against a bound of 2%); what the written rows
	// cost on disk is the traced pass's storage.file_bytes_per_plain_byte.
	stored, err := st.db.StorageBytes(w.table.name)
	if err != nil {
		return nil, err
	}
	values["stored_bytes_per_plain_byte"] = float64(stored) / float64(w.table.plainBytes)

	var (
		window  *tally
		elapsed time.Duration
		ingest  *ingestOutcome
	)
	if w.ingest != nil {
		window, elapsed, ingest = ingestWindow(ctx, w, st, cfg.seed, cfg.window)
		rep.Info["merges_completed"] = ingest.merges
		rep.Info["flush_policy"] = "SyncPolicy always: every acknowledged write was fsynced (group commit)"
		rep.Info["crash_copy"] = ingest.crashCopy
		rep.Info["crash_copy_replayed_records"] = ingest.recovery.ReplayedRecords
	} else {
		window, elapsed = closedLoop(ctx, w, st.clients, cfg.seed, cfg.window)
	}
	total.merge(window)
	secs := elapsed.Seconds()
	rep.WindowS = secs
	rep.Attempted, rep.Failed, rep.FirstError = total.attempted, total.failed, total.firstErr
	rep.Samples = len(window.samples)
	rep.Info["gen.busy_pct"] = 100 * (1 - window.inCall.Seconds()/(secs*float64(clients)))

	// Latency over the whole mix, then per class. A class metric that the
	// workload has no class for repeats the mix figure of the same kind (see
	// README, "Metrics on every workload"): every workload reports every
	// metric, and none is ever 0.
	all := make([]float64, 0, len(window.samples))
	byClass := map[int][]float64{}
	for _, s := range window.samples {
		all = append(all, s.ms)
		byClass[s.class] = append(byClass[s.class], s.ms)
	}
	correct := float64(window.attempted - window.failed)
	values["throughput_ops_s"] = correct / secs
	values["lat_p50_ms"] = median(all)
	// The regression-gated tail is the p95: the p99 moves with the host's
	// jitter by more than any bound the driver allows (see README), so it is
	// printed as information only.
	values["lat_p95_ms"] = gen.Percentile(all, 0.95)
	rep.Info["lat_p99_ms"] = gen.Percentile(all, 0.99)
	values["result_rows_s"] = float64(window.delivered) / secs
	for _, m := range listed {
		if strings.HasPrefix(m.Name, "lat_p50_ms.") {
			values[m.Name] = values["lat_p50_ms"]
		}
	}
	for ci, c := range w.classes {
		values["lat_p50_ms."+c.name] = median(byClass[ci])
	}
	values["read_p95_ms"] = values["lat_p95_ms"]
	values["ingest_rows_s"] = values["throughput_ops_s"]
	if w.ingest != nil {
		values["read_p95_ms"] = gen.Percentile(byClass[0], 0.95)
		rep.Info["read_p99_ms"] = gen.Percentile(byClass[0], 0.99)
		values["ingest_rows_s"] = float64(ingest.ackedRows) / secs
	}
	rep.EndToEnd = values
	rep.Info["heap_mb_after_run"] = heapMB()
	return rep, nil
}

func heapMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
