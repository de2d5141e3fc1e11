package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/workload"
)

// tinyConfig keeps experiment self-tests fast.
func tinyConfig(buf *bytes.Buffer) Config {
	return Config{
		Rows:       []int{600},
		Queries:    8,
		RangeSizes: []int{2, 20},
		BSMax:      5,
		Seed:       42,
		Workers:    1,
		Out:        buf,
	}
}

func TestExperimentsProduceOutput(t *testing.T) {
	experiments := []struct {
		name string
		run  func(Config) error
		want []string
	}{
		{name: "table1", run: Table1, want: []string{"storage vs plaintext", "latency vs PlainDBDB"}},
		{name: "table3", run: Table3, want: []string{"frequency revealing", "frequency hiding", "|D|"}},
		{name: "table4", run: Table4, want: []string{"sorted", "rotated", "unsorted", "loads/query"}},
		{name: "fig6", run: Fig6, want: []string{"ED1", "ED9", "recovery"}},
		{name: "table6", run: Table6, want: []string{"Plaintext file", "Encrypted file", "MonetDB", "ED1/ED2/ED3", "bsmax=10", "ED7/ED8/ED9"}},
		{name: "fig7", run: Fig7, want: []string{"C1", "C2", "avg results"}},
		{name: "compression", run: Compression, want: []string{"|D|", "width", "ratio", "speedup"}},
		{name: "ablation-av", run: AblationAV, want: []string{"nested loop", "sorted probe", "bitset", "packed SWAR"}},
		{name: "ablation-optimizer", run: AblationOptimizer, want: []string{"on (default)", "off", "loads/query"}},
		{name: "ablation-bsmax", run: AblationBSMax, want: []string{"bsmax", "freq bound"}},
		{name: "ablation-enclave", run: AblationEnclave, want: []string{"ecalls", "overhead"}},
	}
	for _, tt := range experiments {
		t.Run(tt.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tt.run(tinyConfig(&buf)); err != nil {
				t.Fatalf("%s: %v\noutput:\n%s", tt.name, err, buf.String())
			}
			out := buf.String()
			for _, w := range tt.want {
				if !strings.Contains(out, w) {
					t.Errorf("%s output lacks %q:\n%s", tt.name, w, out)
				}
			}
		})
	}
}

func TestCompressionWritesJSON(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	cfg.Rows = []int{1000}
	cfg.JSONPath = filepath.Join(t.TempDir(), "BENCH_compression.json")
	if err := Compression(cfg); err != nil {
		t.Fatalf("Compression: %v", err)
	}
	blob, err := os.ReadFile(cfg.JSONPath)
	if err != nil {
		t.Fatalf("JSON file: %v", err)
	}
	var out struct {
		Envelope
		Results []CompressionPoint `json:"results"`
	}
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatalf("JSON parse: %v", err)
	}
	if out.Rows != 1000 || out.Seed != 42 || out.Go == "" || out.Commit == "" || out.GOMAXPROCS <= 0 || out.NProc <= 0 {
		t.Fatalf("JSON envelope: %+v", out.Envelope)
	}
	if len(out.Results) == 0 {
		t.Fatal("JSON has no points")
	}
	for _, p := range out.Results {
		wantRatio := float64(p.Width) / 32
		if p.AVRatio < wantRatio-0.05 || p.AVRatio > wantRatio+0.05 {
			t.Errorf("|D|=%d: AV ratio %.3f, want ~%.3f (= width/32)", p.DictLen, p.AVRatio, wantRatio)
		}
		if p.SplitMemBytes >= p.SplitUnpackedBytes {
			t.Errorf("|D|=%d: packed split %d B not below unpacked %d B",
				p.DictLen, p.SplitMemBytes, p.SplitUnpackedBytes)
		}
	}
}

func TestLoadWritesJSON(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	cfg.LoadWindow = 120 * time.Millisecond
	cfg.LoadJSONPath = filepath.Join(t.TempDir(), "BENCH_load.json")
	if err := Load(cfg); err != nil {
		t.Fatalf("Load: %v\noutput:\n%s", err, buf.String())
	}
	out := buf.String()
	for _, w := range []string{"offered load", "goodput", "shed rate", "p99", "capacity"} {
		if !strings.Contains(out, w) {
			t.Errorf("load output lacks %q:\n%s", w, out)
		}
	}
	blob, err := os.ReadFile(cfg.LoadJSONPath)
	if err != nil {
		t.Fatalf("JSON file: %v", err)
	}
	var doc struct {
		Envelope
		Results LoadReport `json:"results"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("JSON parse: %v", err)
	}
	if doc.Rows != 128 || doc.Seed != 42 || doc.Go == "" || doc.Commit == "" || doc.GOMAXPROCS <= 0 || doc.NProc <= 0 {
		t.Fatalf("JSON envelope: %+v", doc.Envelope)
	}
	rep := doc.Results
	if rep.CapacityQPS <= 0 || len(rep.Points) != len(loadFractions) {
		t.Fatalf("JSON shape: %+v", rep)
	}
	for _, p := range rep.Points {
		if p.Errors > 0 {
			t.Errorf("point %.0f qps: %d non-busy errors", p.TargetQPS, p.Errors)
		}
		if p.ShedRate < 0 || p.ShedRate > 1 {
			t.Errorf("point %.0f qps: shed rate %v out of range", p.TargetQPS, p.ShedRate)
		}
		if p.GoodputQPS > 0 && p.P99Ms <= 0 {
			t.Errorf("point %.0f qps: goodput without latency: %+v", p.TargetQPS, p)
		}
	}
}

// TestPackedRangeScanSpeedup is the acceptance guard for the SWAR kernels:
// at 1M rows, the packed range scan must be at least 2x internal/baseline's
// []uint32 scan single-threaded for every |D| up to 2^16. Timing-shape assertion, so it
// skips under the race detector's slowdown and in -short runs.
func TestPackedRangeScanSpeedup(t *testing.T) {
	if raceEnabled {
		t.Skip("timing shapes are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("1M-row scan comparison")
	}
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	cfg.Rows = []int{1 << 20}
	if err := Compression(cfg); err != nil {
		t.Fatalf("Compression: %v", err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		t.Log(line)
	}
	// Re-measure directly for the assertion (the table above is for the
	// failure log).
	rng := rand.New(rand.NewSource(7))
	for _, dictLen := range []int{1 << 4, 1 << 12, 1 << 16} {
		p, err := compressionPoint(cfg, rng, 1<<20, dictLen)
		if err != nil {
			t.Fatal(err)
		}
		if p.RangeSpeedup < 2 {
			t.Errorf("|D|=%d: packed range scan speedup %.2fx, want >= 2x (packed %.2f ns/row, unpacked %.2f ns/row)",
				dictLen, p.RangeSpeedup, p.RangeNsPerRowPacked, p.RangeNsPerRowUnpacked)
		}
	}
}

func TestFig8AllGroups(t *testing.T) {
	for _, g := range []Fig8Group{Fig8A, Fig8B, Fig8C} {
		var buf bytes.Buffer
		cfg := tinyConfig(&buf)
		cfg.Rows = []int{400}
		cfg.Queries = 5
		if err := Fig8(cfg, g); err != nil {
			t.Fatalf("group %d: %v", g, err)
		}
		out := buf.String()
		for _, w := range []string{"MonetDB", "PlainDBDB", "EncDBDB", "C1", "C2"} {
			if !strings.Contains(out, w) {
				t.Errorf("group %d output lacks %q:\n%s", g, w, out)
			}
		}
	}
}

// TestClaimsWorkCounts restates the §6.3 claims that Claims checks as
// latency shapes (encdbdb-bench -exp claims) as work counts, which are exact
// per seed on any host and under any load: one ECALL per filter range,
// O(log |D|) dictionary loads for the sorted (ED1) and rotated (ED2)
// searches, exactly |D| loads for the unsorted ED9 scan, and more rows per
// query from the low-cardinality C2 column than from C1.
func TestClaimsWorkCounts(t *testing.T) {
	const (
		rows    = 4000
		queries = 15
		seed    = 7
	)
	sys, err := newSystem(engine.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	c2 := workload.Generate(workload.C2().Scaled(rows), seed)
	for _, kind := range []dict.Kind{dict.ED1, dict.ED2, dict.ED9} {
		table := fmt.Sprintf("wc_%v", kind)
		def := defFor(kind, c2.Profile.ValueLen, 0, false)
		if err := sys.loadTable(table, def, c2.Values, seed); err != nil {
			t.Fatal(err)
		}
		snap, err := sys.db.Snapshot(table)
		if err != nil {
			t.Fatal(err)
		}
		dictLen := snap.Columns[0].Main.Len()
		logBound := uint64(2*bits.Len(uint(dictLen-1)) + 6) // 2⌈log2 |D|⌉+6
		gen, err := workload.NewQueryGen(c2, 2, seed)
		if err != nil {
			t.Fatal(err)
		}
		filters, err := sys.prepareFilters(table, def, gen, queries)
		if err != nil {
			t.Fatal(err)
		}
		for qi, f := range filters {
			sys.encl.ResetStats()
			if _, err := sys.db.Select(context.Background(), engine.Query{Table: table, Filters: []engine.Filter{f}}); err != nil {
				t.Fatal(err)
			}
			st := sys.encl.Stats()
			if st.ECalls != uint64(len(f.Ranges)) {
				t.Errorf("%v query %d: %d ECALLs for %d filter ranges", kind, qi, st.ECalls, len(f.Ranges))
			}
			switch {
			case kind == dict.ED9 && st.Loads != uint64(dictLen):
				t.Errorf("%v query %d: %d loads, want |D| = %d", kind, qi, st.Loads, dictLen)
			case kind != dict.ED9 && st.Loads > logBound:
				t.Errorf("%v query %d: %d loads, want <= 2*ceil(log2 %d)+6 = %d", kind, qi, st.Loads, dictLen, logBound)
			}
		}
	}

	// Fewer unique values => more rows per query.
	rowsPerQuery := func(profile workload.Profile, table string) float64 {
		col := workload.Generate(profile.Scaled(rows), seed)
		def := defFor(dict.ED1, col.Profile.ValueLen, 0, false)
		if err := sys.loadTable(table, def, col.Values, seed); err != nil {
			t.Fatal(err)
		}
		gen, err := workload.NewQueryGen(col, 50, seed)
		if err != nil {
			t.Fatal(err)
		}
		filters, err := sys.prepareFilters(table, def, gen, queries)
		if err != nil {
			t.Fatal(err)
		}
		_, total, err := sys.timeQueries(table, filters)
		if err != nil {
			t.Fatal(err)
		}
		return float64(total) / queries
	}
	if r1, r2 := rowsPerQuery(workload.C1(), "wc_c1"), rowsPerQuery(workload.C2(), "wc_c2"); r2 <= r1 {
		t.Errorf("C2 returns %.1f rows per query, C1 %.1f: want C2 > C1", r2, r1)
	}
}

func TestFig6PartialOrderHolds(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	cfg.Rows = []int{3000}
	if err := Fig6(cfg); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "VIOLATION") {
		t.Errorf("figure 6 partial order violated:\n%s", buf.String())
	}
}
