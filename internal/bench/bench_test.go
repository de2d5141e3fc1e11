package bench

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
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
		{name: "merge", run: Merge, want: []string{"quiet", "background", "blocking", "p99"}},
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
		Rows   int                `json:"rows"`
		Points []CompressionPoint `json:"points"`
	}
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatalf("JSON parse: %v", err)
	}
	if out.Rows != 1000 || len(out.Points) == 0 {
		t.Fatalf("JSON shape: rows=%d points=%d", out.Rows, len(out.Points))
	}
	for _, p := range out.Points {
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

func TestMergeWritesJSON(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	cfg.Queries = 5
	cfg.MergeJSONPath = filepath.Join(t.TempDir(), "BENCH_merge.json")
	if err := Merge(cfg); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	blob, err := os.ReadFile(cfg.MergeJSONPath)
	if err != nil {
		t.Fatalf("JSON file: %v", err)
	}
	var out MergeReport
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatalf("JSON parse: %v", err)
	}
	if out.Rows != 600 || out.MergeMs <= 0 || len(out.Points) != 3 {
		t.Fatalf("JSON shape: %+v", out)
	}
	scenarios := map[string]bool{}
	for _, p := range out.Points {
		scenarios[p.Scenario] = true
		if p.Samples <= 0 || p.P50us <= 0 || p.P99us < p.P50us {
			t.Errorf("%s: implausible distribution %+v", p.Scenario, p)
		}
	}
	for _, want := range []string{"quiet", "background", "blocking"} {
		if !scenarios[want] {
			t.Errorf("missing scenario %q in %+v", want, out.Points)
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
	var rep LoadReport
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatalf("JSON parse: %v", err)
	}
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
// at 1M rows, the packed range scan must be at least 2x the []uint32 scan
// single-threaded for every |D| up to 2^16. Timing-shape assertion, so it
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

func TestClaimsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("claims need a non-trivial dataset")
	}
	if raceEnabled {
		t.Skip("latency-shape claims are not meaningful under the race detector's slowdown")
	}
	var buf bytes.Buffer
	cfg := Config{
		Rows:       []int{4000},
		Queries:    15,
		RangeSizes: []int{2, 50},
		BSMax:      10,
		Seed:       7,
		Workers:    1,
		Out:        &buf,
	}
	if err := Claims(cfg); err != nil {
		t.Fatalf("claims failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "passed") {
		t.Errorf("missing summary:\n%s", buf.String())
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

func TestPreparedWritesJSON(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	cfg.Queries = 5
	cfg.PreparedJSONPath = filepath.Join(t.TempDir(), "BENCH_prepared.json")
	if err := Prepared(cfg); err != nil {
		t.Fatalf("Prepared: %v", err)
	}
	blob, err := os.ReadFile(cfg.PreparedJSONPath)
	if err != nil {
		t.Fatalf("JSON file: %v", err)
	}
	var out PreparedReport
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatalf("JSON parse: %v", err)
	}
	if out.Rows != 600 || out.Executions != 50 || len(out.Points) != 3 {
		t.Fatalf("JSON shape: %+v", out)
	}
	modes := map[string]PreparedPoint{}
	for _, p := range out.Points {
		modes[p.Mode] = p
		if p.Samples != out.Executions || p.P50us <= 0 || p.P99us < p.P50us {
			t.Errorf("%s: implausible distribution %+v", p.Mode, p)
		}
	}
	for _, m := range []string{"ad-hoc", "prepared", "streamed"} {
		if _, ok := modes[m]; !ok {
			t.Errorf("mode %q missing from report", m)
		}
	}
	// The whole point: prepared executions do not parse; ad-hoc parses per
	// call.
	if modes["prepared"].Parses > 1 {
		t.Errorf("prepared run parsed %d times, want <= 1", modes["prepared"].Parses)
	}
	if modes["ad-hoc"].Parses < uint64(out.Executions) {
		t.Errorf("ad-hoc run parsed %d times, want >= %d", modes["ad-hoc"].Parses, out.Executions)
	}
}
