package encdbdb_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"github.com/encdbdb/encdbdb/internal/dict"
)

var benchFiles = flag.Bool("benchfiles", false, "rerun the kernel sweeps and rewrite BENCH_scan.json and BENCH_compression.json")

// TestBenchFiles regenerates the committed kernel measurements:
//
//	go test -run TestBenchFiles -benchfiles .
//
// It runs the sweeps beside their kernels with go test -bench — internal/av's
// range scan and block encodings, internal/search's membership scan and
// internal/engine's fused conjunction — and writes their figures under the
// keys the files have always carried, after the host envelope.
func TestBenchFiles(t *testing.T) {
	if !*benchFiles {
		t.Skip("pass -benchfiles to rewrite BENCH_scan.json and BENCH_compression.json")
	}
	res, order := runBenchmarks(t, "BenchmarkPackedRangeScan|BenchmarkEncodedShapes|BenchmarkAttrVectList|BenchmarkFusedConjunction",
		"./internal/av", "./internal/search", "./internal/engine")

	type compressionPoint struct {
		DictLen int `json:"dictLen"`
		Width   int `json:"width"`
		Rows    int `json:"rows"`

		PackedAVBytes      int     `json:"packedAVBytes"`
		UnpackedAVBytes    int     `json:"unpackedAVBytes"`
		AVRatio            float64 `json:"avRatio"`
		SplitMemBytes      int     `json:"splitMemBytes"`
		SplitUnpackedBytes int     `json:"splitUnpackedBytes"`

		RangeNsPerRowPacked   float64 `json:"rangeNsPerRowPacked"`
		RangeNsPerRowUnpacked float64 `json:"rangeNsPerRowUnpacked"`
		RangeSpeedup          float64 `json:"rangeSpeedup"`
		ListNsPerRowPacked    float64 `json:"listNsPerRowPacked"`
		ListNsPerRowUnpacked  float64 `json:"listNsPerRowUnpacked"`
		ListSpeedup           float64 `json:"listSpeedup"`
	}
	var compression []compressionPoint
	for _, name := range order {
		sub, ok := strings.CutPrefix(name, "BenchmarkPackedRangeScan/")
		if !ok {
			continue
		}
		packed, dictLen := res[name], atoi(t, param(name, "dict"))
		rows := int(packed["rows"])
		p := compressionPoint{
			DictLen:               dictLen,
			Width:                 int(packed["bits/row"]),
			Rows:                  rows,
			PackedAVBytes:         int(packed["B"]),
			UnpackedAVBytes:       4 * rows,
			RangeNsPerRowPacked:   packed["ns/row"],
			RangeNsPerRowUnpacked: res["BenchmarkPackedRangeScanBaselineUint32/"+sub]["ns/row"],
			ListNsPerRowPacked:    res["BenchmarkAttrVectList/"+sub+"/mode=packed"]["ns/row"],
			ListNsPerRowUnpacked:  res["BenchmarkAttrVectList/"+sub+"/mode=sorted-probe"]["ns/row"],
		}
		p.AVRatio = float64(p.PackedAVBytes) / float64(p.UnpackedAVBytes)
		p.RangeSpeedup = p.RangeNsPerRowUnpacked / p.RangeNsPerRowPacked
		p.ListSpeedup = p.ListNsPerRowUnpacked / p.ListNsPerRowPacked
		// The whole split's footprint, from a plain ED1 build of up to 100k
		// rows: the dictionary is the same either way, only the attribute
		// vector's layout differs.
		col := make([][]byte, min(rows, 100_000))
		for i := range col {
			col[i] = []byte(fmt.Sprintf("v%07d", i%dictLen+1))
		}
		split, err := dict.Build(col, dict.Params{Kind: dict.ED1, MaxLen: 8, Plain: true, Rand: rand.New(rand.NewSource(1))})
		if err != nil {
			t.Fatal(err)
		}
		p.SplitMemBytes, p.SplitUnpackedBytes = split.MemBytes(), split.DictSizeBytes()+4*split.Rows()
		compression = append(compression, p)
	}

	type encodingPoint struct {
		Shape   string `json:"shape"`
		DictLen int    `json:"dictLen"`
		Rows    int    `json:"rows"`
		Width   int    `json:"width"`

		PackedBlocks int `json:"packedBlocks"`
		FoRBlocks    int `json:"forBlocks"`
		RLEBlocks    int `json:"rleBlocks"`

		EncodedBytes int     `json:"encodedBytes"`
		UniformBytes int     `json:"uniformBytes"`
		BytesRatio   float64 `json:"bytesRatio"`

		EncodedNsPerRow float64 `json:"encodedNsPerRow"`
		UniformNsPerRow float64 `json:"uniformNsPerRow"`
		Speedup         float64 `json:"speedup"`
	}
	type conjunctionPoint struct {
		Rows          int     `json:"rows"`
		Filters       int     `json:"filters"`
		FusedMs       float64 `json:"fusedMs"`
		Fused1WMs     float64 `json:"fused1WorkerMs"`
		SpeedupSerial float64 `json:"speedupVs1Worker"`
	}
	scan := struct {
		Workers     int              `json:"workers"` // the conjunction's pool: 0 is GOMAXPROCS
		Conjunction conjunctionPoint `json:"conjunction"`
		Encodings   []encodingPoint  `json:"encodings"`
	}{}
	for _, name := range order {
		if enc, ok := strings.CutSuffix(name, "/layout=encoded"); ok {
			e, u := res[name], res[enc+"/layout=uniform"]
			scan.Encodings = append(scan.Encodings, encodingPoint{
				Shape: param(name, "shape"), DictLen: atoi(t, param(name, "dict")), Rows: int(e["rows"]), Width: int(u["bits/row"]),
				PackedBlocks: int(e["packed-blocks"]), FoRBlocks: int(e["for-blocks"]), RLEBlocks: int(e["rle-blocks"]),
				EncodedBytes: int(e["B"]), UniformBytes: int(u["B"]), BytesRatio: e["B"] / u["B"],
				EncodedNsPerRow: e["ns/row"], UniformNsPerRow: u["ns/row"], Speedup: u["ns/row"] / e["ns/row"],
			})
		}
		if base, ok := strings.CutSuffix(name, "/workers=0"); ok && strings.HasPrefix(name, "BenchmarkFusedConjunction/") {
			c := &scan.Conjunction
			c.Rows, c.Filters = int(res[name]["rows"]), atoi(t, param(name, "filters"))
			c.FusedMs = res[name]["ns/op"] / 1e6
			c.Fused1WMs = res[base+"/workers=1"]["ns/op"] / 1e6
			c.SpeedupSerial = c.Fused1WMs / c.FusedMs
		}
	}
	if len(compression) == 0 || len(scan.Encodings) == 0 || scan.Conjunction.FusedMs == 0 {
		t.Fatalf("the sweeps reported no points: %v", order)
	}
	writeBenchFile(t, "BENCH_compression.json", compression[0].Rows, compression)
	writeBenchFile(t, "BENCH_scan.json", scan.Conjunction.Rows, scan)
}

// runBenchmarks runs the benchmarks matching pattern in pkgs three times
// each and returns every benchmark's metrics by unit, keyed by its name
// without the -GOMAXPROCS suffix, and the names in output order. A metric
// keeps its least value of the three runs: for a time, the best run, so one
// preempted run does not set the figure; sizes and counts repeat exactly.
func runBenchmarks(t *testing.T, pattern string, pkgs ...string) (map[string]map[string]float64, []string) {
	args := append([]string{"test", "-run", "^$", "-bench", pattern, "-count", "3"}, pkgs...)
	out, err := exec.Command("go", args...).CombinedOutput()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	procs := regexp.MustCompile(`-\d+$`)
	res := make(map[string]map[string]float64)
	var order []string
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := procs.ReplaceAllString(f[0], "")
		m, seen := res[name]
		if !seen {
			m = make(map[string]float64)
			res[name] = m
			order = append(order, name)
		}
		for i := 2; i+1 < len(f); i += 2 { // f[1] is the iteration count
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				t.Fatalf("benchmark line %q: %v", line, err)
			}
			if old, ok := m[f[i+1]]; !ok || v < old {
				m[f[i+1]] = v
			}
		}
	}
	return res, order
}

// param returns the value of a key=value element of a benchmark name.
func param(name, key string) string {
	for _, el := range strings.Split(name, "/") {
		if v, ok := strings.CutPrefix(el, key+"="); ok {
			return v
		}
	}
	return ""
}

func atoi(t *testing.T, s string) int {
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// writeBenchFile writes results to path after the envelope every committed
// BENCH_*.json starts with: the commit measured ("-dirty" when the tree had
// uncommitted changes), the toolchain, the host's parallelism, the sweep's
// row count and its seed (the sweeps draw from fixed seeds of 1).
func writeBenchFile(t *testing.T, path string, rows int, results any) {
	commit := "unknown"
	if out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=40", "--exclude=*").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	blob, err := json.MarshalIndent(struct {
		Commit     string `json:"commit"`
		Go         string `json:"go"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		NProc      int    `json:"nproc"`
		Rows       int    `json:"rows"`
		Seed       int64  `json:"seed"`
		Results    any    `json:"results"`
	}{commit, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), rows, 1, results}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}
