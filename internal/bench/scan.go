package bench

import (
	"context"
	"fmt"
	"math/rand"
	"text/tabwriter"
	"time"

	"github.com/encdbdb/encdbdb/internal/av"
	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/ridset"
	"github.com/encdbdb/encdbdb/internal/search"
)

// ScanConjunctionPoint measures an engine-level conjunctive query at the
// configured worker count and on one worker.
type ScanConjunctionPoint struct {
	Rows    int `json:"rows"`
	Filters int `json:"filters"`

	// Per-query server-side latency (best of three batches).
	FusedMs       float64 `json:"fusedMs"`
	Fused1WMs     float64 `json:"fused1WorkerMs"`
	SpeedupSerial float64 `json:"speedupVs1Worker"` // 1 worker / configured workers
}

// ScanEncodingPoint measures one data shape of the block-encoding sweep:
// the encoding mix PackEncoded picks, its footprint against the uniform
// bit-packed layout, and single-threaded range-scan throughput of both.
type ScanEncodingPoint struct {
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

// Scan measures the fused evaluation pipeline and the lightweight block
// encodings:
//
//  1. An engine-level 4-filter conjunction at the largest configured row
//     count, on the configured workers and on one worker — what the
//     morsel-driven scan gains from parallelism.
//  2. An attribute-vector-level range-scan sweep over data shapes — sorted,
//     clustered, drifting, uniform — comparing the per-block FoR/RLE kernels
//     against the uniform SWAR kernels on the same codes.
//
// Results go to cfg.Out as tables and, when cfg.ScanJSONPath is set, to that
// file as JSON.
func Scan(cfg Config) error {
	rows := cfg.Rows[len(cfg.Rows)-1]

	conj, err := scanConjunction(cfg, rows)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "rows\tfilters\tfused\tfused 1 worker\tspeedup vs 1 worker\n")
	fmt.Fprintf(tw, "%d\t%d\t%.3f ms\t%.3f ms\t%.2fx\n",
		conj.Rows, conj.Filters, conj.FusedMs, conj.Fused1WMs, conj.SpeedupSerial)
	if err := tw.Flush(); err != nil {
		return err
	}
	cfg.printf("(conjunctive SELECT latency, ~10%% selectivity per filter)\n\n")

	encPoints, err := scanEncodings(cfg, rows)
	if err != nil {
		return err
	}
	tw = tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "shape\twidth\tblocks packed/FoR/RLE\tencoded\tuniform\tratio\tencoded scan\tuniform scan\tspeedup\n")
	for _, p := range encPoints {
		fmt.Fprintf(tw, "%s\t%d b\t%d/%d/%d\t%s\t%s\t%.3f\t%.2f ns/row\t%.2f ns/row\t%.1fx\n",
			p.Shape, p.Width, p.PackedBlocks, p.FoRBlocks, p.RLEBlocks,
			mb(p.EncodedBytes), mb(p.UniformBytes), p.BytesRatio,
			p.EncodedNsPerRow, p.UniformNsPerRow, p.Speedup)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	cfg.printf("(single-threaded ~10%% selectivity range scans at %d rows, |D|=%d)\n", rows, scanDictLen)

	if cfg.ScanJSONPath != "" {
		return writeJSON(cfg, cfg.ScanJSONPath, rows, struct {
			Workers     int                  `json:"workers"`
			Conjunction ScanConjunctionPoint `json:"conjunction"`
			Encodings   []ScanEncodingPoint  `json:"encodings"`
		}{Workers: cfg.Workers, Conjunction: conj, Encodings: encPoints})
	}
	return nil
}

// scanDictLen is the dictionary size for both halves of the experiment:
// large enough for a realistic slice width, small enough that sorted columns
// have long runs.
const scanDictLen = 1 << 12

// scanConjunction loads one table with four independent random columns into
// two deployments differing only in worker count and times the same
// 4-filter conjunctive SELECT against each. The splits are built once and
// shared: they are plain (key-independent) and the workload is read-only.
func scanConjunction(cfg Config, rows int) (ScanConjunctionPoint, error) {
	const nfilters = 4
	p := ScanConjunctionPoint{Rows: rows, Filters: nfilters}
	rng := rand.New(rand.NewSource(cfg.Seed))

	defs := make([]engine.ColumnDef, nfilters)
	splits := make([]*dict.Split, nfilters)
	for c := 0; c < nfilters; c++ {
		defs[c] = engine.ColumnDef{Name: fmt.Sprintf("c%d", c), Kind: dict.ED1, MaxLen: 8, Plain: true}
		col := make([][]byte, rows)
		for i := range col {
			col[i] = []byte(fmt.Sprintf("v%06d", rng.Intn(scanDictLen)))
		}
		s, err := dict.Build(col, dict.Params{
			Kind: dict.ED1, MaxLen: 8, Plain: true, Rand: rand.New(rand.NewSource(cfg.Seed + int64(c))),
		})
		if err != nil {
			return p, err
		}
		splits[c] = s
	}

	systems := []struct {
		name string
		ms   *float64
		opts []engine.Option
	}{
		{"fused", &p.FusedMs, []engine.Option{engine.WithWorkers(cfg.Workers)}},
		{"fused-1w", &p.Fused1WMs, []engine.Option{engine.WithWorkers(1)}},
	}
	for _, sysDef := range systems {
		s, err := newSystem(sysDef.opts...)
		if err != nil {
			return p, err
		}
		if err := s.db.CreateTable(engine.Schema{Table: "scan", Columns: defs}); err != nil {
			return p, err
		}
		for c := range defs {
			if err := s.db.ImportColumn("scan", defs[c].Name, splits[c]); err != nil {
				return p, err
			}
		}
		// ~10% selectivity per filter, staggered so each filter prunes.
		filters := make([]engine.Filter, nfilters)
		for c := range filters {
			lo := (c + 1) * scanDictLen / 8
			hi := lo + scanDictLen/10
			f, err := s.filter("scan", defs[c], search.Range{
				Start: []byte(fmt.Sprintf("v%06d", lo)), End: []byte(fmt.Sprintf("v%06d", hi)),
				StartIncl: true, EndIncl: false,
			})
			if err != nil {
				return p, err
			}
			filters[c] = f
		}
		ms, err := selectMs(s, "scan", filters)
		if err != nil {
			return p, err
		}
		*sysDef.ms = ms
	}
	if p.FusedMs > 0 {
		p.SpeedupSerial = p.Fused1WMs / p.FusedMs
	}
	return p, nil
}

// selectMs times one SELECT (best of three batches) in milliseconds.
func selectMs(s *system, table string, filters []engine.Filter) (float64, error) {
	q := engine.Query{Table: table, Filters: filters}
	// Warm up once so lazily built state is outside the timed region.
	if _, err := s.db.Select(context.Background(), q); err != nil {
		return 0, err
	}
	const iters = 3
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := s.db.Select(context.Background(), q); err != nil {
				return 0, err
			}
		}
		ms := float64(time.Since(start).Microseconds()) / 1000 / iters
		if best == 0 || ms < best {
			best = ms
		}
	}
	return best, nil
}

// scanEncodings sweeps data shapes through PackEncoded and compares the
// block-encoded range kernels against the uniform SWAR kernels.
func scanEncodings(cfg Config, rows int) ([]ScanEncodingPoint, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	shapes := []struct {
		name string
		gen  func(i int) uint32
	}{
		// Sorted: long monotone runs, the RLE showcase (a clustered index
		// or an insertion-ordered timestamp column).
		{"sorted", func(i int) uint32 { return uint32(i * scanDictLen / rows) }},
		// Clustered: value changes every ~20 rows in random directions.
		{"clustered", func(i int) uint32 { return uint32((i / 20 * 769) % scanDictLen) }},
		// Drifting: per-block base advances, small local spread (FoR).
		{"drifting", func(i int) uint32 {
			base := i / av.BlockRows * 29 % (scanDictLen - 64)
			return uint32(base + rng.Intn(48))
		}},
		// Uniform: full-range random draws; no block beats the uniform
		// layout, so PackEncoded falls back to it.
		{"uniform", func(i int) uint32 { return uint32(rng.Intn(scanDictLen)) }},
	}
	ranges := []av.Range{{Lo: scanDictLen / 4, Hi: scanDictLen/4 + scanDictLen/10}}
	groups := (rows + av.GroupRows - 1) / av.GroupRows
	acc, full := ridset.New(rows), ridset.Full(rows)

	var points []ScanEncodingPoint
	for _, shape := range shapes {
		codes := make([]uint32, rows)
		for i := range codes {
			codes[i] = shape.gen(i)
		}
		enc := av.PackEncoded(codes, scanDictLen)
		uni := av.Pack(codes, scanDictLen)
		p := ScanEncodingPoint{
			Shape:        shape.name,
			DictLen:      scanDictLen,
			Rows:         rows,
			Width:        uni.Bits(),
			EncodedBytes: enc.MemBytes(),
			UniformBytes: uni.MemBytes(),
		}
		for _, blk := range enc.Blocks() {
			switch blk.Enc {
			case av.EncPacked:
				p.PackedBlocks++
			case av.EncFoR:
				p.FoRBlocks++
			case av.EncRLE:
				p.RLEBlocks++
			}
		}
		p.BytesRatio = float64(p.EncodedBytes) / float64(p.UniformBytes)
		// Time the kernels against a preallocated accumulator so the
		// comparison isolates scan work from allocation. Every pass refills
		// it first: one emptied by the previous pass would let the zero-word
		// early-out skip every group.
		p.EncodedNsPerRow = scanNsPerRow(rows, func() {
			acc.UnionWith(full)
			enc.ScanRangesInto(acc, 0, groups, ranges)
		})
		p.UniformNsPerRow = scanNsPerRow(rows, func() {
			acc.UnionWith(full)
			uni.ScanRangesInto(acc, 0, groups, ranges)
		})
		p.Speedup = p.UniformNsPerRow / p.EncodedNsPerRow
		points = append(points, p)
	}
	return points, nil
}
