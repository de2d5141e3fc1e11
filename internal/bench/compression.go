package bench

import (
	"fmt"
	"math/rand"
	"text/tabwriter"
	"time"

	"github.com/encdbdb/encdbdb/internal/av"
	"github.com/encdbdb/encdbdb/internal/baseline"
	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/ridset"
	"github.com/encdbdb/encdbdb/internal/search"
)

// CompressionPoint is one measured row of the compression experiment,
// serialized to JSONPath so the perf trajectory has machine-readable data.
type CompressionPoint struct {
	DictLen int `json:"dictLen"`
	Width   int `json:"width"`
	Rows    int `json:"rows"`

	// Attribute vector footprint: packed (internal/av) vs the previous
	// 4-byte-per-row representation, and the whole split via
	// Split.MemBytes vs its unpacked-AV equivalent.
	PackedAVBytes      int     `json:"packedAVBytes"`
	UnpackedAVBytes    int     `json:"unpackedAVBytes"`
	AVRatio            float64 `json:"avRatio"`
	SplitMemBytes      int     `json:"splitMemBytes"`
	SplitUnpackedBytes int     `json:"splitUnpackedBytes"`

	// Single-threaded scan throughput (ns/row) of the packed range kernel
	// against internal/baseline's unpacked scan and the resulting speedup,
	// plus the same comparison for ValueID-list membership.
	RangeNsPerRowPacked   float64 `json:"rangeNsPerRowPacked"`
	RangeNsPerRowUnpacked float64 `json:"rangeNsPerRowUnpacked"`
	RangeSpeedup          float64 `json:"rangeSpeedup"`
	ListNsPerRowPacked    float64 `json:"listNsPerRowPacked"`
	ListNsPerRowUnpacked  float64 `json:"listNsPerRowUnpacked"`
	ListSpeedup           float64 `json:"listSpeedup"`
}

// Compression measures what the bit-packed attribute vector buys: memory
// footprint (Split.MemBytes packed vs the unpacked 4 B/row layout) and
// single-threaded scan throughput of the SWAR kernels vs internal/baseline's
// []uint32 scans, across dictionary sizes |D| ∈ {2^4, 2^8, 2^12, 2^16} at
// the largest configured row count. Results go to cfg.Out as a table and,
// when cfg.JSONPath is set, to that file as JSON.
func Compression(cfg Config) error {
	rows := cfg.Rows[len(cfg.Rows)-1]
	rng := rand.New(rand.NewSource(cfg.Seed))
	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "|D|\twidth\tAV packed\tAV unpacked\tratio\trange scan packed\tunpacked\tspeedup\tlist speedup\n")

	var points []CompressionPoint
	for _, dictLen := range []int{1 << 4, 1 << 8, 1 << 12, 1 << 16} {
		if dictLen > rows {
			continue
		}
		p, err := compressionPoint(cfg, rng, rows, dictLen)
		if err != nil {
			return err
		}
		points = append(points, p)
		fmt.Fprintf(tw, "%d\t%d b\t%s\t%s\t%.3f\t%.2f ns/row\t%.2f ns/row\t%.1fx\t%.1fx\n",
			p.DictLen, p.Width, mb(p.PackedAVBytes), mb(p.UnpackedAVBytes), p.AVRatio,
			p.RangeNsPerRowPacked, p.RangeNsPerRowUnpacked, p.RangeSpeedup, p.ListSpeedup)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	cfg.printf("(single-threaded scans at %d rows; ~10%% selectivity range, ~10%% membership list)\n", rows)
	if cfg.JSONPath != "" {
		return writeJSON(cfg, cfg.JSONPath, rows, points)
	}
	return nil
}

// compressionPoint measures one |D| configuration.
func compressionPoint(cfg Config, rng *rand.Rand, rows, dictLen int) (CompressionPoint, error) {
	codes := make([]uint32, rows)
	for i := range codes {
		codes[i] = uint32(rng.Intn(dictLen))
	}
	vec := av.Pack(codes, dictLen)
	p := CompressionPoint{
		DictLen:         dictLen,
		Width:           vec.Bits(),
		Rows:            rows,
		PackedAVBytes:   vec.MemBytes(),
		UnpackedAVBytes: 4 * rows,
	}
	p.AVRatio = float64(p.PackedAVBytes) / float64(p.UnpackedAVBytes)

	// Whole-split footprint from a real (plain ED1) build at a smaller
	// scale: the dictionary part is identical either way; only the AV
	// representation differs.
	splitRows := rows
	if splitRows > 100_000 {
		splitRows = 100_000
	}
	col := make([][]byte, splitRows)
	for i := range col {
		col[i] = []byte(fmt.Sprintf("v%07d", i%dictLen+1))
	}
	split, err := dict.Build(col, dict.Params{
		Kind: dict.ED1, MaxLen: 8, Plain: true, Rand: rand.New(rand.NewSource(cfg.Seed)),
	})
	if err != nil {
		return p, err
	}
	p.SplitMemBytes = split.MemBytes()
	p.SplitUnpackedBytes = split.DictSizeBytes() + 4*split.Rows()

	// ~10% selectivity, the common single-range case.
	ranges := []search.VidRange{{Lo: uint32(dictLen / 4), Hi: uint32(dictLen/4 + dictLen/10)}}
	// The packed kernels fuse into an accumulator; each pass starts from a
	// fresh full one, as the unpacked scans start from a fresh set.
	p.RangeNsPerRowPacked = scanNsPerRow(rows, func() {
		search.AttrVectRangesPackedInto(vec, ranges, ridset.Full(rows), 1)
	})
	p.RangeNsPerRowUnpacked = scanNsPerRow(rows, func() {
		baseline.AttrVectRangesSet(codes, ranges, 1)
	})
	p.RangeSpeedup = p.RangeNsPerRowUnpacked / p.RangeNsPerRowPacked

	// Membership: a random ~10% ValueID list, as an unsorted dictionary
	// search emits.
	nvids := dictLen/10 + 1
	vids := make([]uint32, nvids)
	for i := range vids {
		vids[i] = uint32(rng.Intn(dictLen))
	}
	p.ListNsPerRowPacked = scanNsPerRow(rows, func() {
		search.AttrVectListPackedInto(vec, vids, ridset.Full(rows), 1)
	})
	p.ListNsPerRowUnpacked = scanNsPerRow(rows, func() {
		baseline.AttrVectListSet(codes, vids, dictLen, baseline.AVSortedProbe, 1)
	})
	p.ListSpeedup = p.ListNsPerRowUnpacked / p.ListNsPerRowPacked
	return p, nil
}

// scanNsPerRow times fn (best of three batches, each at least ~2M rows of
// work) and returns nanoseconds per row.
func scanNsPerRow(rows int, fn func()) float64 {
	iters := 1
	if rows < 2_000_000 {
		iters = (2_000_000 + rows - 1) / rows
	}
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(iters*rows)
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}
