package bench

import (
	"context"
	"fmt"
	"text/tabwriter"
	"time"

	"github.com/encdbdb/encdbdb/internal/baseline"
	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/ridset"
	"github.com/encdbdb/encdbdb/internal/search"
	"github.com/encdbdb/encdbdb/internal/workload"
)

// AblationAV compares the AttrVectSearch strategies for unsorted
// dictionaries (ablation A1): the paper's literal nested loop, the
// sorted-probe scan, a bitset — all over unpacked []uint32 codes, from
// internal/baseline — and the bit-packed SWAR kernel the engine runs. Each
// query's ValueIDs come from one enclave search over an ED9 column; only
// the attribute-vector phase is timed, per strategy, over those IDs.
func AblationAV(cfg Config) error {
	rows := cfg.Rows[len(cfg.Rows)-1]
	col := workload.Generate(workload.C2().Scaled(rows), cfg.Seed)
	sys, err := newSystem()
	if err != nil {
		return err
	}
	def := defFor(dict.ED9, col.Profile.ValueLen, 0, false)
	split, err := sys.buildSplit("aav", def, col.Values, cfg.Seed)
	if err != nil {
		return err
	}
	meta := enclave.ColumnMeta{Table: "aav", Column: def.Name, Kind: def.Kind, MaxLen: def.MaxLen}
	codes, vec := split.AVCodes(), split.Packed()
	modes := []struct {
		name string
		scan func(vids []uint32)
	}{
		{"nested loop (paper literal)", func(vids []uint32) {
			baseline.AttrVectListSet(codes, vids, split.Len(), baseline.AVNestedLoop, cfg.Workers)
		}},
		{"sorted probe", func(vids []uint32) {
			baseline.AttrVectListSet(codes, vids, split.Len(), baseline.AVSortedProbe, cfg.Workers)
		}},
		{"bitset", func(vids []uint32) {
			baseline.AttrVectListSet(codes, vids, split.Len(), baseline.AVBitset, cfg.Workers)
		}},
		{"packed SWAR (engine)", func(vids []uint32) {
			search.AttrVectListPackedInto(vec, vids, ridset.Full(vec.Len()), cfg.Workers)
		}},
	}

	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "AV mode\tRS\tavg AV-phase latency\n")
	for _, rs := range cfg.RangeSizes {
		if rs > len(col.SortedUnique) {
			continue
		}
		gen, err := workload.NewQueryGen(col, rs, cfg.Seed)
		if err != nil {
			return err
		}
		filters, err := sys.prepareFilters("aav", def, gen, cfg.Queries)
		if err != nil {
			return err
		}
		vidsPerQuery := make([][]uint32, len(filters))
		for i, f := range filters {
			res, err := sys.encl.DictSearch(meta, split, nil, f.Ranges[0])
			if err != nil {
				return err
			}
			vidsPerQuery[i] = res.IDs
		}
		for _, m := range modes {
			lat := make([]float64, len(vidsPerQuery))
			for i, vids := range vidsPerQuery {
				start := time.Now()
				m.scan(vids)
				lat[i] = float64(time.Since(start).Nanoseconds()) / 1e3
			}
			fmt.Fprintf(tw, "%s\t%d\t%s\n", m.name, rs, ms(workload.Summarize(lat).Mean))
		}
	}
	return tw.Flush()
}

// AblationBSMax sweeps the frequency smoothing parameter (ablation A2),
// extending Table 6's three bsmax points with the latency and leakage-bound
// tradeoff the paper describes in §4.1.
func AblationBSMax(cfg Config) error {
	rows := cfg.Rows[0]
	col := workload.Generate(workload.C2().Scaled(rows), cfg.Seed)
	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "bsmax\t|D|\tstorage\tfreq bound\tavg latency(RS=%d)\n", cfg.RangeSizes[0])
	for _, bs := range []int{1, 2, 10, 100} {
		sys, err := newSystem(engine.WithWorkers(cfg.Workers))
		if err != nil {
			return err
		}
		def := defFor(dict.ED5, col.Profile.ValueLen, bs, false)
		if err := sys.loadTable("abs", def, col.Values, cfg.Seed); err != nil {
			return err
		}
		snap, err := sys.db.Snapshot("abs")
		if err != nil {
			return err
		}
		split := snap.Columns[0].Main
		gen, err := workload.NewQueryGen(col, cfg.RangeSizes[0], cfg.Seed)
		if err != nil {
			return err
		}
		filters, err := sys.prepareFilters("abs", def, gen, cfg.Queries)
		if err != nil {
			return err
		}
		lat, _, err := sys.timeQueries("abs", filters)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%d\t%d\t%s\t<=%d\t%s\n",
			bs, split.Len(), mb(split.SizeBytes()), bs, ms(workload.Summarize(lat).Mean))
	}
	return tw.Flush()
}

// AblationOptimizer measures the filter-reordering query optimizer: a
// conjunctive query whose cheap sorted filter is empty must short-circuit
// the expensive unsorted scan when reordering is on.
func AblationOptimizer(cfg Config) error {
	rows := cfg.Rows[len(cfg.Rows)-1]
	col := workload.Generate(workload.C2().Scaled(rows), cfg.Seed)
	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "optimizer\tavg latency\tenclave loads/query\n")
	for _, reorder := range []bool{true, false} {
		sys, err := newSystem(engine.WithFilterReorder(reorder), engine.WithWorkers(cfg.Workers))
		if err != nil {
			return err
		}
		cheap := defFor(dict.ED1, col.Profile.ValueLen, 0, false)
		cheap.Name = "cheap"
		costly := defFor(dict.ED9, col.Profile.ValueLen, 0, false)
		costly.Name = "costly"
		if err := sys.db.CreateTable(engine.Schema{Table: "aopt", Columns: []engine.ColumnDef{cheap, costly}}); err != nil {
			return err
		}
		for _, def := range []engine.ColumnDef{cheap, costly} {
			split, err := sys.buildSplit("aopt", def, col.Values, cfg.Seed)
			if err != nil {
				return err
			}
			if err := sys.db.ImportColumn("aopt", def.Name, split); err != nil {
				return err
			}
		}
		// The cheap filter never matches; the costly filter matches all.
		noMatch, err := sys.filter("aopt", cheap, search.Eq([]byte("ZZZZ")))
		if err != nil {
			return err
		}
		all, err := sys.filter("aopt", costly, search.Closed([]byte("a"), []byte("zzzz")))
		if err != nil {
			return err
		}
		sys.encl.ResetStats()
		lat := make([]float64, cfg.Queries)
		for i := range lat {
			start := time.Now()
			// Written expensive-first: only the optimizer saves us.
			if _, err := sys.db.Select(context.Background(), engine.Query{
				Table:     "aopt",
				Filters:   []engine.Filter{all, noMatch},
				CountOnly: true,
			}); err != nil {
				return err
			}
			lat[i] = float64(time.Since(start).Microseconds())
		}
		stats := sys.encl.Stats()
		label := "on (default)"
		if !reorder {
			label = "off"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.1f\n", label,
			ms(workload.Summarize(lat).Mean),
			float64(stats.Loads)/float64(cfg.Queries))
	}
	return tw.Flush()
}

// AblationEnclave quantifies the enclave boundary cost (ablation A3):
// identical ED1 searches with and without the enclave/PAE, plus the
// measured boundary counters backing the paper's "one context switch per
// query" claim.
func AblationEnclave(cfg Config) error {
	rows := cfg.Rows[len(cfg.Rows)-1]
	col := workload.Generate(workload.C2().Scaled(rows), cfg.Seed)
	gen, err := workload.NewQueryGen(col, cfg.RangeSizes[0], cfg.Seed)
	if err != nil {
		return err
	}
	queries := make([]search.Range, cfg.Queries)
	for i := range queries {
		queries[i] = gen.Next()
	}

	var encMean, plainMean float64
	for _, plain := range []bool{false, true} {
		sys, err := newSystem(engine.WithWorkers(cfg.Workers))
		if err != nil {
			return err
		}
		def := defFor(dict.ED1, col.Profile.ValueLen, 0, plain)
		if err := sys.loadTable("aen", def, col.Values, cfg.Seed); err != nil {
			return err
		}
		var filters []engine.Filter
		for _, q := range queries {
			f, err := sys.filter("aen", def, q)
			if err != nil {
				return err
			}
			filters = append(filters, f)
		}
		sys.encl.ResetStats()
		start := time.Now()
		if _, _, err := sys.timeQueries("aen", filters); err != nil {
			return err
		}
		total := time.Since(start)
		mean := float64(total.Microseconds()) / float64(len(queries))
		if plain {
			plainMean = mean
		} else {
			encMean = mean
			stats := sys.encl.Stats()
			cfg.printf("enclave boundary per query: %.1f ecalls, %.1f loads, %.1f decryptions\n",
				float64(stats.ECalls)/float64(len(queries)),
				float64(stats.Loads)/float64(len(queries)),
				float64(stats.Decryptions)/float64(len(queries)))
		}
	}
	cfg.printf("ED1 latency: enclave+PAE %s vs plaintext %s (overhead %+.1f%%)\n",
		ms(encMean), ms(plainMean), 100*(encMean/plainMean-1))
	return nil
}
