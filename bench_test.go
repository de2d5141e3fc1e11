// The paper's evaluation (§6) as one table-driven benchmark, BenchmarkPaper,
// beside the tests that pin its exact enclave work (§6.3) and Figure 6's
// partial order. The kernel sweeps live beside their kernels: internal/av
// (range scan, block encodings), internal/search (membership scan, ablation
// A1) and internal/engine (fused conjunction); TestBenchFiles writes them to
// BENCH_scan.json and BENCH_compression.json.
//
//	go test -run '^$' -bench BenchmarkPaper .              # the whole matrix
//	go test -run '^$' -bench 'BenchmarkPaper/C2/ED9/' .    # one kind
//
// BenchmarkPaper/<column>/<kind>/RS=<n>/<system> runs ED1–ED9 (and ED5 at
// three more bsmax values) × the C1/C2 columns × RS ∈ {2, 100} × EncDBDB and
// PlainDBDB, timing server-side SELECTs of pre-encrypted random ranges as
// the paper does. BenchmarkPaper/<column>/MonetDB/RS=<n> runs the same
// ranges on the MonetDB-style store. Where each figure of the paper lands:
//
//	Table 1  ns/op and B/plainB of ED1, EncDBDB against PlainDBDB
//	Table 3  entries, entries-predicted and vidfreq-max per kind
//	Table 4  loads/op and entries of ED1, ED2 and ED3
//	Table 6  B/plainB per kind; MonetDB's B/plainB, plain-B and encfile-B/plainB
//	Fig. 6   freq-recovery, order-recovery and order-score per kind
//	Fig. 7   results and results-ci95 on MonetDB
//	Fig. 8   ns/op and rows/op of MonetDB, PlainDBDB and EncDBDB
//	A2       ED5_bsmax=N: entries, vidfreq-max, B/plainB and ns/op
//	A3       ecalls/op, loads/op, decrypts/op and ns/op, EncDBDB against PlainDBDB
package encdbdb_test

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"github.com/encdbdb/encdbdb/internal/baseline"
	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/leakage"
	"github.com/encdbdb/encdbdb/internal/pae"
	"github.com/encdbdb/encdbdb/internal/search"
	"github.com/encdbdb/encdbdb/internal/workload"
)

// The matrix's scale: the paper samples 10.9M-row columns with 500 queries
// per point; these keep the asymptotics visible at laptop scale.
const (
	paperRows    = 20_000
	paperQueries = 64
	paperSeed    = 1
)

// paperRS are the paper's range sizes.
var paperRS = []int{2, 100}

// paperCases are the matrix's dictionaries: ED1–ED9, the smoothing kinds at
// the paper's bsmax of 10, and ED5 at three more bsmax values (ablation A2).
var paperCases = []struct {
	name  string
	kind  dict.Kind
	bsmax int
}{
	{"ED1", dict.ED1, 0}, {"ED2", dict.ED2, 0}, {"ED3", dict.ED3, 0},
	{"ED4", dict.ED4, 10}, {"ED5", dict.ED5, 10}, {"ED6", dict.ED6, 10},
	{"ED7", dict.ED7, 0}, {"ED8", dict.ED8, 0}, {"ED9", dict.ED9, 0},
	{"ED5_bsmax=1", dict.ED5, 1}, {"ED5_bsmax=2", dict.ED5, 2}, {"ED5_bsmax=100", dict.ED5, 100},
}

func BenchmarkPaper(b *testing.B) {
	for _, profile := range []workload.Profile{workload.C1(), workload.C2()} {
		b.Run(profile.Name, func(b *testing.B) {
			col := workload.Generate(profile.Scaled(paperRows), paperSeed)
			plainBytes := float64(baseline.PlaintextFileSize(col.Values))
			// One query sweep per RS, shared by every system, as the paper
			// runs "the same random range queries" on all three.
			queries := make(map[int][]search.Range, len(paperRS))
			for _, rs := range paperRS {
				queries[rs] = queryRanges(b, col, rs, paperQueries, paperSeed)
			}
			b.Run("MonetDB", func(b *testing.B) { benchMonetDB(b, col, queries, plainBytes) })
			for _, pc := range paperCases {
				b.Run(pc.name, func(b *testing.B) {
					benchKind(b, col, pc.kind, pc.bsmax, queries, plainBytes)
				})
			}
		})
	}
}

// benchMonetDB times the ranges on the MonetDB-style plaintext store (a
// search over its sorted dictionary, then every row fetched), and reports
// Figure 7's result counts and Table 6's baseline sizes.
func benchMonetDB(b *testing.B, col *workload.Column, queries map[int][]search.Range, plainBytes float64) {
	m := baseline.NewMonetDBSim(col.Values)
	for _, rs := range paperRS {
		qs := queries[rs]
		b.Run(fmt.Sprintf("RS=%d", rs), func(b *testing.B) {
			rows := 0
			for i := 0; i < b.N; i++ {
				rids := m.RangeSearch(qs[i%len(qs)])
				for _, r := range rids {
					_ = m.Get(int(r))
				}
				rows += len(rids)
			}
			b.StopTimer()
			counts := make([]float64, len(qs))
			for i, q := range qs {
				counts[i] = float64(len(m.RangeSearch(q)))
			}
			fig7 := workload.Summarize(counts)
			b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
			b.ReportMetric(fig7.Mean, "results")
			b.ReportMetric(fig7.CI95, "results-ci95")
			b.ReportMetric(float64(m.SizeBytes())/plainBytes, "B/plainB")
			b.ReportMetric(plainBytes, "plain-B")
			b.ReportMetric(float64(baseline.EncryptedFileSize(col.Values))/plainBytes, "encfile-B/plainB")
		})
	}
}

// benchKind loads col as one kind into an EncDBDB and a PlainDBDB
// deployment and times the ranges on each.
func benchKind(b *testing.B, col *workload.Column, kind dict.Kind, bsmax int, queries map[int][]search.Range, plainBytes float64) {
	systems := []struct {
		name  string
		def   engine.ColumnDef
		p     *paperDB
		split *dict.Split
	}{
		{name: "EncDBDB", def: colDef(kind, col.Profile.ValueLen, bsmax, false)},
		{name: "PlainDBDB", def: colDef(kind, col.Profile.ValueLen, bsmax, true)},
	}
	for i := range systems {
		s := &systems[i]
		s.p = newPaperDB(b, paperSeed)
		s.split = s.p.load(b, "t", s.def, col.Values)
	}
	leaked := leaks(b, systems[0].p, "t", systems[0].split, col.Values, bsmax)
	for _, rs := range paperRS {
		b.Run(fmt.Sprintf("RS=%d", rs), func(b *testing.B) {
			for _, s := range systems {
				filters := s.p.filters(b, "t", s.def, queries[rs])
				b.Run(s.name, func(b *testing.B) {
					s.p.timeSelects(b, "t", filters)
					b.ReportMetric(float64(s.split.SizeBytes())/plainBytes, "B/plainB")
					if !s.def.Plain {
						for unit, v := range leaked {
							b.ReportMetric(v, unit)
						}
					}
				})
			}
		})
	}
}

// timeSelects runs one single-range SELECT per op, cycling through filters,
// and reports the enclave's work and the rows matched per op.
func (p *paperDB) timeSelects(b *testing.B, table string, filters []engine.Filter) {
	ctx := context.Background()
	p.encl.ResetStats()
	rows := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := p.db.Select(ctx, engine.Query{Table: table, Filters: filters[i%len(filters):][:1]})
		if err != nil {
			b.Fatal(err)
		}
		rows += res.Count
	}
	b.StopTimer()
	st, n := p.encl.Stats(), float64(b.N)
	b.ReportMetric(float64(st.ECalls)/n, "ecalls/op")
	b.ReportMetric(float64(st.Loads)/n, "loads/op")
	b.ReportMetric(float64(st.Decryptions)/n, "decrypts/op")
	b.ReportMetric(float64(rows)/n, "rows/op")
}

// leaks measures what the provider's copy of a column reveals: Table 3's
// dictionary size against the paper's prediction and the largest ValueID
// frequency, and Figure 6's attack recovery rates and adjacent order score.
// The attacker knows the column's exact value distribution.
func leaks(tb testing.TB, p *paperDB, table string, split *dict.Split, values [][]byte, bsmax int) map[string]float64 {
	tb.Helper()
	dec := p.cipher(tb, table).Decrypt
	aux := leakage.BuildAuxiliary(values)
	rep, err := leakage.Analyze(split, dec)
	if err != nil {
		tb.Fatal(err)
	}
	freq, err := leakage.FrequencyAttack(split, dec, aux)
	if err != nil {
		tb.Fatal(err)
	}
	order, err := leakage.OrderAttack(split, dec, aux)
	if err != nil {
		tb.Fatal(err)
	}
	// Table 3: |un(C)| entries when frequencies are revealed, |AV| when
	// hidden, and Σ_v 2|oc(C,v)|/(1+bsmax) = 2|C|/(1+bsmax) when smoothed.
	predicted := float64(len(aux))
	switch split.Kind.Repetition() {
	case dict.RepSmoothing:
		predicted = 2 * float64(len(values)) / float64(1+bsmax)
	case dict.RepHiding:
		predicted = float64(len(values))
	}
	return map[string]float64{
		"entries":           float64(rep.DictLen),
		"entries-predicted": predicted,
		"vidfreq-max":       float64(rep.MaxVidFrequency),
		"freq-recovery":     freq,
		"order-recovery":    order,
		"order-score":       rep.AdjacentOrderScore,
	}
}

// TestClaimsWorkCounts states the §6.3 claims as work counts, which are
// exact per seed on any host and under any load: one ECALL per filter range,
// O(log |D|) dictionary loads for the sorted (ED1) and rotated (ED2)
// searches, exactly |D| loads for the unsorted ED9 scan, and more rows per
// query from the low-cardinality C2 column than from C1. BenchmarkPaper
// reports their latency form.
func TestClaimsWorkCounts(t *testing.T) {
	const (
		rows    = 4000
		queries = 15
		seed    = 7
	)
	p := newPaperDB(t, seed, engine.WithWorkers(1))
	c2 := workload.Generate(workload.C2().Scaled(rows), seed)
	for _, kind := range []dict.Kind{dict.ED1, dict.ED2, dict.ED9} {
		table := fmt.Sprintf("wc_%v", kind)
		def := colDef(kind, c2.Profile.ValueLen, 0, false)
		dictLen := p.load(t, table, def, c2.Values).Len()
		logBound := uint64(2*bits.Len(uint(dictLen-1)) + 6) // 2⌈log2 |D|⌉+6
		for qi, f := range p.filters(t, table, def, queryRanges(t, c2, 2, queries, seed)) {
			p.encl.ResetStats()
			if _, err := p.db.Select(context.Background(), engine.Query{Table: table, Filters: []engine.Filter{f}}); err != nil {
				t.Fatal(err)
			}
			st := p.encl.Stats()
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
		def := colDef(dict.ED1, col.Profile.ValueLen, 0, false)
		p.load(t, table, def, col.Values)
		total := 0
		for _, f := range p.filters(t, table, def, queryRanges(t, col, 50, queries, seed)) {
			res, err := p.db.Select(context.Background(), engine.Query{Table: table, Filters: []engine.Filter{f}})
			if err != nil {
				t.Fatal(err)
			}
			total += res.Count
		}
		return float64(total) / queries
	}
	if r1, r2 := rowsPerQuery(workload.C1(), "wc_c1"), rowsPerQuery(workload.C2(), "wc_c2"); r2 <= r1 {
		t.Errorf("C2 returns %.1f rows per query, C1 %.1f: want C2 > C1", r2, r1)
	}
}

// TestFig6PartialOrderHolds checks the relative security classification of
// Figure 6 with the frequency-analysis and order attacks on a skewed
// column: moving down a column of the figure (revealing → smoothing →
// hiding) must not raise frequency-attack recovery, and moving right
// (sorted → unsorted) must not raise order-attack recovery, each beyond a
// 0.05 slack.
func TestFig6PartialOrderHolds(t *testing.T) {
	const (
		seed  = 42
		bsmax = 5
		slack = 0.05
	)
	col := workload.Generate(workload.Profile{Name: "skewed", Rows: 3000, Unique: 64, ValueLen: 10, Zipf: 1.4}, seed)
	p := newPaperDB(t, seed)
	freq, order := make(map[dict.Kind]float64), make(map[dict.Kind]float64)
	for _, pc := range paperCases[:9] {
		table := "f6_" + pc.name
		split := p.load(t, table, colDef(pc.kind, col.Profile.ValueLen, bsmax, false), col.Values)
		l := leaks(t, p, table, split, col.Values, bsmax)
		freq[pc.kind], order[pc.kind] = l["freq-recovery"], l["order-recovery"]
		t.Logf("%v: freq-attack recovery %.3f, order-attack recovery %.3f", pc.kind, freq[pc.kind], order[pc.kind])
	}
	for _, tr := range [][2]dict.Kind{
		{dict.ED1, dict.ED4}, {dict.ED4, dict.ED7},
		{dict.ED2, dict.ED5}, {dict.ED5, dict.ED8},
		{dict.ED3, dict.ED6}, {dict.ED6, dict.ED9},
	} {
		if freq[tr[1]] > freq[tr[0]]+slack {
			t.Errorf("%v freq recovery %.3f > %v freq recovery %.3f", tr[1], freq[tr[1]], tr[0], freq[tr[0]])
		}
	}
	for _, tr := range [][2]dict.Kind{{dict.ED1, dict.ED3}, {dict.ED4, dict.ED6}, {dict.ED7, dict.ED9}} {
		if order[tr[1]] > order[tr[0]]+slack {
			t.Errorf("%v order recovery %.3f > %v order recovery %.3f", tr[1], order[tr[1]], tr[0], order[tr[0]])
		}
	}
}

// paperDB is one provisioned deployment measured at the server: enclave,
// engine, and the data owner's master key for preparing data and queries.
type paperDB struct {
	db     *engine.DB
	encl   *enclave.Enclave
	master pae.Key
	seed   int64 // seeds the draws of every split it builds
}

func newPaperDB(tb testing.TB, seed int64, opts ...engine.Option) *paperDB {
	tb.Helper()
	plat, err := enclave.NewPlatform()
	if err != nil {
		tb.Fatal(err)
	}
	encl, err := plat.Launch(enclave.Config{Identity: "encdbdb-paper"})
	if err != nil {
		tb.Fatal(err)
	}
	master := pae.MustGen()
	sealed, err := enclave.SealKey(encl.Quote(nil), master)
	if err != nil {
		tb.Fatal(err)
	}
	if err := encl.Provision(sealed); err != nil {
		tb.Fatal(err)
	}
	return &paperDB{db: engine.New(encl, opts...), encl: encl, master: master, seed: seed}
}

// colDef is the one column "c" of a table; only smoothing kinds take bsmax.
func colDef(kind dict.Kind, maxLen, bsmax int, plain bool) engine.ColumnDef {
	def := engine.ColumnDef{Name: "c", Kind: kind, MaxLen: maxLen, Plain: plain}
	if kind.Repetition() == dict.RepSmoothing {
		def.BSMax = bsmax
	}
	return def
}

// cipher derives column c's cipher as the data owner and the proxy do.
func (p *paperDB) cipher(tb testing.TB, table string) *pae.Cipher {
	tb.Helper()
	key, err := pae.Derive(p.master, table, "c")
	if err != nil {
		tb.Fatal(err)
	}
	c, err := pae.NewCipher(key)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// load creates a one-column table, builds its split as the data owner does
// (the paper's EncDB step) and bulk-loads it.
func (p *paperDB) load(tb testing.TB, table string, def engine.ColumnDef, values [][]byte) *dict.Split {
	tb.Helper()
	params := dict.Params{
		Kind: def.Kind, MaxLen: def.MaxLen, BSMax: def.BSMax, Plain: def.Plain,
		Rand: rand.New(rand.NewSource(p.seed)),
	}
	if !def.Plain {
		params.Cipher = p.cipher(tb, table)
	}
	split, err := dict.Build(values, params)
	if err != nil {
		tb.Fatal(err)
	}
	if err := p.db.CreateTable(engine.Schema{Table: table, Columns: []engine.ColumnDef{def}}); err != nil {
		tb.Fatal(err)
	}
	if err := p.db.ImportColumn(table, def.Name, split); err != nil {
		tb.Fatal(err)
	}
	return split
}

// filters encrypts plaintext ranges as the proxy would, so that timing
// excludes the proxy's work.
func (p *paperDB) filters(tb testing.TB, table string, def engine.ColumnDef, ranges []search.Range) []engine.Filter {
	tb.Helper()
	var c *pae.Cipher
	if !def.Plain {
		c = p.cipher(tb, table)
	}
	out := make([]engine.Filter, len(ranges))
	for i, q := range ranges {
		er := enclave.EncRange{Start: q.Start, End: q.End, StartIncl: q.StartIncl, EndIncl: q.EndIncl}
		if c != nil {
			var err error
			if er.Start, err = c.Encrypt(q.Start); err != nil {
				tb.Fatal(err)
			}
			if er.End, err = c.Encrypt(q.End); err != nil {
				tb.Fatal(err)
			}
		}
		out[i] = engine.SingleRange(def.Name, er)
	}
	return out
}

// queryRanges draws n random ranges of rs consecutive distinct values of
// col.
func queryRanges(tb testing.TB, col *workload.Column, rs, n int, seed int64) []search.Range {
	tb.Helper()
	gen, err := workload.NewQueryGen(col, rs, seed)
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]search.Range, n)
	for i := range out {
		out[i] = gen.Next()
	}
	return out
}
